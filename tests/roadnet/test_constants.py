"""Paper constants and unit conventions."""

import pytest

from repro import constants


def test_speed_matches_paper():
    # "a constant 14 meters/second (approximately 48 kilometers/hour)"
    assert constants.SPEED_MPS == 14.0
    assert constants.SPEED_MPS * 3.6 == pytest.approx(50.4, abs=3.0)


def test_default_constraints_are_table1_defaults():
    assert constants.DEFAULT_WAIT_SECONDS == 600.0
    assert constants.DEFAULT_DETOUR_EPSILON == 0.20


def test_wait_radius_matches_paper_remark():
    # "a waiting time constraint of 10 minutes corresponds to 8,500 m".
    radius = constants.DEFAULT_WAIT_SECONDS * constants.SPEED_MPS
    assert radius == pytest.approx(8_400.0)
    assert abs(radius - 8_500.0) < 200.0


def test_shanghai_dataset_figures():
    assert constants.SHANGHAI_NUM_VERTICES == 122_319
    assert constants.SHANGHAI_NUM_EDGES == 188_426
    assert constants.SHANGHAI_NUM_TRIPS == 432_327
    assert constants.SHANGHAI_NUM_TAXIS == 17_000


def test_capacity_defaults():
    assert constants.DEFAULT_CAPACITY_FOUR_ALGO == 4
    assert constants.DEFAULT_CAPACITY_TREE == 6
    assert constants.UNLIMITED_CAPACITY is None

