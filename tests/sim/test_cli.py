"""The `python -m repro.sim` command-line runner."""

import argparse

import pytest

from repro.sim.__main__ import build_parser, main, parse_capacity, parse_constraints


def test_parse_constraints():
    config = parse_constraints("5:10")
    assert config.max_wait_seconds == 300.0
    assert config.detour_epsilon == pytest.approx(0.1)


def test_parse_constraints_invalid():
    with pytest.raises(argparse.ArgumentTypeError):
        parse_constraints("banana")


def test_parse_capacity():
    assert parse_capacity("4") == 4
    assert parse_capacity("unlimited") is None
    assert parse_capacity("unlim") is None


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.algorithm == "kinetic"
    assert args.capacity == 4


def test_main_smoke(capsys):
    code = main(
        [
            "--grid", "10",
            "--vehicles", "5",
            "--trips", "15",
            "--hours", "0.5",
            "--min-trip-meters", "400",
            "--seed", "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "service-guarantee audit: 0 violation(s)" in out
    assert "acrt_ms" in out


def test_main_with_hotspot_and_unlimited(capsys):
    code = main(
        [
            "--grid", "10",
            "--vehicles", "4",
            "--trips", "12",
            "--hours", "0.5",
            "--capacity", "unlimited",
            "--hotspot-theta", "40",
            "--min-trip-meters", "400",
            "--constraints", "15:30",
        ]
    )
    assert code == 0
    assert "unlim" in capsys.readouterr().out


def test_engine_flag_smoke(capsys):
    code = main(
        [
            "--grid", "8",
            "--vehicles", "4",
            "--trips", "10",
            "--hours", "0.5",
            "--min-trip-meters", "400",
            "--engine", "dijkstra",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "engine dijkstra" in out


def test_engine_flag_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--engine", "teleporter"])
