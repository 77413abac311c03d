"""The window controllers: retune law, clamping, guard, construction."""

import pytest

from repro.dispatch.adaptive import (
    AdaptiveWindowController,
    FixedWindowController,
    make_window_controller,
)
from repro.sim.config import SimulationConfig


def _controller(**overrides):
    params = dict(
        initial_window_s=10.0,
        window_min_s=5.0,
        window_max_s=30.0,
        ewma_alpha=0.5,
        target_batch=12.0,
    )
    params.update(overrides)
    return AdaptiveWindowController(**params)


# ----------------------------------------------------------------------
# Fixed controller: the degenerate, bit-identical cadence
# ----------------------------------------------------------------------
def test_fixed_controller_echoes_config_floats():
    """The fixed controller must hand back the *same float object* the
    config carries: flush arithmetic is then literally the pre-controller
    expression ``now + config.batch_window_s``."""
    config = SimulationConfig(batch_window_s=17.0)
    controller = make_window_controller(config)
    assert isinstance(controller, FixedWindowController)
    assert controller.window_s is config.batch_window_s
    for i in range(5):
        controller.on_flush(i * 17.0, new_arrivals=i)
        controller.observe_quote_stage(123.0)
    assert controller.window_s == 17.0
    assert controller.retunes == 5


def test_make_controller_returns_none_for_immediate_dispatch():
    assert make_window_controller(SimulationConfig()) is None


def test_make_controller_builds_adaptive_from_config():
    config = SimulationConfig(
        batch_window_s=10.0,
        adaptive_window=True,
        window_min_s=5.0,
        window_max_s=30.0,
    )
    controller = make_window_controller(config)
    assert isinstance(controller, AdaptiveWindowController)
    assert controller.window_s == 10.0
    assert (controller.window_min_s, controller.window_max_s) == (5.0, 30.0)


# ----------------------------------------------------------------------
# Adaptive law: intensity EWMA -> window, clamped
# ----------------------------------------------------------------------
def test_first_flush_holds_initial_window():
    c = _controller()
    c.on_flush(0.0, new_arrivals=3)
    # One flush = no elapsed interval yet, so no intensity sample.
    assert c.intensity_ewma is None
    assert c.window_s == 10.0


def test_window_shrinks_off_peak_and_grows_at_peak():
    c = _controller(ewma_alpha=1.0)  # no smoothing: direct response
    c.on_flush(0.0, new_arrivals=0)
    # Dead quiet: the window collapses to the band floor.
    c.on_flush(10.0, new_arrivals=0)
    assert c.window_s == 5.0
    # Mid load: 1 request per 10 s vs saturation 12/30 = 0.4 req/s —
    # a quarter of the way up the ramp.
    c.on_flush(20.0, new_arrivals=1)
    assert c.window_s == pytest.approx(5.0 + 25.0 * (0.1 / 0.4))
    # Rush hour: arrivals at/above saturation pin the window at max.
    c.on_flush(c.window_s + 20.0, new_arrivals=1000)
    assert c.window_s == 30.0


def test_window_is_clamped_to_the_band_under_burst_and_silence():
    c = _controller(ewma_alpha=1.0)
    c.on_flush(0.0, new_arrivals=0)
    c.on_flush(10.0, new_arrivals=10_000)  # extreme burst
    assert c.window_s == 30.0  # never above max
    c.on_flush(40.0, new_arrivals=0)  # dead silence
    assert c.window_s == 5.0  # never below min
    assert 5.0 <= c.window_s <= 30.0


def test_ewma_smooths_the_intensity_signal():
    direct = _controller(ewma_alpha=1.0)
    smooth = _controller(ewma_alpha=0.2)
    for c in (direct, smooth):
        c.on_flush(0.0, new_arrivals=0)
        c.on_flush(10.0, new_arrivals=1)  # low intensity baseline
    for c in (direct, smooth):
        c.on_flush(20.0, new_arrivals=6)  # sudden burst (0.6 req/s)
    # The smoothed controller reacts, but less than the direct one.
    assert smooth.window_s < direct.window_s
    assert smooth.window_s > 5.0


def test_controller_is_deterministic_given_the_same_inputs():
    """Same flush history -> same trajectory: the controller keeps no
    hidden wall-clock or RNG state on the intensity channel."""
    history = [(0.0, 2), (10.0, 7), (16.0, 1), (21.0, 40), (51.0, 3)]
    a, b = _controller(), _controller()
    trajectory_a, trajectory_b = [], []
    for now, arrivals in history:
        a.on_flush(now, arrivals)
        trajectory_a.append(a.window_s)
        b.on_flush(now, arrivals)
        trajectory_b.append(b.window_s)
    assert trajectory_a == trajectory_b


# ----------------------------------------------------------------------
# Real-time guard (the measured wall-clock channel)
# ----------------------------------------------------------------------
def test_latency_guard_is_dormant_at_simulation_scale():
    c = _controller(ewma_alpha=1.0, latency_headroom=0.5)
    c.on_flush(0.0, new_arrivals=0)
    c.observe_quote_stage(0.002)  # milliseconds of quote work
    c.on_flush(10.0, new_arrivals=0)
    assert c.window_s == 5.0
    assert c.guard_engagements == 0


def test_latency_guard_raises_the_window_floor():
    """If measured quote wall time approaches the window's real-time
    budget, the floor rises so a deployment can keep up."""
    c = _controller(ewma_alpha=1.0, latency_headroom=0.5)
    c.on_flush(0.0, new_arrivals=0)
    c.observe_quote_stage(6.0)  # 6 s of quoting vs a 5 s target window
    c.on_flush(10.0, new_arrivals=0)
    assert c.guard_engagements == 1
    assert c.window_s == pytest.approx(12.0)  # 6.0 / 0.5
    # The guard never pushes past the band's ceiling.
    c.observe_quote_stage(1000.0)
    c.on_flush(22.0, new_arrivals=0)
    assert c.window_s == 30.0


# ----------------------------------------------------------------------
# Construction and config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "overrides",
    [
        {"window_min_s": 0.0},
        {"window_min_s": 40.0},  # min > max
        {"initial_window_s": 2.0},  # outside the band
        {"initial_window_s": 31.0},
        {"ewma_alpha": 1.5},
        {"ewma_alpha": 0.0},
        {"target_batch": 0.0},
        {"latency_headroom": 0.0},
    ],
)
def test_controller_rejects_bad_parameters(overrides):
    with pytest.raises(ValueError):
        _controller(**overrides)


def test_config_adaptive_requires_batched_dispatch():
    with pytest.raises(ValueError, match="batch_window_s > 0"):
        SimulationConfig(
            adaptive_window=True, window_min_s=5.0, window_max_s=30.0
        )


def test_config_adaptive_requires_the_band():
    with pytest.raises(ValueError, match="window_min_s and"):
        SimulationConfig(batch_window_s=10.0, adaptive_window=True)


def test_config_initial_window_must_lie_inside_the_band():
    with pytest.raises(ValueError, match="must lie inside"):
        SimulationConfig(
            batch_window_s=40.0,
            adaptive_window=True,
            window_min_s=5.0,
            window_max_s=30.0,
        )


def test_config_band_without_adaptive_is_rejected():
    with pytest.raises(ValueError, match="adaptive_window=True"):
        SimulationConfig(batch_window_s=10.0, window_min_s=5.0)


def test_config_max_window_must_respect_wait_budget():
    from repro.core.constraints import ConstraintConfig

    with pytest.raises(ValueError, match="waiting-time guarantee"):
        SimulationConfig(
            batch_window_s=10.0,
            adaptive_window=True,
            window_min_s=5.0,
            window_max_s=130.0,
            constraints=ConstraintConfig.from_minutes(2, 20),
        )


def test_config_carry_over_requires_batched_dispatch():
    with pytest.raises(ValueError, match="carry_over requires"):
        SimulationConfig(carry_over=True)
