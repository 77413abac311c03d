"""Load-driven batch-window autotuning.

A fixed ``batch_window_s`` is a compromise: off-peak it makes every
request wait out a window sized for rush hour; in rush hour it may give
the solver batches too small for global matching to pay off. Simonetto
et al. (*Real-time City-scale Ridesharing via Linear Assignment
Problems*) adapt the batch length to the observed load instead; this
module is that controller for the batched flush.

Two controllers share one duck-typed interface (a ``window_s``
attribute, :meth:`on_flush` and :meth:`observe_quote_stage` hooks,
called by the simulator at the start of every ``BATCH_DISPATCH`` flush
and after its quote stage respectively):

* :class:`FixedWindowController` — the degenerate controller: echoes the
  configured ``batch_window_s`` constant unchanged, so a run with
  ``adaptive_window=False`` schedules exactly the same flush instants
  as before the controller existed (bit-identical; pinned in
  ``tests/test_contracts.py``).
* :class:`AdaptiveWindowController` — retunes the window each flush from
  an EWMA of request arrival intensity, clamped to
  ``[window_min_s, window_max_s]``: short windows off-peak (requests are
  answered quickly; with idle vehicles around, global matching has
  little to add), long windows in rush hour (bigger batches let the
  linear-assignment round resolve conflicts over scarce vehicles
  globally).

Determinism
-----------

The intensity channel reads only *simulated* facts — arrival counts and
flush instants — so the window trajectory is a pure function of the
request stream (deterministic given the seed; see
``docs/determinism.md``). The *measured* channel
(:meth:`observe_quote_stage`, fed the quote stage's wall-clock seconds)
drives a real-time safety guard only: it raises the window floor when
quote work approaches the window's real-time budget, which at
simulation scale (quote milliseconds vs window seconds) never engages —
``guard_engagements`` records it if it ever does.
"""

from __future__ import annotations


class FixedWindowController:
    """Echoes the configured window constant (adaptive off).

    Exists so the simulator has exactly one scheduling code path: with
    adaptive tuning disabled this controller returns the *same float
    object* the config carries, making the flush chain bit-identical
    to the pre-controller arithmetic.
    """

    __slots__ = ("window_s", "retunes")

    def __init__(self, window_s: float):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        #: Flushes observed (mirrors the adaptive controller's counter).
        self.retunes = 0

    def on_flush(self, now: float, new_arrivals: int) -> None:
        """Per-flush hook; the fixed controller only counts."""
        self.retunes += 1

    def observe_quote_stage(self, quote_wall_seconds: float) -> None:
        """Measured-channel hook; ignored — nothing to guard."""

    def __repr__(self) -> str:
        return f"FixedWindowController(window_s={self.window_s:g})"


class AdaptiveWindowController:
    """Retunes ``window_s`` each flush from arrival-intensity feedback.

    Parameters
    ----------
    initial_window_s:
        Window used until the first intensity sample exists (the
        configured ``batch_window_s``; must lie inside the band).
    window_min_s / window_max_s:
        The clamp band. The target law is a saturating ramp between
        them: ``window = min + (max - min) * min(1, ewma / saturation)``
        where ``saturation = target_batch / window_max_s`` — i.e. the
        window reaches ``max`` exactly when the arrival intensity would
        fill a maximal window with ``target_batch`` requests.
    ewma_alpha:
        Smoothing weight of the newest intensity sample (1 = no
        smoothing).
    target_batch:
        Batch size at which a maximal window saturates (sets the ramp
        slope).
    latency_headroom:
        Real-time guard: if the EWMA of *measured* quote wall seconds
        exceeds ``latency_headroom * window``, the window floor is
        raised to ``quote_ewma / latency_headroom`` (clamped to the
        band) so a deployment never schedules flushes faster than it
        can quote them. Dormant at simulation scale — this is the only
        wall-clock input, and ``guard_engagements`` counts it.
    """

    __slots__ = (
        "window_s",
        "window_min_s",
        "window_max_s",
        "ewma_alpha",
        "target_batch",
        "latency_headroom",
        "retunes",
        "guard_engagements",
        "_intensity_ewma",
        "_quote_ewma",
        "_last_flush_at",
    )

    def __init__(
        self,
        initial_window_s: float,
        window_min_s: float,
        window_max_s: float,
        ewma_alpha: float = 0.3,
        target_batch: float = 12.0,
        latency_headroom: float = 0.5,
    ):
        if not 0 < window_min_s <= window_max_s:
            raise ValueError("need 0 < window_min_s <= window_max_s")
        if not window_min_s <= initial_window_s <= window_max_s:
            raise ValueError(
                "initial_window_s must lie inside [window_min_s, window_max_s]"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if target_batch <= 0:
            raise ValueError("target_batch must be positive")
        if latency_headroom <= 0:
            raise ValueError("latency_headroom must be positive")
        self.window_min_s = window_min_s
        self.window_max_s = window_max_s
        self.ewma_alpha = ewma_alpha
        self.target_batch = target_batch
        self.latency_headroom = latency_headroom
        self.window_s = initial_window_s
        self.retunes = 0
        self.guard_engagements = 0
        self._intensity_ewma: float | None = None
        self._quote_ewma: float | None = None
        self._last_flush_at: float | None = None

    # ------------------------------------------------------------------
    @property
    def saturation_intensity(self) -> float:
        """Arrival intensity (req/s) at which the window saturates at
        ``window_max_s`` (= ``target_batch / window_max_s``)."""
        return self.target_batch / self.window_max_s

    @property
    def intensity_ewma(self) -> float | None:
        """Current smoothed arrival intensity (req/s); ``None`` until
        two flushes have been observed."""
        return self._intensity_ewma

    def on_flush(self, now: float, new_arrivals: int) -> None:
        """Fold one flush's arrivals in and retune the window.

        ``new_arrivals`` counts requests that entered the window since
        the previous flush (carry-over re-entries excluded — they were
        counted at their original arrival, and double-counting them
        would read backlog as fresh demand). Called at the *start* of
        the flush handler, so the returned window paces the very next
        flush.
        """
        if self._last_flush_at is not None:
            elapsed = now - self._last_flush_at
            if elapsed > 0:
                sample = new_arrivals / elapsed
                if self._intensity_ewma is None:
                    self._intensity_ewma = sample
                else:
                    a = self.ewma_alpha
                    self._intensity_ewma = (
                        a * sample + (1.0 - a) * self._intensity_ewma
                    )
        self._last_flush_at = now
        self.retunes += 1
        self.window_s = self._target_window()

    def observe_quote_stage(self, quote_wall_seconds: float) -> None:
        """Fold one flush's *measured* quote-stage wall time into the
        real-time guard's EWMA (the controller's only wall-clock input)."""
        if quote_wall_seconds < 0:
            return
        if self._quote_ewma is None:
            self._quote_ewma = quote_wall_seconds
        else:
            a = self.ewma_alpha
            self._quote_ewma = a * quote_wall_seconds + (1.0 - a) * self._quote_ewma

    def _target_window(self) -> float:
        if self._intensity_ewma is None:
            base = self.window_s  # no sample yet: hold
        else:
            frac = min(1.0, self._intensity_ewma / self.saturation_intensity)
            base = self.window_min_s + (self.window_max_s - self.window_min_s) * frac
        if (
            self._quote_ewma is not None
            and self._quote_ewma > self.latency_headroom * base
        ):
            # Real-time floor: never schedule flushes faster than the
            # quote stage can keep up with (dormant at sim scale).
            self.guard_engagements += 1
            base = self._quote_ewma / self.latency_headroom
        return min(self.window_max_s, max(self.window_min_s, base))

    def __repr__(self) -> str:
        return (
            f"AdaptiveWindowController(window_s={self.window_s:.3f}, "
            f"band=[{self.window_min_s:g}, {self.window_max_s:g}], "
            f"intensity_ewma={self._intensity_ewma}, "
            f"retunes={self.retunes})"
        )


def make_window_controller(config):
    """Build the window controller a :class:`~repro.sim.config.
    SimulationConfig` asks for (``None`` for immediate dispatch)."""
    if config.batch_window_s <= 0:
        return None
    if not config.adaptive_window:
        return FixedWindowController(config.batch_window_s)
    return AdaptiveWindowController(
        initial_window_s=config.batch_window_s,
        window_min_s=config.window_min_s,
        window_max_s=config.window_max_s,
        ewma_alpha=config.adaptive_ewma_alpha,
        target_batch=config.adaptive_target_batch,
        latency_headroom=config.adaptive_latency_headroom,
    )
