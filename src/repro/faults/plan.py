"""The fault-spec grammar: parse a ``--fault-spec`` string into a plan.

A fault plan is a comma-separated list of clauses::

    spec    := clause ("," clause)*
    clause  := site ":" kind ":" trigger [":" delay_s]
    trigger := rate | "@" N | "%" N

* ``site`` names where the fault fires — one of :data:`FAULT_SITES`;
* ``kind`` is what happens — one of :data:`FAULT_KINDS`: ``crash``
  raises :class:`~repro.exceptions.FaultInjectedError` inside the task,
  ``delay`` stalls it for ``delay_s`` seconds (virtually — charged
  against the flush's deadline budget, never slept);
* ``trigger`` decides *when*: a float ``rate`` in ``[0, 1]`` is a
  Bernoulli draw per opportunity from that clause's own seeded RNG
  stream, ``@N`` fires exactly once at the N-th opportunity, ``%N``
  fires at every N-th opportunity (both 1-based);
* ``delay_s`` is required for (and only legal with) ``kind=delay``.

Examples::

    quote.task:crash:0.05
    engine.distance_many:crash:@1
    quote.task:delay:0.05:0.02,engine.distance_many:crash:%200

An empty or ``None`` spec parses to the empty plan — the armed-but-idle
injector built from it is a literal no-op, which is what determinism
contract 10 pins (``docs/determinism.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Named injection sites, each drawn at one deterministic point:
#: ``quote.task`` per quote-column attempt, ``engine.distance_many`` per
#: engine fan-out *inside a quote window* (see
#: ``FaultInjector.engine_window``).
FAULT_SITES = ("quote.task", "engine.distance_many")

#: Fault kinds a clause can inject.
FAULT_KINDS = ("crash", "delay")


@dataclass(frozen=True, slots=True)
class FaultClause:
    """One parsed clause of a fault plan."""

    site: str
    kind: str
    #: Bernoulli probability per opportunity (exclusive with every/at).
    rate: float | None = None
    #: Fire at every N-th opportunity (``%N``).
    every: int | None = None
    #: Fire exactly once, at the N-th opportunity (``@N``).
    at: int | None = None
    #: Injected stall in seconds (``kind == "delay"`` only).
    delay_s: float = 0.0

    def label(self) -> str:
        if self.rate is not None:
            trigger = f"{self.rate:g}"
        elif self.every is not None:
            trigger = f"%{self.every}"
        else:
            trigger = f"@{self.at}"
        tail = f":{self.delay_s:g}" if self.kind == "delay" else ""
        return f"{self.site}:{self.kind}:{trigger}{tail}"


@dataclass(frozen=True)
class FaultPlan:
    """A parsed fault spec: an ordered tuple of clauses.

    Clause order matters twice: each clause gets its own seeded RNG
    stream keyed by its index (adding a clause never perturbs the draws
    of the ones before it), and when several clauses fire at the same
    opportunity the first one listed wins.
    """

    clauses: tuple[FaultClause, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.clauses

    def sites(self) -> frozenset[str]:
        return frozenset(c.site for c in self.clauses)

    def indexed_clauses_for(self, site: str) -> list[tuple[int, FaultClause]]:
        """Clauses targeting ``site``, with their plan-wide indices (the
        RNG stream keys)."""
        return [(i, c) for i, c in enumerate(self.clauses) if c.site == site]


def _parse_clause(text: str) -> FaultClause:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            f"fault clause {text!r} must look like "
            "'site:kind:trigger[:delay_s]' (see docs/robustness.md)"
        )
    site, kind, trigger = parts[0].strip(), parts[1].strip(), parts[2].strip()
    if site not in FAULT_SITES:
        known = ", ".join(FAULT_SITES)
        raise ValueError(f"unknown fault site {site!r}; known: {known}")
    if kind not in FAULT_KINDS:
        known = ", ".join(FAULT_KINDS)
        raise ValueError(f"unknown fault kind {kind!r}; known: {known}")

    rate = every = at = None
    if trigger.startswith("@") or trigger.startswith("%"):
        try:
            n = int(trigger[1:])
        except ValueError:
            raise ValueError(
                f"fault trigger {trigger!r} needs an integer after "
                f"{trigger[0]!r}"
            ) from None
        if n < 1:
            raise ValueError(f"fault trigger {trigger!r} must use N >= 1")
        if trigger[0] == "@":
            at = n
        else:
            every = n
    else:
        try:
            rate = float(trigger)
        except ValueError:
            raise ValueError(
                f"fault trigger {trigger!r} must be a rate in [0, 1], "
                "'@N' (one-shot) or '%N' (every N-th)"
            ) from None
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate {rate:g} must be in [0, 1]")

    delay_s = 0.0
    if kind == "delay":
        if len(parts) != 4:
            raise ValueError(
                f"delay clause {text!r} needs a delay: 'site:delay:rate:seconds'"
            )
        try:
            delay_s = float(parts[3])
        except ValueError:
            raise ValueError(
                f"delay seconds {parts[3]!r} must be a number"
            ) from None
        if delay_s <= 0:
            raise ValueError("delay seconds must be positive")
    elif len(parts) == 4:
        raise ValueError(
            f"clause {text!r}: only delay clauses take a fourth field"
        )
    return FaultClause(
        site=site, kind=kind, rate=rate, every=every, at=at, delay_s=delay_s
    )


def parse_fault_spec(spec: str | None) -> FaultPlan:
    """Parse a fault-spec string; ``None``/blank yields the empty plan."""
    if spec is None or not spec.strip():
        return FaultPlan()
    clauses = tuple(
        _parse_clause(chunk)
        for chunk in spec.split(",")
        if chunk.strip()
    )
    return FaultPlan(clauses=clauses)
