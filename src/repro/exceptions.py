"""Exception hierarchy for the repro library."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class GraphError(ReproError):
    """Raised for malformed graphs or invalid vertex references."""


class DisconnectedError(GraphError):
    """Raised when a shortest-path query has no finite answer."""

    def __init__(self, source, target):
        self.source = source
        self.target = target
        super().__init__(f"no path from vertex {source} to vertex {target}")


class ScheduleError(ReproError):
    """Raised for structurally invalid schedules (e.g. dropoff before pickup)."""


class InfeasibleError(ReproError):
    """Raised when a scheduling algorithm is asked to produce a schedule
    but no valid schedule exists."""


class CapacityError(ReproError):
    """Raised when an operation would exceed a vehicle's seat capacity."""


class AssignmentInfeasibleError(ReproError):
    """Raised by the batch assignment solver when a caller demands a
    complete matching but infeasible cells make some rows unassignable —
    or when an assignment is costed against a pair the matrix marks
    infeasible. Carries the offending row indices so dispatch layers can
    report *which* requests could not be matched instead of silently
    dropping them."""

    def __init__(self, rows, message: str | None = None):
        self.rows = tuple(rows)
        if message is None:
            message = (
                "no feasible assignment for row(s) "
                + ", ".join(str(r) for r in self.rows)
            )
        super().__init__(message)


class SimulationError(ReproError):
    """Raised for inconsistent simulator state (e.g. events out of order)."""


class FaultInjectedError(ReproError):
    """Raised by a deterministic ``crash`` fault (:mod:`repro.faults`).

    Carries the injection site and the opportunity ordinal that fired so
    failure paths under test can assert *which* draw they are handling.
    """

    def __init__(self, site: str, seq: int):
        self.site = site
        self.seq = seq
        super().__init__(f"injected crash at {site} (opportunity {seq})")


class QuoteFailedError(ReproError):
    """Raised when one vehicle's quote column still fails after the
    retry budget is spent. The column is assembled all-infeasible and its
    requests take the fault-carry rung of the degradation ladder; this
    exception is recorded (as a :class:`repro.faults.TaskFailure`), never
    silently swallowed."""

    def __init__(self, vehicle_id: int, attempts: int, cause: BaseException | None = None):
        self.vehicle_id = vehicle_id
        self.attempts = attempts
        self.__cause__ = cause
        super().__init__(
            f"quote column for vehicle {vehicle_id} failed after "
            f"{attempts} attempt(s): {cause!r}"
        )


class FlushDeadlineExceededError(ReproError):
    """Raised when a flush exhausts its deadline budget
    (``flush_deadline_s``): the quote stage stops retrying and the
    simulator downgrades that flush to the greedy policy."""

    def __init__(self, deadline_s: float, spent_s: float):
        self.deadline_s = deadline_s
        self.spent_s = spent_s
        super().__init__(
            f"flush deadline budget exhausted: {spent_s:.3f}s charged "
            f"against a {deadline_s:.3f}s budget"
        )


class TreeBudgetExceeded(ReproError):
    """Raised when a kinetic-tree insertion exceeds its expansion budget —
    the reproduction's analogue of the paper's "can no longer finish in a
    reasonable time or exceeds the imposed memory limit" cutoff in the
    capacity experiments (Fig. 9(c))."""
