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


class TreeBudgetExceeded(ReproError):
    """Raised when a kinetic-tree insertion exceeds its expansion budget —
    the reproduction's analogue of the paper's "can no longer finish in a
    reasonable time or exceeds the imposed memory limit" cutoff in the
    capacity experiments (Fig. 9(c))."""
