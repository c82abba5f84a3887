"""Exception types raised by the gathering planner and evaluator."""


class GatheringError(Exception):
    """Base class for all errors raised by this package."""


class EmptySetError(GatheringError):
    """An operation that needs at least one point received none."""


class AllCoincidentError(GatheringError):
    """All input points coincide where distinct points are required."""


class DegenerateError(GatheringError):
    """Input is degenerate for the requested operation (e.g. collinear triangle)."""


class TooSmallError(GatheringError):
    """Too few robots for the requested operation."""


class TooLargeError(GatheringError):
    """Too many robots for the requested operation."""


class WrongBudgetError(GatheringError):
    """(n, F) is outside the planner's budget, its PLANNERS row's applies."""


class BadParamsError(GatheringError):
    """A tuning parameter is out of its valid range."""


class SubsetNeverGathersError(GatheringError):
    """A reliable subset never gathers within the schedule horizon."""


class DegenerateRatioError(GatheringError):
    """Competitive ratio is undefined: optimal time is zero but the subset never gathers."""
