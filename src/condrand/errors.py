"""Exception types shared across the package."""


class CondrandError(Exception):
    """Base class for errors raised by this package."""


class InfeasibleError(CondrandError, ValueError):
    """A conditioning event has probability zero under the given design.

    Raised when a requested treatment count, schedule, or intermediate
    state cannot be reached by the randomization procedure.
    """


class InsufficientAcceptancesError(CondrandError, RuntimeError):
    """Rejection sampling produced no sequences satisfying the condition."""


class UnderSampleError(CondrandError, RuntimeError):
    """Too few sequences survived prior boundaries to estimate the next one.

    Increase the per-stage Monte Carlo sample size.
    """


class DegenerateScoresError(CondrandError, ValueError):
    """A score vector produced a zero variance quadratic form."""


class NumericalError(CondrandError):
    """A numerical guard failed: a probability or an exact count came out
    where the mathematics does not allow it."""
