"""Exception and warning types shared across the package, and the bracket
test that keeps scipy's root finder from raising an untyped error."""


class PulsecatchError(Exception):
    """Base of the package's typed failures; anything else is a bug."""


class DomainError(PulsecatchError, ValueError):
    """An input lies outside the documented domain of an operation."""


class NoThreshold(PulsecatchError, RuntimeError):
    """Stage-1 dynamics never reach the threshold population in the search window."""


class InfeasibleSchedule(PulsecatchError, RuntimeError):
    """No physical coupling schedule with 0 <= kappa <= kappa_max could be built."""


class SingularCoupling(PulsecatchError, ArithmeticError):
    """Coupling law evaluated where the stored population is not positive."""


class StepFailure(PulsecatchError, RuntimeError):
    """The adaptive integrator could not satisfy the requested tolerance."""

    def __init__(self, message: str, tau: float | None = None):
        super().__init__(message)
        self.tau = tau


class NoPeak(PulsecatchError, RuntimeError):
    """The input rate never falls below the intrinsic-loss rate of the stored population."""


class BoundaryMaximumWarning(UserWarning):
    """A maximizer landed on an edge of the scanned range instead of the interior."""


def brackets_root(f_lo: float, f_hi: float) -> bool:
    """Whether scipy's brentq takes a bracket whose ends have these values:
    neither is nan, and one is 0 or they differ in sign. Where it does not,
    brentq raises a bare ValueError; callers raise their typed error instead.
    """
    if f_lo != f_lo or f_hi != f_hi:
        return False
    return f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) != (f_hi < 0.0)
