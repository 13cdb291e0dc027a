"""Exception and warning types shared across the package, the bracket
test that keeps brentq from raising an untyped error, and the count caps."""

MAX_COUNT = 2 ** 20     # samples, CSV rows or grid-literal points asked for
MAX_CELLS = 2 ** 16     # cells of one fidelity surface: ~5 KB each (Gauss)


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


def brackets_root(f_lo, f_hi):
    """Whether brentq (`pulsecatch._scipy.brentq`, a port of scipy's that
    checks its bracket as scipy does) takes a bracket whose ends have these
    values: neither is nan, and one is 0 or they differ in sign. Where it
    does not, brentq raises a bare ValueError; callers raise their typed
    error instead. Elementwise on arrays.
    """
    return (f_lo == f_lo) & (f_hi == f_hi) & (
        (f_lo == 0.0) | (f_hi == 0.0) | ((f_lo < 0.0) != (f_hi < 0.0)))
