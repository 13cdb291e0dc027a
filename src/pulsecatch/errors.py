"""Exception and warning types shared across the package."""


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
