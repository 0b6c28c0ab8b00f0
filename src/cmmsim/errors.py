"""Exception types shared across the package."""


class CmmError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(CmmError, ValueError):
    """A physical parameter violates its domain.

    ``violations`` holds one human-readable string per violated invariant.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConfigError(CmmError, ValueError):
    """A config document could not be parsed; message carries line numbers."""


class SingularityError(CmmError, ArithmeticError):
    """An analytic expression was evaluated at (or too close to) a pole."""


class NoSteadyStateError(CmmError, RuntimeError):
    """No admissible steady state exists for the requested parameters."""


class UnstableSystemError(NoSteadyStateError):
    """The drift matrix has a non-negative spectral abscissa; the
    fluctuation dynamics admit no stationary covariance."""


class NumericalError(CmmError, RuntimeError):
    """A numerical routine failed a verifiable accuracy contract."""


class NoStablePointError(CmmError, RuntimeError):
    """A search over parameters found no stable operating point."""
