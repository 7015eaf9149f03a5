"""Exception hierarchy.

Numerical failures (eigenvalue hits, failed searches, accuracy loss) share a
base class so the CLI can map them to a single exit code, distinct from
configuration problems.
"""


class BdmError(Exception):
    """Base class for all library errors."""


class DomainError(BdmError, ValueError):
    """An argument is outside the operation's stated domain."""


class ConfigError(BdmError, ValueError):
    """A problem configuration file or option is invalid."""


class NumericalError(BdmError):
    """Base class for runtime numerical failures (CLI exit code 2)."""


class EigenvalueHitError(NumericalError):
    """The spectral parameter z sits (numerically) on the spectrum."""

    def __init__(self, message, z=None, operator=""):
        super().__init__(message)
        self.z = z
        self.operator = operator


class NearEigenvalueError(EigenvalueHitError):
    """An auxiliary normalization denominator is below the scale floor."""


class PoleHitError(NumericalError):
    """A scalar m-function denominator vanished at the requested point."""


class StiffnessError(NumericalError):
    """Adaptive step size underflowed during propagation."""


class SearchFailureError(NumericalError):
    """Eigenvalue search missed roots (bracket/contour count mismatch)."""


class ContourError(NumericalError):
    """A zero of the characteristic determinant lies on (or too near) the
    integration contour."""

    def __init__(self, message, suggested_inflation=1.5):
        super().__init__(message)
        self.suggested_inflation = suggested_inflation


class AccuracyError(NumericalError):
    """An extrapolation or cross-check failed to reach its tolerance, or a
    value at (z, x) does not fit in a double."""

    def __init__(self, message, z=None, x=None):
        super().__init__(message)
        self.z = z
        self.x = x


class DegenerateError(NumericalError):
    """A formula's nondegeneracy hypothesis fails (m- = m+, singular
    denominator of a linear fractional transformation, ...)."""
