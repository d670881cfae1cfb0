"""Exception hierarchy: four families, each carrying its CLI exit code."""


class QndError(Exception):
    """Base class for all package-specific errors."""

    exit_code: int


class ConfigError(QndError):
    """Invalid or inconsistent configuration values."""

    exit_code = 2


class FormatError(QndError):
    """A dataset file failed structural validation."""

    exit_code = 3


class StatisticsError(QndError):
    """The data cannot support the requested estimate."""

    exit_code = 4


class ModelError(QndError):
    """The model cannot be evaluated at the given parameters."""

    exit_code = 5


class TooFewSegments(StatisticsError):
    """Not enough kept segments for a split-based estimator."""


class SingularCrossMatrix(StatisticsError):
    """The two-channel cross-spectral system is rank deficient."""


class DegenerateDenominator(StatisticsError):
    """A coherence denominator is non-positive."""


class GridMismatch(StatisticsError):
    """Two spectra do not share a frequency grid."""


class InsufficientBand(StatisticsError):
    """A required calibration band falls outside the available grid."""


class DegenerateTarget(StatisticsError):
    """A fit target carries no usable uncertainty information."""


class NonConvergence(ModelError):
    """An iterative solver failed to settle within its budget."""


class DivergentSusceptibility(ModelError):
    """The effective mechanical response is at or past an instability."""


class DomainError(ModelError):
    """A closed-form expression was evaluated outside its domain."""
