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
    """The data cannot support the requested estimate: too few kept segments,
    a singular cross-spectral system, a non-positive coherence denominator,
    spectra on different grids, a band off the grid, or a fit target with
    non-positive values or no usable uncertainty."""

    exit_code = 4


class ModelError(QndError):
    """The model cannot be evaluated at the given parameters: a solver that
    does not settle, a susceptibility at or past an instability, or a
    closed form evaluated outside its domain."""

    exit_code = 5
