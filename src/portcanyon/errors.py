"""Exception types shared across the toolkit.

Every error raised on a validated code path derives from ToolkitError so the
CLI can map failures to a category and a nonzero exit code.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""

    category = "error"


class DomainError(ToolkitError):
    """An input value is outside the domain an operation is defined on."""

    category = "domain"


class GridError(ToolkitError):
    """An angle grid is malformed, or a scan's angles differ from its set's grid."""

    category = "grid"


class InsufficientDataError(ToolkitError):
    """Not enough samples to compute the requested statistic."""

    category = "data"


class DegenerateFitError(ToolkitError):
    """Regression input is rank deficient (too few distinct abscissae)."""

    category = "fit"


class NoSolutionError(ToolkitError):
    """The requested inversion has no solution (e.g. non-decaying gain model)."""

    category = "fit"


class IngestError(ToolkitError):
    """A measurement CSV could not be parsed or validated."""

    category = "ingest"


class ConfigError(ToolkitError):
    """A configuration file or option value is invalid."""

    category = "config"
