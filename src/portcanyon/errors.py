"""Exception types shared across the toolkit.

Every error raised on a validated code path derives from ToolkitError.  Each
class states the category the CLI prints and the exit code it returns: 3 for
bad input data, 2 for a bad configuration, 4 for any other error.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""

    category = "error"
    exit_code = 4


class DomainError(ToolkitError):
    """An input value is outside the domain an operation is defined on."""

    category = "domain"


class GridError(ToolkitError):
    """An angle grid is malformed, or a scan's angles differ from its set's grid."""

    category = "grid"
    exit_code = 3


class InsufficientDataError(ToolkitError):
    """Not enough samples to compute the requested statistic."""

    category = "data"
    exit_code = 3


class DegenerateFitError(ToolkitError):
    """Regression input is rank deficient (too few distinct abscissae)."""

    category = "fit"


class NoSolutionError(ToolkitError):
    """The requested inversion has no solution (e.g. non-decaying gain model)."""

    category = "fit"


class IngestError(ToolkitError):
    """A measurement CSV could not be parsed or validated."""

    category = "ingest"
    exit_code = 3


class ConfigError(ToolkitError):
    """A configuration file or option value is invalid."""

    category = "config"
    exit_code = 2
