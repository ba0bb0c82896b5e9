"""Exception taxonomy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 1, data/stream errors -> 2,
numerical/statistics errors -> 3.
"""


class SafestreamError(Exception):
    """Base class for all package errors."""


class ConfigError(SafestreamError):
    """Invalid or infeasible configuration."""


class DataError(SafestreamError):
    """Input file cannot be parsed into a dataset."""


class StreamError(SafestreamError):
    """Deletion stream violates its contract (e.g. would empty the dataset)."""


class StatsError(SafestreamError):
    """Gaussian statistics are degenerate beyond recovery."""


class ClassExhaustionError(StatsError):
    """A deletion would drop a class below the minimum supported count.

    Carries the class index so the caller can freeze that class's statistics
    and continue.
    """

    def __init__(self, label: int, message: str):
        super().__init__(message)
        self.label = label


class NumericalError(SafestreamError):
    """Numerical failure (divergent retrain, non-finite values)."""
