"""Exception types shared across the package."""


class BuoyancyError(Exception):
    """Base class for all errors raised by this package."""


class NonIncreasingCacheSizes(BuoyancyError):
    """Cache sizes are not strictly increasing from L1 to L3."""


class NonPositiveGeometry(BuoyancyError):
    """A topology geometry field is zero or negative."""


class InvalidSlo(BuoyancyError):
    """SLO value is zero or negative."""


class EmptyScoreSet(BuoyancyError):
    """The resource score set is empty."""


class EmptyNode(BuoyancyError):
    """Node aggregation was requested over zero workloads."""


class NonPositiveInput(BuoyancyError):
    """log_change requires strictly positive inputs."""


class ParseError(BuoyancyError):
    """A telemetry line could not be parsed.

    Carries the 1-based line number of the offending input line.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SchemaError(BuoyancyError):
    """A telemetry record violates the schema.

    Carries the name of the offending field.
    """

    def __init__(self, field: str, message: str = ""):
        super().__init__(f"field {field!r}: {message}" if message else f"field {field!r}")
        self.field = field


class CapacityExceeded(BuoyancyError):
    """Requested allocations exceed the node's capacity."""


class InsufficientData(BuoyancyError):
    """Not enough segments or samples to run an analysis."""


class ConfigError(BuoyancyError):
    """Service configuration is missing or invalid."""


class BindError(BuoyancyError):
    """The HTTP listener could not bind its address."""
