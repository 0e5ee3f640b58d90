"""Exception types shared across the package, and the one error model.

* A value that breaks a rule of the type holding it, or a library caller's
  bad argument, raises ``ValueError``; ``config.build`` turns it into a
  ``ConfigError`` that names its location.
* ``ConfigError``: an unusable setting, such as a config that cannot be read
  or built, an unreadable replay, an unwritable ``--out`` or an address that
  cannot be bound. The CLI exits 1.
* Telemetry raises ``ParseError`` or ``SchemaError``.
* ``InsufficientData``, data an analysis cannot compute from, and every
  other ``BuoyancyError`` make the CLI exit 2.
"""

from typing import Optional


class BuoyancyError(Exception):
    """Base class for the errors this package defines; a rule or argument violation is a ``ValueError``."""


class ParseError(BuoyancyError):
    """A telemetry line could not be parsed.

    Carries the 1-based line number of the offending input line.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SchemaError(BuoyancyError):
    """A telemetry record violates the schema.

    Carries the name of the offending field and, for a replay record, the
    1-based line number of its input line (None otherwise).
    """

    def __init__(self, field: str, message: str = "", line: Optional[int] = None):
        text = f"field {field!r}: {message}" if message else f"field {field!r}"
        super().__init__(text if line is None else f"line {line}: {text}")
        self.field, self.message, self.line = field, message, line


class InsufficientData(BuoyancyError):
    """Not enough segments or samples to run an analysis."""


class ConfigError(BuoyancyError):
    """A configuration or deployment setting is missing, invalid or unusable."""
