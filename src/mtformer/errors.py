"""Shared exception types.

Every failure mode raised on purpose by this package goes through one of
these classes, all derived from ``MtformerError``, so callers (and the CLI)
can tell a shape bug from a bad config file from a corrupt dataset.
"""


class MtformerError(Exception):
    """Base of every typed error this package raises on purpose."""


class DimensionError(MtformerError, ValueError):
    """Operand shapes are incompatible; the message names both shapes."""


class ConfigurationError(MtformerError, ValueError):
    """A config value or option violates a documented constraint."""


class DataError(MtformerError, ValueError):
    """Runtime data is out of contract (labels out of range, empty split, ...)."""


class FormatError(MtformerError, ValueError):
    """A serialized file does not match its binary layout; names the offset."""


class OracleError(MtformerError, RuntimeError):
    """A verification routine could not produce a trustworthy reference value."""


class NumericsError(MtformerError, RuntimeError):
    """Training hit a non-finite loss or gradient; the message says where."""
