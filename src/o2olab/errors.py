"""Exception types shared across the package, and the one check of an
integer config value."""

import numbers


class ShapeError(ValueError):
    """Array widths or shapes do not match what an operation requires."""


class NumericError(RuntimeError):
    """A value that must be finite is NaN or infinite (training blow-up)."""


class EmptyBufferError(RuntimeError):
    """Sampling was requested from a buffer that holds no transitions."""


class DatasetFormatError(ValueError):
    """A dataset directory is damaged: a file is missing, or its columns or
    manifest disagree."""


class ConfigError(ValueError):
    """An experiment or fine-tune configuration is invalid."""


class MissingInputError(FileNotFoundError):
    """A required pipeline input (earlier stage output) is absent."""


def config_int(name: str, value) -> int:
    """``value`` as an int: an integral number (``40`` or ``40.0``) is
    converted; any other value, a bool or a string among them, is a
    ConfigError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")
