"""Exception types shared across the package."""


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
