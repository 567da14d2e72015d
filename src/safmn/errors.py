"""Exception hierarchy shared across the package."""


class SafmnError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SafmnError, ValueError):
    """Tensor shapes are incompatible with the requested operation."""


class ConfigError(SafmnError, ValueError):
    """A configuration value is missing, unknown, or out of range."""


class DataError(SafmnError, ValueError):
    """Input data (images, directories, datasets) is unusable."""


class DecodeError(DataError):
    """An image file is malformed."""


class UnsupportedFormatError(DecodeError):
    """An image file is valid but uses an unsupported encoding."""


class FormatError(SafmnError, ValueError):
    """A checkpoint file is malformed.

    Carries the byte offset at which parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class TrainingError(SafmnError, RuntimeError):
    """Training or inference hit non-finite numbers (loss, gradients, output)."""
