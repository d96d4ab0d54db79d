"""Exception types shared across the library."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DataFormatError(ValueError):
    """A dataset file is malformed; carries the byte offset when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ModelFormatError(ValueError):
    """A model file is malformed: bad magic, version, checksum or truncation."""


class NumericError(ArithmeticError):
    """NaN or divergence detected during computation."""
