"""Exception types shared across the package."""

__all__ = ["DataError", "NumericalRankError", "PixmapParseError"]


class DataError(Exception):
    """Raised when an input file or data payload is malformed or unusable."""


class PixmapParseError(DataError):
    """Malformed portable pixmap; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class NumericalRankError(ValueError):
    """A least-squares system is numerically singular; increase the damping."""
