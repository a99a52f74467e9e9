"""Exception taxonomy shared across the package.

Every error carries a machine-readable ``category`` that the CLI maps to an
exit code: argument -> 2, format -> 3, shape -> 4.
"""


class CorpError(Exception):
    """Base class for all errors raised by this package."""

    category = "internal"


class ArgumentError(CorpError, ValueError):
    """Invalid argument value (bad k, negative weight, unknown decoder, empty IoU union...)."""

    category = "argument"


class ShapeError(CorpError, ValueError):
    """Dimension or resolution mismatch between tensors."""

    category = "shape"


class RangeViolationError(ShapeError):
    """Value outside its documented range; message names the first offender,
    and ``image`` its index in the group when the check knows it."""

    def __init__(self, message: str, image: int | None = None):
        super().__init__(message)
        self.image = image


class FormatError(CorpError, ValueError):
    """Malformed file content: a CRPT file with a bad magic, version, dtype or
    payload size, or a PGM that is not binary P5 with maxval 255."""

    category = "format"
