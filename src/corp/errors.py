"""Exception taxonomy shared across the package.

Every error carries a machine-readable ``category`` that the CLI maps to an
exit code: argument -> 2, format -> 3, shape -> 4.
"""


class CorpError(Exception):
    """Base class for all errors raised by this package."""

    category = "internal"


class ArgumentError(CorpError, ValueError):
    """Invalid argument value (bad k, negative weight, unknown decoder...)."""

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


class DegenerateInputError(ArgumentError):
    """Input is degenerate for the requested operation (e.g. an empty union)."""


class DecoderNotFoundError(ArgumentError):
    """Requested decoder name is not in ``corp.decoder.DECODERS``."""


class FormatError(CorpError, ValueError):
    """Malformed file content."""

    category = "format"


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class UnsupportedVersionError(FormatError):
    """File declares a format version this reader does not understand."""


class UnsupportedDtypeError(FormatError):
    """File declares an element type this reader does not understand."""


class TruncatedPayloadError(FormatError):
    """Payload byte count does not match the declared dimensions."""


class PgmFormatError(FormatError):
    """Not a binary P5 PGM with maxval 255."""
