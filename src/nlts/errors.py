"""Exception types shared across the codec."""


class CodecError(Exception):
    """Base class for all nlts errors."""


# --- sample / quantization ---

class NonFiniteSample(CodecError):
    """A sample is NaN or infinite."""

    def __init__(self, index, value):
        super().__init__(f"non-finite sample at index {index}: {value!r}")
        self.index = index
        self.value = value


class OverflowAtScale(CodecError):
    """A scaled sample does not fit a signed 64-bit integer."""

    def __init__(self, index, value, digits):
        super().__init__(
            f"sample at index {index} ({value!r}) overflows 64-bit range at {digits} digits"
        )
        self.index = index
        self.value = value
        self.digits = digits


class TooManyDigits(CodecError):
    """Lossless mode saw more fractional digits than the supported maximum."""


class LengthMismatch(CodecError, ValueError):
    """Two sample streams that should match differ in length."""


# --- serialization / streams ---

class CorruptStream(CodecError):
    """Entropy stream or block stream is damaged."""


class BadMagic(CodecError):
    """File does not start with the container magic."""


class UnsupportedVersion(CodecError):
    """Container declares a format/method/coder this build does not know."""


# --- dataset ingestion ---

class MissingColumn(CodecError):
    """Requested column is absent from the file."""


class UnparseableRow(CodecError):
    """A row's value token is not a number."""

    def __init__(self, row, token):
        super().__init__(f"row {row}: cannot parse value {token!r}")
        self.row = row
        self.token = token


class MissingValue(CodecError):
    """A missing value was hit under the Fail policy."""

    def __init__(self, row):
        super().__init__(f"row {row}: missing value")
        self.row = row
