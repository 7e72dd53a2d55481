"""Stream-level orchestration: file format, pipeline, and run metrics.

A compressed file is a fixed 24-byte little-endian header followed by one
entropy bit stream covering every block of the file (blocks are serialized
back to back and coded as a single byte payload).  See FORMAT.md for the
normative layout.

Compression ratios are computed against the canonicalized text of the
input: one sample per line, rendered with exactly the stream's number of
fractional digits.  That is also byte-for-byte the text decompression
produces, which keeps the ratio reproducible from the emitted files alone.
quantize_stream sizes that text on the way in; render_stream checks the
decoded codes' 64-bit range, renders them and sizes the text on the way
out, and decompress_stream checks and sizes them without rendering.
"""

from __future__ import annotations

import struct
import time
from collections import namedtuple
from itertools import repeat
from operator import truediv

from . import entropy
from .errors import BadMagic, CorruptStream, UnsupportedVersion
from .quantizer import (
    LOSSLESS,
    MAX_DIGITS,
    canonical_size,
    decoded_range,
    quantize_stream,
    render_stream,
)
from .transform import (
    METHOD_VERSIONS,
    check_block_settings,
    decode_blocks,
    encode_blocks,
    max_stream_bytes,
)

MAGIC = b"NLTS"
FORMAT_VERSION = 1
HEADER_LEN = 24
_HEADER_STRUCT = struct.Struct("<4sBBBBHH4xQ")

#: Header byte marking integer passthrough (lossless stream with no
#: fractional digits); ordinary streams carry their digit count 0..6.
SCALE_PASSTHROUGH = 255


class StreamHeader(namedtuple(
        "StreamHeader", "method_version entropy_id block_len tau scale_exp sample_count")):
    """A container's header fields; a scale_exp of None marks integer passthrough."""

    __slots__ = ()

    def pack(self) -> bytes:
        scale_byte = SCALE_PASSTHROUGH if self.scale_exp is None else self.scale_exp
        return _HEADER_STRUCT.pack(
            MAGIC,
            FORMAT_VERSION,
            self.method_version,
            self.entropy_id,
            scale_byte,
            self.block_len,
            self.tau,
            self.sample_count,
        )

    @classmethod
    def parse(cls, data: bytes) -> "StreamHeader":
        """Validate and unpack the header at the start of a container."""
        if len(data) < 4 or data[:4] != MAGIC:
            raise BadMagic("not a compressed stream (bad magic)")
        if len(data) < HEADER_LEN:
            raise CorruptStream("header truncated")
        _, fmt, method, coder, scale_byte, block_len, tau, count = _HEADER_STRUCT.unpack(
            data[:HEADER_LEN]
        )
        if fmt != FORMAT_VERSION:
            raise UnsupportedVersion(f"format version {fmt} not supported")
        if method not in METHOD_VERSIONS:
            raise UnsupportedVersion(f"method version {method} not supported")
        if coder not in entropy.CODER_NAMES:
            raise UnsupportedVersion(f"entropy coder id {coder} not supported")
        try:
            check_block_settings(method, block_len, tau)
        except ValueError as e:
            raise CorruptStream(f"header {e}") from None
        if scale_byte != SCALE_PASSTHROUGH and scale_byte > MAX_DIGITS:
            raise CorruptStream(f"header scale byte {scale_byte} is invalid")
        if count < 1:
            raise CorruptStream("header sample count must be >= 1")
        scale_exp = None if scale_byte == SCALE_PASSTHROUGH else scale_byte
        return cls(method, coder, block_len, tau, scale_exp, count)


class RunMetrics(namedtuple(
        "RunMetrics", "input_bytes output_bytes seconds max_abs_error", defaults=(None,))):
    """What one call measured: canonical text and container bytes, and the
    codec's own seconds, text I/O excluded; max_abs_error is compress's only."""

    __slots__ = ()

    @property
    def cr(self) -> float:
        return self.input_bytes / self.output_bytes

    @property
    def rate(self) -> float:
        """MB/s of canonical text, MB = 1e6 bytes; 0.0 for a zero time."""
        return self.input_bytes / self.seconds / 1e6 if self.seconds else 0.0


class CodecConfig(namedtuple(
        "CodecConfig", "method_version coder block_len tau digits",
        defaults=(2, entropy.ADAPTIVE_ARITHMETIC, 16, 9, 3))):
    """The codec's five settings; digits is 0..MAX_DIGITS or LOSSLESS.

    A block setting of the wrong type or range, or bad digits, raises
    ValueError; an unknown coder id raises UnsupportedVersion.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks its values

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_block_settings(self.method_version, self.block_len, self.tau)
        d = self.digits
        if d != LOSSLESS and (type(d) is not int or not 0 <= d <= MAX_DIGITS):
            raise ValueError(f"digits must be 0..{MAX_DIGITS} or {LOSSLESS!r}, got {d!r}")
        if self.coder not in entropy.CODER_NAMES:
            raise UnsupportedVersion(f"unknown entropy coder id {self.coder}")
        return self


def compress_stream(samples, config: CodecConfig = CodecConfig()):
    """Compress a sample stream; returns (container bytes, RunMetrics).

    Samples may be floats, ints, or decimal text tokens; text is quantized
    digit-exactly.  At least one sample is required.
    """
    if not isinstance(samples, list):
        samples = list(samples)
    if not samples:
        raise ValueError("cannot compress an empty stream")

    t0 = time.perf_counter()
    codes, max_err, scale_exp, size = quantize_stream(samples, config.digits)
    if config.digits == LOSSLESS and not scale_exp:
        scale_exp = None  # integer passthrough

    stream = entropy.encode(bytes(encode_blocks(codes, config)), config.coder)
    header = StreamHeader(
        method_version=config.method_version,
        entropy_id=config.coder,
        block_len=config.block_len,
        tau=config.tau,
        scale_exp=scale_exp,
        sample_count=len(codes),
    )
    blob = header.pack() + stream.data
    seconds = time.perf_counter() - t0
    return blob, RunMetrics(size, len(blob), seconds, float(max_err))


def decode_codes(data: bytes):
    """Decode a container back to (codes, header, decode_secs)."""
    header = StreamHeader.parse(data)
    t0 = time.perf_counter()
    symbols = entropy.decode(
        data[HEADER_LEN:], header.entropy_id, max_stream_bytes(header, header.sample_count)
    )
    codes = decode_blocks(symbols, header, header.sample_count)
    return codes, header, time.perf_counter() - t0


def decompress_stream(data: bytes):
    """Decompress a container; returns (list of floats, RunMetrics).

    Each float is code / 10**d, which is float(token) for the code's text
    token: int / int and float(text) both give the correctly rounded double
    of the same rational.  The text is sized, not rendered.
    """
    codes, header, decode_secs = decode_codes(data)
    _, lo, hi = decoded_range(codes)
    size = canonical_size(codes, header.scale_exp, lo, hi)
    floats = list(map(truediv, codes, repeat(10 ** (header.scale_exp or 0))))
    return floats, RunMetrics(size, len(data), decode_secs)


def decompress_to_tokens(data: bytes):
    """Decompress to exact decimal text tokens; returns (tokens, RunMetrics)."""
    codes, header, decode_secs = decode_codes(data)
    tokens, size = render_stream(codes, header.scale_exp)
    return tokens, RunMetrics(size, len(data), decode_secs)
