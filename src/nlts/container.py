"""Stream-level orchestration: file format, pipeline, and run metrics.

A compressed file is a fixed 24-byte little-endian header followed by one
entropy bit stream covering every block of the file (blocks are serialized
back to back and coded as a single byte payload).  See FORMAT.md for the
normative layout.

Compression ratios are computed against the canonicalized text of the
input: one sample per line, rendered with exactly the stream's number of
fractional digits.  That is also byte-for-byte the text decompression
produces, which keeps the ratio reproducible from the emitted files alone.

Compressing reads the codes' range once: quantize_stream returns the least
and greatest code, which its 64-bit check found over the distinct codes
when the column repeats, and canonical_size takes them, so codes that all
render to one width are sized without a pass.

Decoding reads a stream's distinct codes and range once.  decode_codes asks
quantizer.code_survey for the distinct codes (None when the codes do not
repeat) and their least and greatest, and checks the signed 64-bit range on
those two; render_stream, canonical_size and the decoded-text sizing take
the survey instead of reading every code again.  When every code lies in
[0, 10**(d+1)) and so renders to one width, the text is sized without a
pass over the tokens.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from itertools import repeat
from operator import gt, le, truediv

from . import entropy
from .core import INT64_MAX, INT64_MIN
from .errors import BadMagic, CorruptStream, UnsupportedVersion
from .quantizer import LOSSLESS, MAX_DIGITS, code_survey, quantize_stream, render_stream
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


@dataclass(frozen=True)
class StreamHeader:
    method_version: int
    entropy_id: int
    block_len: int
    tau: int
    scale_exp: int | None  # None marks integer passthrough
    sample_count: int

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


@dataclass(frozen=True)
class RunMetrics:
    """What one call measured: canonical text and container bytes, and the
    codec's own seconds, text I/O excluded."""

    input_bytes: int
    output_bytes: int
    seconds: float
    max_abs_error: float | None = None  # compress only

    @property
    def cr(self) -> float:
        return self.input_bytes / self.output_bytes

    @property
    def rate(self) -> float:
        """MB/s of canonical text, MB = 1e6 bytes; 0.0 for a zero time."""
        return self.input_bytes / self.seconds / 1e6 if self.seconds else 0.0


@dataclass(frozen=True)
class CodecConfig:
    """The codec's five settings; digits is 0..MAX_DIGITS or LOSSLESS.

    A block setting of the wrong type or range, or bad digits, raises
    ValueError; an unknown coder id raises UnsupportedVersion.
    """

    method_version: int = 2
    coder: int = entropy.ADAPTIVE_ARITHMETIC
    block_len: int = 16
    tau: int = 9
    digits: int | str = 3

    def __post_init__(self):
        check_block_settings(self.method_version, self.block_len, self.tau)
        d = self.digits
        if d != LOSSLESS and (type(d) is not int or not 0 <= d <= MAX_DIGITS):
            raise ValueError(f"digits must be 0..{MAX_DIGITS} or {LOSSLESS!r}, got {d!r}")
        if self.coder not in entropy.CODER_NAMES:
            raise UnsupportedVersion(f"unknown entropy coder id {self.coder}")


def canonical_size(codes, scale_exp: int | None, bounds=None) -> int:
    """Byte size of the canonical text rendering (newline per sample).

    bounds is (min(codes), max(codes)), when the caller has it.  Each code
    renders as a newline, one whole digit, '.' and d fraction digits when
    d > 0, and a '-' when negative.  Its whole part |c| // 10**d has one
    more digit for each k >= 1 with |c| >= 10**(d+k), so each such power
    adds the count of magnitudes that reach it.  Given bounds, codes that
    all lie in [0, 10**(d+1)) render to the base width and take no pass.
    """
    d = scale_exp or 0
    lo, hi = bounds or (min(codes), max(codes))
    total = (d + 3 if d else 2) * len(codes)
    mags = codes
    if lo < 0:
        total += sum(map(gt, repeat(0), codes))
        mags = list(map(abs, codes))
    power, top = 10 ** (d + 1), max(hi, -lo)
    while power <= top:
        total += sum(map(le, repeat(power), mags))
        power *= 10
    return total


def compress_stream(samples, config: CodecConfig = CodecConfig()):
    """Compress a sample stream; returns (container bytes, RunMetrics).

    Samples may be floats, ints, or decimal text tokens; text is quantized
    digit-exactly.  At least one sample is required.
    """
    if not isinstance(samples, list):  # a copy would drop a PlainColumn's text
        samples = list(samples)
    if not samples:
        raise ValueError("cannot compress an empty stream")

    t0 = time.perf_counter()
    codes, max_err, scale_exp, bounds = quantize_stream(samples, config.digits)
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
    size = canonical_size(codes, scale_exp, bounds)
    return blob, RunMetrics(size, len(blob), seconds, float(max_err))


def decode_codes(data: bytes):
    """Decode a container back to (codes, header, decode_secs, survey).

    survey is code_survey(codes): the distinct codes, or None when the
    codes do not repeat, and (lo, hi), their least and greatest.  The
    signed 64-bit range check reads lo and hi, found over the distinct
    codes alone when there are some; the renderer and the sizing reuse
    both rather than read every code again.
    """
    header = StreamHeader.parse(data)
    t0 = time.perf_counter()
    symbols = entropy.decode(
        data[HEADER_LEN:], header.entropy_id, max_stream_bytes(header, header.sample_count)
    )
    codes = decode_blocks(symbols, header, header.sample_count)
    survey = code_survey(codes)
    lo, hi = survey[1]
    if not INT64_MIN <= lo <= hi <= INT64_MAX:
        raise CorruptStream("decoded sample outside the signed 64-bit range")
    return codes, header, time.perf_counter() - t0, survey


def decompress_stream(data: bytes):
    """Decompress a container; returns (list of floats, RunMetrics)."""
    codes, header, decode_secs, survey = decode_codes(data)
    d = header.scale_exp
    if d is None or d == 0:
        values = list(map(float, codes))
    else:
        values = list(map(truediv, codes, repeat(10**d)))
    return values, RunMetrics(canonical_size(codes, d, survey[1]), len(data), decode_secs)


def decompress_to_tokens(data: bytes):
    """Decompress to exact decimal text tokens; returns (tokens, RunMetrics)."""
    codes, header, decode_secs, survey = decode_codes(data)
    d = header.scale_exp
    tokens = render_stream(codes, d, survey)
    lo, hi = survey[1]
    if lo >= 0 and hi < 10 ** ((d or 0) + 1):  # one width: sized without a pass
        size = canonical_size(codes, d, (lo, hi))
    else:
        size = sum(map(len, tokens)) + len(tokens)
    return tokens, RunMetrics(size, len(data), decode_secs)
