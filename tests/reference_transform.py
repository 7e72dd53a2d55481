"""Test-only reference transform: one object per block, as an oracle.

The block transform of FORMAT.md section 3 written out literally and kept
independent of the fused nlts.transform.encode_blocks and decode_blocks.
Every block becomes a QuantizedBlock, the transform builds a
TransformedBlock with an explicit branch and NonzeroMask, serialize_block
writes it and parse_block reads it back.  The version-2 encoder builds the
branch the tau rule selects, runs the decoder's classifier on it
(detect_branch_v2) and falls back to the other branch on a misreading.
encode_stream and decode_stream drive these per block over a whole stream,
so the fused functions can be compared with them byte for byte.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from nlts.container import CodecConfig
from nlts.core import MODE, read_varints, write_varints
from nlts.errors import CodecError, CorruptStream, LengthMismatch

# Name of the diff block branch (nlts.core.MODE names the other).
DIFF = "diff"


class EmptyBlock(CodecError):
    """Operation requires a non-empty block."""


class CountMismatch(CodecError):
    """Bitmap population count disagrees with the number of payload values."""


class BadBranchFlag(CodecError):
    """Version-1 branch flag is neither 0 nor 1."""


@dataclass(frozen=True)
class QuantizedBlock:
    """One window of a stream as exact scaled integers: value == code / 10**scale_exp.

    Only a stream's final block may be shorter than the block length.

    scale_exp is the number of retained decimal digits; None marks the
    integer-passthrough case (codes are the samples themselves).
    """

    codes: tuple
    scale_exp: int | None

    def __post_init__(self):
        if len(self.codes) < 1:
            raise ValueError("quantized block must hold at least one code")

    @property
    def length(self) -> int:
        return len(self.codes)


class NonzeroMask:
    """Width-bit bitmap marking the nonzero entries of a transformed block."""

    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int):
        if width < 1:
            raise ValueError("mask width must be >= 1")
        if not 0 <= value < (1 << width):
            raise ValueError(f"mask value {value} does not fit {width} bits")
        self.value = value
        self.width = width

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "NonzeroMask":
        """Build the mask for a sequence: bit i set iff values[i] != 0."""
        v = 0
        for x in values:
            v = (v << 1) | (x != 0)
        return cls(v, len(values))

    def popcount(self) -> int:
        return self.value.bit_count()

    def expand(self, nonzeros: Sequence[int]) -> list:
        """Re-insert zeros: one nonzero consumed per set bit, 0 elsewhere."""
        if len(nonzeros) != self.popcount():
            raise CountMismatch(
                f"mask expects {self.popcount()} nonzero values, got {len(nonzeros)}"
            )
        out = []
        v, w = self.value, self.width
        it = iter(nonzeros)
        for i in range(w):
            if (v >> (w - 1 - i)) & 1:
                out.append(next(it))
            else:
                out.append(0)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, NonzeroMask)
            and self.value == other.value
            and self.width == other.width
        )

    def __hash__(self):
        return hash((self.value, self.width))

    def __repr__(self):
        return f"NonzeroMask(value={self.value}, width={self.width})"


@dataclass(frozen=True)
class TransformedBlock:
    """Post-transform block: branch header, optional mask, surviving values."""

    method_version: int
    branch: str
    header_values: tuple
    mask: NonzeroMask | None
    payload: tuple
    length: int


@dataclass(frozen=True)
class ModeStat:
    value: int
    frequency: int


def compute_mode(codes) -> ModeStat:
    """Most frequent value; frequency ties break toward the smallest value."""
    if not codes:
        raise EmptyBlock("cannot take the mode of an empty block")
    best_value = None
    best_count = 0
    for value, count in Counter(codes).items():
        if count > best_count or (count == best_count and value < best_value):
            best_value = value
            best_count = count
    return ModeStat(value=best_value, frequency=best_count)


def diff_encode(codes) -> list:
    """First value kept, then successive differences (current - previous)."""
    if not codes:
        raise EmptyBlock("cannot difference an empty block")
    out = [codes[0]]
    prev = codes[0]
    for c in codes[1:]:
        out.append(c - prev)
        prev = c
    return out


def diff_decode(values) -> list:
    """Prefix sums; exact inverse of diff_encode."""
    if not values:
        raise EmptyBlock("cannot undo differencing of an empty block")
    out = [values[0]]
    acc = values[0]
    for v in values[1:]:
        acc += v
        out.append(acc)
    return out


def detect_branch_v2(header: int, mask: NonzeroMask, nonzeros) -> str:
    """Re-derive the branch of a version-2 block from its decoded fields.

    Diff only when the very first entry survived the mask and equals the
    header (a diff block leads with its own header value); everything else,
    including the all-zero degenerate block, is mode.
    """
    if nonzeros and mask.width >= 1 and (mask.value >> (mask.width - 1)) & 1:
        if nonzeros[0] == header:
            return DIFF
    return MODE


def _build_mode(version: int, codes, mode: int, width: int) -> TransformedBlock:
    deviations = [c - mode for c in codes]
    mask = NonzeroMask.from_values(deviations)
    payload = tuple(d for d in deviations if d)
    header = (1, mode) if version == 1 else (mode,)
    return TransformedBlock(
        method_version=version,
        branch=MODE,
        header_values=header,
        mask=mask,
        payload=payload,
        length=width,
    )


def _build_diff(version: int, codes, width: int) -> TransformedBlock:
    body = diff_encode(codes)
    if version == 1:
        return TransformedBlock(
            method_version=1,
            branch=DIFF,
            header_values=(0,),
            mask=None,
            payload=tuple(body),
            length=width,
        )
    mask = NonzeroMask.from_values(body)
    payload = tuple(v for v in body if v)
    return TransformedBlock(
        method_version=2,
        branch=DIFF,
        header_values=(codes[0],),
        mask=mask,
        payload=payload,
        length=width,
    )


def transform_block(block: QuantizedBlock, cfg: CodecConfig) -> TransformedBlock:
    """Transform one block; only a stream's final block may be shorter than L."""
    codes = block.codes
    width = len(codes)
    if width > cfg.block_len:
        raise LengthMismatch(
            f"block holds {width} codes but block_len is {cfg.block_len}"
        )
    stat = compute_mode(codes)
    preferred = MODE if stat.frequency >= cfg.tau else DIFF

    if cfg.method_version == 1:
        if preferred == MODE:
            return _build_mode(1, codes, stat.value, width)
        return _build_diff(1, codes, width)

    # Version 2: the decoder infers the branch, so the encoder must only
    # emit blocks its own detector classifies correctly.
    if preferred == MODE:
        tb = _build_mode(2, codes, stat.value, width)
        if detect_branch_v2(tb.header_values[0], tb.mask, tb.payload) == MODE:
            return tb
        tb = _build_diff(2, codes, width)
    else:
        tb = _build_diff(2, codes, width)
        if detect_branch_v2(tb.header_values[0], tb.mask, tb.payload) == DIFF:
            return tb
        tb = _build_mode(2, codes, stat.value, width)
    if detect_branch_v2(tb.header_values[0], tb.mask, tb.payload) != tb.branch:
        # Unreachable: at most one of the two branches can misclassify.
        raise AssertionError("no correctly classified encoding exists for block")
    return tb


def inverse_transform(
    tb: TransformedBlock, cfg: CodecConfig, scale_exp: int | None = 0
) -> QuantizedBlock:
    """Exact inverse of transform_block in the integer domain."""
    if tb.method_version != cfg.method_version:
        raise ValueError(
            f"block is version {tb.method_version}, config expects {cfg.method_version}"
        )
    if tb.method_version == 1:
        flag = tb.header_values[0]
        if flag == 0:
            if len(tb.payload) != tb.length:
                raise CountMismatch(
                    f"difference block carries {len(tb.payload)} values, expected {tb.length}"
                )
            codes = diff_decode(list(tb.payload))
        elif flag == 1:
            mode = tb.header_values[1]
            deviations = tb.mask.expand(tb.payload)
            codes = [mode + d for d in deviations]
        else:
            raise BadBranchFlag(f"version-1 branch flag must be 0 or 1, got {flag}")
    else:
        header = tb.header_values[0]
        body = tb.mask.expand(tb.payload)
        if detect_branch_v2(header, tb.mask, tb.payload) == DIFF:
            codes = diff_decode(body)
        else:
            codes = [header + d for d in body]
    return QuantizedBlock(codes=tuple(codes), scale_exp=scale_exp)


# --- wire layout (normative, see FORMAT.md) ---
#
# v1 mode: zz(1), zz(mode), mask uvarint, zz(payload)...
# v1 diff: zz(0), zz(payload) x width
# v2:      zz(header), mask uvarint, zz(payload)...
#
# zz = zigzag varint; the mask varint is unsigned and may exceed 64 bits
# for blocks wider than 64 samples.


def serialize_block(tb: TransformedBlock, out: bytearray) -> None:
    write_varints(tb.header_values, out)
    if tb.mask is not None:
        write_varints((tb.mask.value,), out, False, tb.mask.width)
    write_varints(tb.payload, out)


def parse_block(data, pos: int, method_version: int, width: int):
    """Parse one block's symbols; returns (TransformedBlock, next_pos)."""
    fields = []
    pos = read_varints(data, pos, 1, fields)
    if method_version == 1:
        flag = fields[0]
        if flag == 0:
            payload = []
            pos = read_varints(data, pos, width, payload)
            return TransformedBlock(1, DIFF, (0,), None, tuple(payload), width), pos
        if flag != 1:
            raise BadBranchFlag(f"version-1 branch flag must be 0 or 1, got {flag}")
        pos = read_varints(data, pos, 1, fields)
    pos = read_varints(data, pos, 1, fields, False, width)
    mask = NonzeroMask(fields[-1], width)
    payload = []
    pos = read_varints(data, pos, mask.popcount(), payload)
    payload = tuple(payload)
    if method_version == 1:
        tb = TransformedBlock(1, MODE, (1, fields[1]), mask, payload, width)
    else:
        header = fields[0]
        branch = detect_branch_v2(header, mask, payload)
        tb = TransformedBlock(2, branch, (header,), mask, payload, width)
    return tb, pos


def encode_stream(codes, cfg: CodecConfig) -> bytearray:
    """Symbol stream of codes, transformed and serialized one block at a time."""
    out = bytearray()
    L = cfg.block_len
    for start in range(0, len(codes), L):
        block = QuantizedBlock(codes=tuple(codes[start : start + L]), scale_exp=0)
        serialize_block(transform_block(block, cfg), out)
    return out


def decode_stream(symbols, cfg: CodecConfig, sample_count: int) -> list:
    """Codes of a symbol stream, parsed and inverted one block at a time."""
    codes = []
    pos = 0
    for start in range(0, sample_count, cfg.block_len):
        width = min(cfg.block_len, sample_count - start)
        tb, pos = parse_block(symbols, pos, cfg.method_version, width)
        codes.extend(inverse_transform(tb, cfg).codes)
    if pos != len(symbols):
        raise CorruptStream(f"{len(symbols) - pos} trailing bytes after the final block")
    return codes
