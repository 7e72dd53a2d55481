"""Per-block statistics/deviation transform and its exact inverse.

Each block of quantized codes is rewritten either as deviations from the
block's mode (its most frequent value) or as successive differences,
whichever the mode-frequency threshold tau selects.  Zero deviations are
then dropped behind a nonzero mask, so highly repetitive blocks shrink to a
header plus a handful of values.

Two wire layouts exist.  Version 1 spends an explicit branch flag per
block; version 2 drops the flag and lets the decoder re-derive the branch
from the header/payload relationship, which is ambiguous for two rare block
shapes -- the encoder detects those and falls back to the other branch (see
detect_branch_v2; one of the two branches is always classified correctly).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (
    DIFF,
    MODE,
    NonzeroMask,
    QuantizedBlock,
    TransformedBlock,
    read_varints,
    write_varints,
)
from .errors import BadFlag, CountMismatch, EmptyBlock, LengthMismatch

MIN_BLOCK_LEN = 16
MAX_BLOCK_LEN = 1 << 15  # block length must fit the container's u16 field


@dataclass(frozen=True)
class TransformConfig:
    method_version: int = 2
    block_len: int = 16
    tau: int = 9

    def __post_init__(self):
        if self.method_version not in (1, 2):
            raise ValueError(f"method_version must be 1 or 2, got {self.method_version}")
        L = self.block_len
        if L < MIN_BLOCK_LEN or L > MAX_BLOCK_LEN or L & (L - 1):
            raise ValueError(
                f"block_len must be a power of two in [{MIN_BLOCK_LEN}, {MAX_BLOCK_LEN}], got {L}"
            )
        if not 1 <= self.tau <= L:
            raise ValueError(f"tau must be in 1..{L}, got {self.tau}")


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


def transform_block(block: QuantizedBlock, cfg: TransformConfig) -> TransformedBlock:
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
    tb: TransformedBlock, cfg: TransformConfig, scale_exp: int | None = 0
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
            raise BadFlag(f"version-1 branch flag must be 0 or 1, got {flag}")
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
            raise BadFlag(f"version-1 branch flag must be 0 or 1, got {flag}")
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
