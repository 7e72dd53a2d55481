"""Per-block statistics/deviation transform, fused with its wire layout.

Each block of quantized codes is rewritten either as deviations from the
block's mode (its most frequent value) or as successive differences,
whichever the mode-frequency threshold tau selects.  Zero entries are then
dropped behind a nonzero mask (bit i, the first entry being the most
significant bit, is set iff entry i is nonzero), so highly repetitive
blocks shrink to a header plus a handful of values.  encode_blocks writes
the symbols of every block straight into one byte stream and decode_blocks
reads them straight back into codes; this module is the only one that
knows the block layout.

A constant block, the common case on a plateau, is a mode block with a
zero mask: its value and one 0 byte.  A plateau holds its value for many
blocks, and their bytes are identical.  Each direction handles such a
block like any other, then takes in the full blocks after it that repeat
it, encode_blocks by their codes and decode_blocks by their bytes, and
writes its bytes or extends the codes once for the run: only a run's first
block counts its mode or reads its mask.  A short final block is never
part of a run.  A block of so many distinct values that none can occur
tau times is a diff block, written without counting its mode (a version-2
block leading with 0 still counts it: such a diff block would read back
as a mode block).  decode_blocks parses every block outside a run varint
by varint.

Two wire layouts exist (FORMAT.md section 3).  Version 1 spends an explicit
branch flag per block; version 2 drops the flag and lets the decoder
re-derive the branch from the header/payload relationship.  That is
ambiguous for two rare block shapes, x_1 == 2 * mode != 0 and x_1 == 0;
the encoder takes the other branch for them (the two never coincide).

The block functions read three settings from their cfg argument:
method_version, block_len and tau.  A CodecConfig carries them on encode and
a parsed StreamHeader on decode; check_block_settings is the rule both apply.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, repeat
from operator import add, sub

from .core import read_varints, write_varints
from .errors import CodecError, CorruptStream

METHOD_VERSIONS = (1, 2)
MIN_BLOCK_LEN = 16
MAX_BLOCK_LEN = 1 << 15  # block length must fit the container's u16 field


def check_block_settings(method_version, block_len, tau) -> None:
    """Raise ValueError unless each block setting has the right type and range."""
    if type(method_version) is not int or method_version not in METHOD_VERSIONS:
        raise ValueError(f"method_version must be 1 or 2, got {method_version!r}")
    L = block_len
    if type(L) is not int or not MIN_BLOCK_LEN <= L <= MAX_BLOCK_LEN or L & (L - 1):
        raise ValueError(
            f"block_len must be a power of two in [{MIN_BLOCK_LEN}, {MAX_BLOCK_LEN}], "
            f"got {L!r}"
        )
    if type(tau) is not int or not 1 <= tau <= L:
        raise ValueError(f"tau must be an integer in 1..{L}, got {tau!r}")


#: encode_blocks counts the values of a block that holds at most FEW_VALUES
#: distinct ones with list.count rather than build a Counter: one pass per
#: value is cheaper there.
FEW_VALUES = 8


def compute_mode(codes) -> tuple:
    """(value, frequency) of the most frequent code; ties break toward the smallest value."""
    counts = Counter(codes)
    frequency = max(counts.values())
    return min(v for v, k in counts.items() if k == frequency), frequency


def encode_blocks(codes, cfg) -> bytearray:
    """Transform every block of codes and serialize it; returns the symbol stream.

    Blocks cover codes in order, block_len per block; the last may be shorter.
    Raises CodecError, naming the block's first sample, when a difference
    or a deviation from the mode does not fit a signed 64-bit varint.
    """
    out = bytearray()
    L, tau, v1 = cfg.block_len, cfg.tau, cfg.method_version == 1
    n = len(codes)
    start = 0
    try:
        while start < n:
            block = codes[start : start + L]
            x1 = block[0]
            width = len(block)
            # A block of d distinct values has a mode frequency of at most
            # width - d + 1.  A block with few values is counted value by
            # value; any other with a Counter.
            values = set(block)
            if width - len(values) < tau - 1 and (v1 or x1):
                # no value is frequent enough, and only a version-2 block
                # leading with 0 would need the mode: a diff block
                frequency = 0
            elif len(values) <= FEW_VALUES:
                mode = max(sorted(values), key=block.count)  # the smallest of the most frequent
                frequency = block.count(mode)
            else:
                mode, frequency = compute_mode(block)
            if frequency >= tau:
                # a version-2 mode block leading with a deviation equal to the
                # mode would read back as a diff block
                use_mode = v1 or x1 != 2 * mode or not mode
            else:
                # a version-2 diff block whose first entry is 0 reads back as mode
                use_mode = not v1 and not x1
            if use_mode:
                header = (1, mode) if v1 else (mode,)
                body = list(map(sub, block, repeat(mode)))
            elif v1:
                # flag 0, then every difference: no mask, zeros kept
                write_varints((0, x1, *map(sub, block[1:], block)), out)
                start += L
                continue
            else:
                header = (x1,)
                body = [x1, *map(sub, block[1:], block)]
            mask = 0
            for d in body:
                mask = (mask << 1) | (d != 0)
            first = len(out)
            write_varints(header, out)
            write_varints((mask,), out, False, width)
            write_varints(list(filter(None, body)), out)
            start += L
            if not mask:
                # a constant block; each full block after it that repeats it spells its bytes
                end = start
                while codes[end : end + L] == block:
                    end += L
                out += out[first:] * ((end - start) // L)
                start = end
    except OverflowError as e:
        # a header is a code and fits; only a difference or a deviation
        # between two int64 codes can need a 65th bit
        raise CodecError(
            f"block starting at sample {start}: a difference or a deviation from "
            "the block mode needs more than signed 64 bits"
        ) from e
    return out


def max_stream_bytes(cfg, sample_count: int) -> int:
    """Upper bound on the symbol-stream bytes of sample_count codes.

    A block of width w holds at most a version-1 flag byte, a 10-byte header
    varint, a ceil(w / 7)-byte mask varint and w values of at most 10 bytes
    each (a version-1 diff block, flag plus w values, stays inside it).
    """
    def block(w):
        return (cfg.method_version == 1) + 10 + -(-w // 7) + 10 * w

    full, rest = divmod(sample_count, cfg.block_len)
    return full * block(cfg.block_len) + (block(rest) if rest else 0)


def _expand(mask: int, width: int, nonzeros: list) -> list:
    """The width entries the mask stands for: first entry = most significant
    bit, one nonzero per set bit in order, 0 elsewhere."""
    body = [0] * width
    for v in nonzeros:
        i = mask.bit_length()
        body[width - i] = v
        mask ^= 1 << (i - 1)
    return body


def decode_blocks(symbols, cfg, sample_count: int) -> list:
    """Parse and invert the symbol stream of sample_count codes; returns the codes.

    A block whose mask is 0 is constant, and every full block right after it
    whose bytes start with its bytes repeats its value: blocks carry no
    state, so the same bytes at the same width parse to the same codes.  The
    codes are extended once for the run.  A short final block is parsed on
    its own, since a mask spelling legal at width block_len (two bytes for a
    0) need not be legal at its width.

    Raises CorruptStream for a stream that ends early, holds an invalid
    varint or version-1 flag, or has bytes left over after the final block.
    """
    codes = []
    L, v1 = cfg.block_len, cfg.method_version == 1
    pos = start = 0
    while start < sample_count:
        width = min(L, sample_count - start)
        first = pos
        fields = []
        pos = read_varints(symbols, pos, 1, fields)
        if v1:
            flag = fields[0]
            if flag == 0:
                pos = read_varints(symbols, pos, width, fields)
                codes.extend(accumulate(fields[1:]))
                start += L
                continue
            if flag != 1:
                raise CorruptStream(f"version-1 branch flag must be 0 or 1, got {flag}")
            pos = read_varints(symbols, pos, 1, fields)
        header = fields[-1]
        pos = read_varints(symbols, pos, 1, fields, False, width)
        mask = fields.pop()
        if not mask:  # no nonzero entry: a constant block of the header
            unit, k = symbols[first:pos], pos - first
            stop = first + (sample_count - start) // L * k  # past every full block left
            while pos < stop and symbols.startswith(unit, pos):
                pos += k
            run = (pos - first) // k * L
            codes.extend(repeat(header, min(run, sample_count - start)))
            start += run
            continue
        nonzeros = []
        pos = read_varints(symbols, pos, mask.bit_count(), nonzeros)
        if not v1 and mask >> (width - 1) and nonzeros[0] == header:
            # version 2 diff: the first entry survived and repeats the header
            codes.extend(accumulate(_expand(mask, width, nonzeros)))
        else:
            codes.extend(map(add, _expand(mask, width, nonzeros), repeat(header)))
        start += L
    if pos != len(symbols):
        raise CorruptStream(f"{len(symbols) - pos} trailing bytes after the final block")
    return codes
