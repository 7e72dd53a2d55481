"""The varint format shared by the transform and the coders.

Signed values travel as zigzag-interleaved unsigned varints; a block's
nonzero mask travels as a plain unsigned varint (it is never negative, and
for wide blocks it would not fit a signed 64-bit value).  write_varints and
read_varints are the only varint encoder and decoder in the package; each
handles a run of values.  Byte layout is specified in FORMAT.md and is
normative for the container format.  read_varints raises CorruptStream
itself, so each decoder that reads varints reports damage where it is found.
"""

from __future__ import annotations

from .errors import CorruptStream

# Name of the mode block branch; perfbench/tracing.py counts blocks by it.
MODE = "mode"

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def write_varints(values, out: bytearray, signed: bool = True, max_bits: int = 64) -> None:
    """Append each value as a base-128 little-endian varint.

    Signed values are zigzag-interleaved first (0->0, -1->1, 1->2, -2->3,
    ...).  max_bits bounds the legal (zigzagged) value range: 64 for ordinary
    values, the mask width for nonzero masks of wide blocks.  A value outside
    it raises OverflowError: it is the caller's input, not a damaged stream.
    """
    for u in values:
        if signed:
            u = (u << 1) if u >= 0 else ((-u << 1) - 1)
        elif u < 0:
            raise ValueError("varint value must be non-negative")
        if u >> max_bits:
            raise OverflowError(f"value needs more than {max_bits} bits")
        while u >= 0x80:
            out.append((u & 0x7F) | 0x80)
            u >>= 7
        out.append(u)


def read_varints(
    data, pos: int, count: int, out: list, signed: bool = True, max_bits: int = 64
) -> int:
    """Read count varints at pos, appending each to out; returns the next position.

    Exact inverse of write_varints.  Raises CorruptStream when the buffer
    ends mid-value or when an encoding needs more continuation bytes, or a
    value more bits, than max_bits allows.
    """
    try:
        for _ in range(count):
            b = data[pos]
            pos += 1
            u = b & 0x7F
            shift = 0
            while b & 0x80:
                # a continuation bit on the last byte max_bits allows
                if shift >= max_bits - 7:
                    raise CorruptStream(
                        f"varint exceeds {(max_bits + 6) // 7} bytes for {max_bits}-bit range"
                    )
                shift += 7
                b = data[pos]
                pos += 1
                u |= (b & 0x7F) << shift
            if u >> max_bits:
                raise CorruptStream(f"decoded value needs more than {max_bits} bits")
            out.append((u >> 1 if not u & 1 else -((u + 1) >> 1)) if signed else u)
    except IndexError:
        raise CorruptStream("byte source ended inside a varint") from None
    return pos
