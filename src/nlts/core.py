"""Block value types and the varint format shared by the transform and the coders.

The nonzero mask is the bitmap that lets a transformed block drop its zero
entries: bit i (first sample = most significant bit) is set iff entry i is
nonzero, so the bitmap's integer value plus the surviving nonzero values
reconstruct the full sequence exactly.

Signed values travel as zigzag-interleaved unsigned varints; the mask itself
travels as a plain unsigned varint (it is never negative, and for wide blocks
it would not fit a signed 64-bit value).  write_varints and read_varints are
the only varint encoder and decoder in the package; each handles a run of
values.  Byte layout is specified in FORMAT.md and is normative for the
container format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CountMismatch, Overlong, Truncated

MODE = "mode"
DIFF = "diff"

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


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


def write_varints(values, out: bytearray, signed: bool = True, max_bits: int = 64) -> None:
    """Append each value as a base-128 little-endian varint.

    Signed values are zigzag-interleaved first (0->0, -1->1, 1->2, -2->3,
    ...).  max_bits bounds the legal (zigzagged) value range: 64 for ordinary
    values, the mask width for nonzero masks of wide blocks.
    """
    for u in values:
        if signed:
            u = (u << 1) if u >= 0 else ((-u << 1) - 1)
        elif u < 0:
            raise ValueError("varint value must be non-negative")
        if u >> max_bits:
            raise Overlong(f"value needs more than {max_bits} bits")
        while u >= 0x80:
            out.append((u & 0x7F) | 0x80)
            u >>= 7
        out.append(u)


def read_varints(
    data, pos: int, count: int, out: list, signed: bool = True, max_bits: int = 64
) -> int:
    """Read count varints at pos, appending each to out; returns the next position.

    Exact inverse of write_varints.  Raises Truncated when the buffer ends
    mid-value and Overlong when an encoding needs more continuation bytes,
    or a value more bits, than max_bits allows.
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
                    raise Overlong(
                        f"varint exceeds {(max_bits + 6) // 7} bytes for {max_bits}-bit range"
                    )
                shift += 7
                b = data[pos]
                pos += 1
                u |= (b & 0x7F) << shift
            if u >> max_bits:
                raise Overlong(f"decoded value needs more than {max_bits} bits")
            out.append((u >> 1 if not u & 1 else -((u + 1) >> 1)) if signed else u)
    except IndexError:
        raise Truncated("byte source ended inside a varint") from None
    return pos
