"""MSB-first bit I/O over byte buffers.

Bit 7 of each byte is written/read first; the final partial byte is padded
with zero bits.  Reading past the end of the stream raises Truncated, which
the Huffman decoders turn into CorruptStream.  (The arithmetic decoder runs
its own bit window, which feeds zeros past the end.)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import Truncated


@dataclass(frozen=True)
class BitStream:
    data: bytes
    bit_len: int

    def __post_init__(self):
        if not 0 <= self.bit_len <= 8 * len(self.data):
            raise ValueError("bit_len out of range for buffer")


class BitWriter:
    __slots__ = ("_buf", "_cur", "_ncur")

    def __init__(self):
        self._buf = bytearray()
        self._cur = 0
        self._ncur = 0

    def write_bit(self, bit: int) -> None:
        self._cur = (self._cur << 1) | bit
        self._ncur += 1
        if self._ncur == 8:
            self._buf.append(self._cur)
            self._cur = 0
            self._ncur = 0

    def write_bits(self, value: int, nbits: int) -> None:
        """Write nbits of value, most significant first."""
        for shift in range(nbits - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    @property
    def bit_len(self) -> int:
        return 8 * len(self._buf) + self._ncur

    def getvalue(self) -> BitStream:
        """Zero-pad to a byte boundary and return the stream."""
        bit_len = self.bit_len
        data = bytes(self._buf)
        if self._ncur:
            data += bytes((self._cur << (8 - self._ncur),))
        return BitStream(data=data, bit_len=bit_len)


class BitReader:
    __slots__ = ("_data", "_bit_len", "_pos")

    def __init__(self, data: bytes, bit_len: int | None = None, bit_pos: int = 0):
        self._data = data
        self._bit_len = 8 * len(data) if bit_len is None else bit_len
        self._pos = bit_pos

    def read_bit(self) -> int:
        """Read one bit; raises Truncated past the end."""
        p = self._pos
        if p >= self._bit_len:
            raise Truncated("bit stream exhausted")
        self._pos = p + 1
        return (self._data[p >> 3] >> (7 - (p & 7))) & 1
