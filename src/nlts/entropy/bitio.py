"""MSB-first bit streams over byte buffers.

Bit 7 of each byte comes first; the final partial byte is padded with zero
bits.  A stream is its whole bytes: no bit length is kept, and a decoder
reads the padding as stream bits.  The coders do their own bit I/O on
local integers.  The Huffman encoders collect codes in an int accumulator,
``spill`` its whole bytes once it holds ``FLUSH_BITS`` bits and hand the
rest to ``finish``.  The arithmetic encoder holds its stream bits above
the 32-bit window of its exact low end, moves their whole bytes out once
``FLUSH_BITS`` of them are settled and hands the rest to ``finish``.  A
decoder refills an int window a few bytes at a time (adaptive Huffman: 0/1
bytes, 256 stream bytes at a time) from whole bytes, padding included.
These integers stay a fixed size, but for a run of deferred straddle bits
in the arithmetic encoder, so memory grows only with the output.
"""

from __future__ import annotations

from collections import namedtuple

#: an encoder moves its whole bytes out once it holds this many stream bits
FLUSH_BITS = 64

#: A coded stream: its whole bytes, the last one zero-padded.
BitStream = namedtuple("BitStream", "data")


def spill(out: bytearray, acc: int, nacc: int):
    """Move the whole bytes of the nacc-bit accumulator acc to out; return
    the (acc, nacc) of the bits left over."""
    spare = nacc & 7
    out += (acc >> spare).to_bytes(nacc >> 3, "big")
    return acc & ((1 << spare) - 1), spare


def finish(out: bytearray, acc: int, nacc: int) -> BitStream:
    """Append the nacc low bits of acc to out, zero-pad them to a byte, return the stream.

    acc must hold no bits above its low nacc.
    """
    pad = -nacc & 7
    out += (acc << pad).to_bytes((nacc + pad) >> 3, "big")
    return BitStream(data=bytes(out))
