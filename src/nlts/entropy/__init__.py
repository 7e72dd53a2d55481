"""Interchangeable lossless entropy back-ends over serialized symbol bytes.

All three coders work on the byte alphabet (256 values plus a terminator
where they need one) and are deterministic: the same payload and coder id
always produce the identical bit stream.  An encoder returns a BitStream
holding the stream's whole bytes, zero-padded; no bit length is kept.  A
decoder reads those bytes, as the container stores them (FORMAT.md
section 4), takes the final byte's padding as stream bits, and takes the
longest payload it may return as a required bound.
"""

from __future__ import annotations

from ..errors import UnsupportedVersion
from . import adaptive_huffman, arithmetic, static_huffman
from .bitio import BitStream

STATIC_HUFFMAN = 0
ADAPTIVE_HUFFMAN = 1
ADAPTIVE_ARITHMETIC = 2

CODER_NAMES = {
    STATIC_HUFFMAN: "static",
    ADAPTIVE_HUFFMAN: "adaptive-huffman",
    ADAPTIVE_ARITHMETIC: "arithmetic",
}
CODER_IDS = {name: coder for coder, name in CODER_NAMES.items()}

_CODERS = {
    STATIC_HUFFMAN: static_huffman,
    ADAPTIVE_HUFFMAN: adaptive_huffman,
    ADAPTIVE_ARITHMETIC: arithmetic,
}


def encode(payload: bytes, coder: int) -> BitStream:
    if coder not in _CODERS:
        raise UnsupportedVersion(f"unknown entropy coder id {coder}")
    if len(payload) >= 1 << 32:
        raise ValueError("payload too large (must be < 2^32 bytes)")
    return _CODERS[coder].encode(payload)


def decode(data: bytes, coder: int, max_len: float) -> bytes:
    """Decode a stream's whole bytes; a payload longer than max_len raises CorruptStream.

    Static Huffman checks its declared symbol count before it decodes.  The
    adaptive decoders check their output length each time they read input
    and at the terminator, so a damaged stream stops within 2,048 symbols
    of the bound for adaptive Huffman (one 256-byte refill, at least one bit
    a symbol) and ~5,800 for arithmetic, and no longer payload is ever
    returned.
    """
    if coder not in _CODERS:
        raise UnsupportedVersion(f"unknown entropy coder id {coder}")
    return _CODERS[coder].decode(data, max_len)


__all__ = [
    "ADAPTIVE_ARITHMETIC",
    "ADAPTIVE_HUFFMAN",
    "STATIC_HUFFMAN",
    "CODER_IDS",
    "CODER_NAMES",
    "BitStream",
    "decode",
    "encode",
]
