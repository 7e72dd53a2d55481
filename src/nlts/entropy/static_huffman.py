"""Two-pass canonical Huffman coder.

Stream layout (normative, byte-aligned header then MSB-first code bits):

    uvarint(symbol_count) || run-length-coded table || code bits

The table lists the 256 code lengths in symbol order, one byte each, except
that a zero byte is followed by a run count 1..255 covering that many
zero-length (absent) symbols.  Lengths alone determine the canonical codes:
symbols sorted by (length, value) receive consecutive codes, left-shifted
at each length increase, so no tree shape needs to travel.
"""

from __future__ import annotations

import heapq
from collections import Counter

from ..core import read_varints, write_varints
from ..errors import CorruptStream, Truncated
from .bitio import BitReader, BitStream, BitWriter


def code_lengths(histogram: dict) -> dict:
    """Optimal prefix-code lengths for a symbol->count histogram."""
    syms = sorted(s for s, c in histogram.items() if c > 0)
    if not syms:
        return {}
    if len(syms) == 1:
        return {syms[0]: 1}
    # entries: (weight, serial, leaf-symbols); serial keeps ties deterministic
    heap = [(histogram[s], i, (s,)) for i, s in enumerate(syms)]
    heapq.heapify(heap)
    serial = len(syms)
    depth = dict.fromkeys(syms, 0)
    while len(heap) > 1:
        w1, _, g1 = heapq.heappop(heap)
        w2, _, g2 = heapq.heappop(heap)
        for s in g1:
            depth[s] += 1
        for s in g2:
            depth[s] += 1
        heapq.heappush(heap, (w1 + w2, serial, g1 + g2))
        serial += 1
    return depth


def canonical_codes(lengths: dict) -> dict:
    """Map symbol -> (length, code) in canonical order."""
    codes = {}
    code = 0
    prev = 0
    for length, sym in sorted((l, s) for s, l in lengths.items()):
        code <<= length - prev
        codes[sym] = (length, code)
        code += 1
        prev = length
    return codes


def _write_table(lengths: dict, out: bytearray) -> None:
    sym = 0
    while sym < 256:
        l = lengths.get(sym, 0)
        if l == 0:
            run = 0
            while sym < 256 and lengths.get(sym, 0) == 0 and run < 255:
                run += 1
                sym += 1
            out.append(0)
            out.append(run)
        else:
            out.append(l)
            sym += 1


def _read_table(data, pos: int):
    lengths = {}
    sym = 0
    end = len(data)
    while sym < 256:
        if pos >= end:
            raise CorruptStream("huffman table truncated")
        l = data[pos]
        pos += 1
        if l == 0:
            if pos >= end:
                raise CorruptStream("huffman table truncated")
            run = data[pos]
            pos += 1
            if run == 0 or sym + run > 256:
                raise CorruptStream("huffman table zero-run out of range")
            sym += run
        else:
            lengths[sym] = l
            sym += 1
    return lengths, pos


def encode(payload: bytes) -> BitStream:
    lengths = code_lengths(Counter(payload))
    out = bytearray()
    write_varints((len(payload),), out, signed=False)
    _write_table(lengths, out)

    writer = BitWriter()
    if payload:
        codes = canonical_codes(lengths)
        table = [codes.get(s) for s in range(256)]
        write_bits = writer.write_bits
        for b in payload:
            length, code = table[b]
            write_bits(code, length)
    bits = writer.getvalue()
    return BitStream(data=bytes(out) + bits.data, bit_len=8 * len(out) + bits.bit_len)


def decode(data: bytes, bit_len: int | None = None) -> bytes:
    try:
        count_field = []
        pos = read_varints(data, 0, 1, count_field, signed=False, max_bits=32)
        lengths, pos = _read_table(data, pos)
    except Truncated as e:
        raise CorruptStream(str(e)) from None
    (count,) = count_field
    if count == 0:
        return b""
    if not lengths:
        raise CorruptStream("nonzero symbol count but empty huffman table")

    max_len = max(lengths.values())
    by_len = [[] for _ in range(max_len + 1)]
    for sym, l in lengths.items():
        by_len[l].append(sym)
    for group in by_len:
        group.sort()
    first = [0] * (max_len + 1)
    code = 0
    for l in range(1, max_len + 1):
        first[l] = code
        code += len(by_len[l])
        if code > 1 << l:
            raise CorruptStream("huffman table violates the Kraft inequality")
        code <<= 1

    reader = BitReader(data, bit_len, bit_pos=8 * pos)
    read_bit = reader.read_bit
    out = bytearray()
    try:
        for _ in range(count):
            acc = 0
            l = 0
            while True:
                acc = (acc << 1) | read_bit()
                l += 1
                if l > max_len:
                    raise CorruptStream("bit pattern matches no huffman code")
                idx = acc - first[l]
                group = by_len[l]
                if 0 <= idx < len(group):
                    out.append(group[idx])
                    break
    except Truncated:
        raise CorruptStream("huffman stream ended mid-code") from None
    return bytes(out)
