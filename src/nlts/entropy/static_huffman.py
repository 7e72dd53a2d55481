"""Two-pass canonical Huffman coder.

Stream layout (normative, byte-aligned header then MSB-first code bits):

    uvarint(symbol_count) || run-length-coded table || code bits

The table lists the 256 code lengths in symbol order, one byte each, except
that a zero byte is followed by a run count 1..255 covering that many
zero-length (absent) symbols.  Lengths alone determine the canonical codes:
symbols sorted by (length, value) receive consecutive codes, left-shifted
at each length increase, so no tree shape needs to travel.

The encoder shifts each symbol's code into an int accumulator that spills
whole bytes.  The decoder refills one int window, 64 bits at a time, to
hold the longest code; a code of up to _TABLE_BITS bits resolves in one
lookup in a canonical prefix table (Moffat & Turpin 1997, as zlib's
inflate does), a longer one by testing each further length against first[]
and by_len[] on the same window bits.
"""

from __future__ import annotations

import heapq
from collections import Counter

from ..core import read_varints, write_varints
from ..errors import CorruptStream
from .bitio import FLUSH_BITS, BitStream, finish, spill

# Width of the decoder's lookup table: codes up to this long decode in one
# lookup, longer ones by testing each further length.
_TABLE_BITS = 11


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


def _canonical(lengths: dict):
    """The canonical code of symbol->length lengths as (first, by_len).

    by_len[l] lists the symbols of length l in order; the rank-th of them
    has code first[l] + rank.  Lengths past the Kraft inequality raise
    CorruptStream.
    """
    longest = max(lengths.values())
    by_len = [[] for _ in range(longest + 1)]
    for sym in sorted(lengths):
        by_len[lengths[sym]].append(sym)
    first = [0] * (longest + 1)
    code = 0
    for l in range(1, longest + 1):
        first[l] = code
        code += len(by_len[l])
        if code > 1 << l:
            raise CorruptStream("huffman table violates the Kraft inequality")
        code <<= 1
    return first, by_len


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
    try:
        while sym < 256:
            l = data[pos]
            pos += 1
            if l == 0:
                run = data[pos]
                pos += 1
                if run == 0 or sym + run > 256:
                    raise CorruptStream("huffman table zero-run out of range")
                sym += run
            else:
                lengths[sym] = l
                sym += 1
    except IndexError:
        raise CorruptStream("huffman table truncated") from None
    return lengths, pos


def encode(payload: bytes) -> BitStream:
    lengths = code_lengths(Counter(payload))
    out = bytearray()
    write_varints((len(payload),), out, signed=False)
    _write_table(lengths, out)
    acc = 0
    nacc = 0
    if payload:
        first, by_len = _canonical(lengths)
        table = [None] * 256
        for l, group in enumerate(by_len):
            for rank, sym in enumerate(group):
                table[sym] = (l, first[l] + rank)
        for b in payload:
            length, code = table[b]
            acc = (acc << length) | code
            nacc += length
            if nacc >= FLUSH_BITS:
                acc, nacc = spill(out, acc, nacc)
    return finish(out, acc, nacc)


def decode(data: bytes, max_len: float) -> bytes:
    count_field = []
    pos = read_varints(data, 0, 1, count_field, signed=False, max_bits=32)
    lengths, pos = _read_table(data, pos)
    (count,) = count_field
    if count > max_len:
        raise CorruptStream(f"huffman symbol count {count} exceeds the declared size {max_len}")
    if count == 0:
        return b""
    if not lengths:
        raise CorruptStream("nonzero symbol count but empty huffman table")

    first, by_len = _canonical(lengths)
    longest = len(first) - 1

    # table[k-bit prefix] = (length << 8) | symbol for the code of length <= k
    # that the prefix starts with; 0 where there is none (a longer code, or
    # no code at all), which sends the decoder on to lengths k+1..longest.
    k = min(longest, _TABLE_BITS)
    kmask = (1 << k) - 1
    table = [0] * (1 << k)
    for l in range(1, k + 1):
        shift = k - l
        for idx, sym in enumerate(by_len[l]):
            lo = (first[l] + idx) << shift
            table[lo : lo + (1 << shift)] = [(l << 8) | sym] * (1 << shift)

    # The window holds the wbits bits that follow the consumed ones, in its
    # low bits, refilled to at least longest (past 64 on a crafted table);
    # past the end of data it reads zeros.  Bit position
    # 8 * bytepos - wbits overrunning nbits means a code ran past the end.
    nbits = 8 * len(data)
    bytepos = pos
    window = 0
    wbits = 0
    out = bytearray()
    append = out.append
    for _ in range(count):
        while wbits < longest:
            if 8 * bytepos - wbits > nbits:
                raise CorruptStream("huffman stream ended mid-code")
            chunk = data[bytepos : bytepos + 8]
            window = ((window & ((1 << wbits) - 1)) << 64) | (
                int.from_bytes(chunk, "big") << (64 - 8 * len(chunk))
            )
            wbits += 64
            bytepos += 8
        entry = table[(window >> (wbits - k)) & kmask]
        if entry:
            wbits -= entry >> 8
            append(entry & 0xFF)
            continue
        # No code of length <= k fits: try the longer lengths in turn.
        acc = window & ((1 << wbits) - 1)
        for l in range(k + 1, longest + 1):
            idx = (acc >> (wbits - l)) - first[l]
            if 0 <= idx < len(by_len[l]):
                wbits -= l
                append(by_len[l][idx])
                break
        else:
            # a bit-by-bit walk gives up on reading bit longest + 1, if it is there
            if 8 * bytepos - wbits + longest >= nbits:
                raise CorruptStream("huffman stream ended mid-code")
            raise CorruptStream("bit pattern matches no huffman code")
    if 8 * bytepos - wbits > nbits:
        raise CorruptStream("huffman stream ended mid-code")
    return bytes(out)
