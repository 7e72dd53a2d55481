"""Test-only reference code: plain coders used as differential oracles.

The coders mirror the normative stream definitions (FORMAT.md) in the most
literal way possible and stay independent of the optimized implementations
in nlts.entropy: the adaptive arithmetic reference renormalizes one bit per
loop iteration, talks to the FrequencyModel class below (the same model
arithmetic.py inlines into its loops), and reads through PaddedBitReader,
which feeds zeros past the end of the stream.

packaged_manifest loads the dataset manifest shipped with the package.
"""

import json
from importlib import resources
from itertools import chain

from nlts.entropy.bitio import BitStream, BitWriter
from nlts.entropy.model import EOF_SYMBOL, NUM_SYMBOLS, RESCALE_CEILING

STATE_BITS = 32
MASK = (1 << STATE_BITS) - 1
TOP = 1 << (STATE_BITS - 1)
SECOND = TOP >> 1

# Largest power of two <= NUM_SYMBOLS, for the Fenwick descent.
_TOP_BIT = 256


class FrequencyModel:
    """Adaptive symbol counts on a Fenwick tree (see nlts.entropy.model).

    Cumulative lookups, updates and the decoder's inverse lookup all run in
    O(log n).
    """

    __slots__ = ("counts", "total", "tree")

    def __init__(self):
        self.counts = [1] * NUM_SYMBOLS
        self.total = NUM_SYMBOLS
        self._rebuild()

    def _rebuild(self):
        n = NUM_SYMBOLS
        tree = [0] * (n + 1)
        counts = self.counts
        for i in range(1, n + 1):
            tree[i] += counts[i - 1]
            j = i + (i & -i)
            if j <= n:
                tree[j] += tree[i]
        self.tree = tree

    def cumulative(self, symbol: int) -> int:
        """Sum of counts below symbol."""
        s = 0
        tree = self.tree
        i = symbol
        while i > 0:
            s += tree[i]
            i &= i - 1
        return s

    def interval(self, symbol: int):
        """(low, high, total) cumulative bounds of symbol."""
        lo = self.cumulative(symbol)
        return lo, lo + self.counts[symbol], self.total

    def locate(self, target: int) -> int:
        """Symbol whose cumulative interval contains target."""
        idx = 0
        bit = _TOP_BIT
        tree = self.tree
        while bit:
            nxt = idx + bit
            if nxt <= NUM_SYMBOLS and tree[nxt] <= target:
                idx = nxt
                target -= tree[nxt]
            bit >>= 1
        return idx

    def update(self, symbol: int) -> None:
        """Count one occurrence, halving all counts at the ceiling."""
        self.counts[symbol] += 1
        self.total += 1
        i = symbol + 1
        tree = self.tree
        while i <= NUM_SYMBOLS:
            tree[i] += 1
            i += i & -i
        if self.total >= RESCALE_CEILING:
            counts = [(c + 1) >> 1 for c in self.counts]
            self.counts = counts
            self.total = sum(counts)
            self._rebuild()


class PaddedBitReader:
    """MSB-first bit reader that returns 0 past the end and counts the overrun."""

    def __init__(self, data: bytes, bit_len=None):
        self.data = data
        self.bit_len = 8 * len(data) if bit_len is None else bit_len
        self.pos = 0
        #: bits handed out past the end of the stream
        self.overrun = 0

    def read_bit(self) -> int:
        p = self.pos
        if p >= self.bit_len:
            self.overrun += 1
            return 0
        self.pos = p + 1
        return (self.data[p >> 3] >> (7 - (p & 7))) & 1


def packaged_manifest() -> dict:
    ref = resources.files("nlts") / "dataset_specs" / "manifest.json"
    with resources.as_file(ref) as path:
        with open(path, encoding="utf-8") as f:
            return json.load(f)


def arithmetic_encode(payload: bytes) -> BitStream:
    model = FrequencyModel()
    out = BitWriter()
    low, high, pending = 0, MASK, 0
    for sym in chain(payload, (EOF_SYMBOL,)):
        lo_c, hi_c, total = model.interval(sym)
        rng = high - low + 1
        high = low + hi_c * rng // total - 1
        low = low + lo_c * rng // total
        while True:
            if (low ^ high) & TOP == 0:
                bit = low >> (STATE_BITS - 1)
                out.write_bit(bit)
                for _ in range(pending):
                    out.write_bit(bit ^ 1)
                pending = 0
                low = (low << 1) & MASK
                high = ((high << 1) & MASK) | 1
            elif low & ~high & SECOND:
                pending += 1
                low = (low << 1) & (MASK >> 1)
                high = ((high << 1) & (MASK >> 1)) | TOP | 1
            else:
                break
        if sym != EOF_SYMBOL:
            model.update(sym)
    out.write_bit(1)
    return out.getvalue()


def arithmetic_decode(data: bytes, bit_len=None) -> bytes:
    model = FrequencyModel()
    reader = PaddedBitReader(data, bit_len)
    low, high = 0, MASK
    code = 0
    for _ in range(STATE_BITS):
        code = (code << 1) | reader.read_bit()
    out = bytearray()
    while True:
        assert reader.overrun <= 64, "reference decoder run past stream end"
        total = model.total
        rng = high - low + 1
        value = ((code - low + 1) * total - 1) // rng
        sym = model.locate(value)
        lo_c = model.cumulative(sym)
        hi_c = lo_c + model.counts[sym]
        high = low + hi_c * rng // total - 1
        low = low + lo_c * rng // total
        while True:
            if (low ^ high) & TOP == 0:
                code = ((code << 1) & MASK) | reader.read_bit()
                low = (low << 1) & MASK
                high = ((high << 1) & MASK) | 1
            elif low & ~high & SECOND:
                code = (code & TOP) | ((code << 1) & (MASK >> 1)) | reader.read_bit()
                low = (low << 1) & (MASK >> 1)
                high = ((high << 1) & (MASK >> 1)) | TOP | 1
            else:
                break
        if sym == EOF_SYMBOL:
            return bytes(out)
        out.append(sym)
        model.update(sym)


def huffman_lengths_bruteforce(histogram: dict) -> dict:
    """Minimum-cost prefix-code lengths by exhaustive tree search.

    Only feasible for tiny alphabets; used to pin expected code lengths.
    """
    syms = sorted(histogram)
    if len(syms) == 1:
        return {syms[0]: 1}

    def trees(leaves):
        if len(leaves) == 1:
            yield leaves[0]
            return
        seen = set()
        for split in range(1, len(leaves)):
            for lset in _subsets(leaves, split):
                rset = tuple(s for s in leaves if s not in lset)
                key = (lset, rset)
                if key in seen or (rset, lset) in seen:
                    continue
                seen.add(key)
                for lt in trees(lset):
                    for rt in trees(rset):
                        yield (lt, rt)

    def _subsets(items, k):
        from itertools import combinations

        return combinations(items, k)

    def depths(tree, d=0):
        if not isinstance(tree, tuple):
            yield tree, max(d, 1)
            return
        yield from depths(tree[0], d + 1)
        yield from depths(tree[1], d + 1)

    best = None
    best_cost = None
    for t in trees(tuple(syms)):
        dmap = dict(depths(t))
        cost = sum(histogram[s] * dmap[s] for s in syms)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best = dmap
    return best
