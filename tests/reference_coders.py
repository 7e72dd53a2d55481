"""Test-only reference code: plain coders used as differential oracles.

The coders mirror the normative stream definitions (FORMAT.md) in the most
literal way possible and stay independent of the optimized implementations
in nlts.entropy: they move one bit at a time through BitWriter and
BitReader below.  The adaptive arithmetic reference renormalizes one bit per
loop iteration, talks to the FrequencyModel class below (the same model
arithmetic.py inlines into its loops), and reads through PaddedBitReader,
which feeds zeros past the end of the stream.  The static Huffman reference
writes and reads its length table as FORMAT.md 4.1 words it, one symbol at
a time, and walks the canonical code one bit at a time; the FGK reference
keeps its tree as parent/left/right lists with a separate swap step
(FgkTree).
"""

from bisect import bisect_right
from collections import Counter, deque
from itertools import chain, groupby

from nlts.core import read_varints, write_varints
from nlts.entropy.bitio import BitStream
from nlts.entropy.model import EOF_SYMBOL, NUM_SYMBOLS, RESCALE_CEILING
from nlts.entropy.static_huffman import code_lengths
from nlts.errors import CorruptStream


class BitsExhausted(Exception):
    """BitReader ran past the end; each reference decoder turns it into CorruptStream."""

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


class BitWriter:
    """MSB-first bit writer; getvalue() zero-pads the last byte."""

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
        data = bytes(self._buf)
        if self._ncur:
            data += bytes((self._cur << (8 - self._ncur),))
        return BitStream(data=data)


class BitReader:
    """MSB-first bit reader; raises BitsExhausted past the end."""

    __slots__ = ("_data", "_bit_len", "_pos")

    def __init__(self, data: bytes, bit_len=None, bit_pos: int = 0):
        self._data = data
        self._bit_len = 8 * len(data) if bit_len is None else bit_len
        self._pos = bit_pos

    def read_bit(self) -> int:
        p = self._pos
        if p >= self._bit_len:
            raise BitsExhausted("bit stream exhausted")
        self._pos = p + 1
        return (self._data[p >> 3] >> (7 - (p & 7))) & 1


class PaddedBitReader:
    """MSB-first bit reader that returns 0 past the end and counts the overrun."""

    def __init__(self, data: bytes):
        self.data = data
        self.bit_len = 8 * len(data)
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


def arithmetic_decode(data: bytes) -> bytes:
    model = FrequencyModel()
    reader = PaddedBitReader(data)
    low, high = 0, MASK
    code = 0
    for _ in range(STATE_BITS):
        code = (code << 1) | reader.read_bit()
    out = bytearray()
    while True:
        if reader.overrun > 64:
            raise CorruptStream("reference decoder run past stream end")
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


def canonical_codes(lengths: dict) -> dict:
    """Map symbol -> (length, code): symbols sorted by (length, value) take
    consecutive codes, shifted left at each length increase."""
    codes = {}
    code = 0
    prev = 0
    for length, sym in sorted((l, s) for s, l in lengths.items()):
        code <<= length - prev
        codes[sym] = (length, code)
        code += 1
        prev = length
    return codes


def write_length_table(lengths: dict, out: bytearray) -> None:
    """FORMAT.md 4.1: symbols 0..255 in order, a present symbol as its code
    length, each run of absent symbols as a zero byte and its count, split
    into runs of at most 255."""
    for present, run in groupby(range(256), key=lambda sym: lengths.get(sym, 0) > 0):
        run = list(run)
        if present:
            out.extend(lengths[sym] for sym in run)
        else:
            for start in range(0, len(run), 255):
                out.extend((0, len(run[start : start + 255])))


def read_length_table(data: bytes, pos: int):
    """The table write_length_table writes, from data[pos:]; returns
    ({symbol: length} of the present symbols, the position after it)."""
    lengths = {}
    sym = 0
    while sym < 256:
        if pos >= len(data):
            raise CorruptStream("huffman table truncated")
        length = data[pos]
        pos += 1
        if length:
            lengths[sym] = length
            sym += 1
            continue
        if pos >= len(data):
            raise CorruptStream("huffman table truncated")
        run = data[pos]
        pos += 1
        if not 1 <= run <= 256 - sym:
            raise CorruptStream("huffman table zero-run out of range")
        sym += run
    return lengths, pos


def static_huffman_encode(payload: bytes) -> BitStream:
    lengths = code_lengths(Counter(payload))
    out = bytearray()
    write_varints((len(payload),), out, signed=False)
    write_length_table(lengths, out)
    writer = BitWriter()
    if payload:
        codes = canonical_codes(lengths)
        for b in payload:
            length, code = codes[b]
            writer.write_bits(code, length)
    return BitStream(data=bytes(out) + writer.getvalue().data)


def static_huffman_decode(data: bytes) -> bytes:
    count_field = []
    pos = read_varints(data, 0, 1, count_field, signed=False, max_bits=32)
    lengths, pos = read_length_table(data, pos)
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

    reader = BitReader(data, bit_pos=8 * pos)
    out = bytearray()
    try:
        for _ in range(count):
            acc = 0
            l = 0
            while True:
                acc = (acc << 1) | reader.read_bit()
                l += 1
                if l > max_len:
                    raise CorruptStream("bit pattern matches no huffman code")
                idx = acc - first[l]
                group = by_len[l]
                if 0 <= idx < len(group):
                    out.append(group[idx])
                    break
    except BitsExhausted:
        raise CorruptStream("huffman stream ended mid-code") from None
    return bytes(out)


FGK_NODES = 2 * NUM_SYMBOLS - 1


class FgkTree:
    """FGK code tree as parent/left/right lists; node ids are initial numbers."""

    def __init__(self):
        size = FGK_NODES + 1
        parent = [0] * size
        left = [0] * size
        right = [0] * size
        weight = [0] * size
        for n in range(1, NUM_SYMBOLS + 1):
            weight[n] = 1
        leaves = deque(range(1, NUM_SYMBOLS + 1))
        internal = deque()
        nxt = NUM_SYMBOLS + 1
        while len(leaves) + len(internal) > 1:
            pair = []
            for _ in range(2):
                if leaves and (not internal or weight[leaves[0]] <= weight[internal[0]]):
                    pair.append(leaves.popleft())
                else:
                    pair.append(internal.popleft())
            a, b = pair
            left[nxt], right[nxt] = a, b
            parent[a] = parent[b] = nxt
            weight[nxt] = weight[a] + weight[b]
            internal.append(nxt)
            nxt += 1
        self.parent = parent
        self.left = left
        self.right = right
        self.weight = weight
        self.root = FGK_NODES
        self.num_of = list(range(size))
        self.node_at = list(range(size))
        self.weight_at = weight[:]

    def code_bits(self, sym: int) -> list:
        """Root-to-leaf bit path for a symbol (0 = left)."""
        bits = []
        node = sym + 1
        while node != self.root:
            p = self.parent[node]
            bits.append(0 if self.left[p] == node else 1)
            node = p
        bits.reverse()
        return bits

    def _swap(self, a: int, b: int) -> None:
        # For siblings the two child assignments below leave a on the left;
        # the stream format depends on exactly this.
        pa, pb = self.parent[a], self.parent[b]
        if self.left[pa] == a:
            self.left[pa] = b
        else:
            self.right[pa] = b
        if self.left[pb] == b:
            self.left[pb] = a
        else:
            self.right[pb] = a
        self.parent[a], self.parent[b] = pb, pa
        na, nb = self.num_of[a], self.num_of[b]
        self.num_of[a], self.num_of[b] = nb, na
        self.node_at[na], self.node_at[nb] = b, a

    def update(self, sym: int) -> None:
        node = sym + 1
        while node:
            w = self.weight[node]
            if node != self.root:
                leader = self.node_at[bisect_right(self.weight_at, w) - 1]
                if leader != node:
                    self._swap(node, leader)
            self.weight[node] = w + 1
            self.weight_at[self.num_of[node]] = w + 1
            node = self.parent[node]


def fgk_encode(payload: bytes) -> BitStream:
    tree = FgkTree()
    out = BitWriter()
    for sym in payload:
        for bit in tree.code_bits(sym):
            out.write_bit(bit)
        tree.update(sym)
    for bit in tree.code_bits(EOF_SYMBOL):
        out.write_bit(bit)
    return out.getvalue()


def fgk_decode(data: bytes) -> bytes:
    tree = FgkTree()
    reader = BitReader(data)
    out = bytearray()
    try:
        while True:
            node = tree.root
            while tree.left[node]:
                node = tree.right[node] if reader.read_bit() else tree.left[node]
            sym = node - 1
            if sym == EOF_SYMBOL:
                return bytes(out)
            out.append(sym)
            tree.update(sym)
    except BitsExhausted:
        raise CorruptStream("adaptive huffman stream ended before its terminator") from None


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
