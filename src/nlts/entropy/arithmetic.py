"""Adaptive binary-renormalized arithmetic coder (32-bit integer ranges).

Both directions narrow an interval by the model's cumulative interval for
each symbol and double it as its ends lose leading agreement.  The
terminator symbol closes the stream, followed by a single 1 bit so the
final interval is identifiable under zero padding.  The 32-bit state width
and the model's 2^16 rescale ceiling are normative: changing either changes
the bit stream.

FORMAT.md 4.3 words the coder as a [low, high] window of 32-bit integers
that emits agreeing bits and defers straddle bits.  Here the ends are exact
integers, low and an exclusive top = high + 1, so every shift is a plain
low <<= n; top <<= n.  A straddle step differs from that only in bit 31,
which it flips in both ends, so the agreeing bits, the straddle test and
the straddle run read the same from the ends' low 32 bits.  The encoder's
bits above them are the stream: bits-plus-follow output is the binary
expansion of the exact low, a deferred straddle bit a carry not yet known
(Witten, Neal & Cleary 1987; Moffat, Neal & Witten 1998).  With p bits
deferred, low reads 0 1..1 and top - 1 reads 1 0..0 above the window, and
a later low += carries into them or not.  Right after an agreeing shift
none is deferred, so no carry reaches the bits above the window and their
whole bytes go out.

The frequency model is inlined into the coding loops.  Symbols 0..4 -- the
deviations 0, +-1 and +-2 after zigzag, which dominate the transform's
output -- keep their cumulative counts in locals b1..b5, where b_k sums the
counts of the symbols below k, so coding one of them needs no tree at all:
the encoder reads its interval off two locals and the decoder finds it with
at most four compares after one test against b5.  The counts of symbols
5..256 sit at positions 5..256 of a Fenwick tree whose positions 1..4 stay
0, so a symbol s >= 5 starts at b5 plus the tree's prefix below s.  The
tree's root, node 256, holds only their sum and is never read, so the tree
stops at node 255.  The encoder sums precomputed per-symbol index tuples;
the decoder's 8-step descent is unrolled and applies the decoded symbol's
increment on its way down.  At the rescale the locals go back into the
count list, are halved with the rest and are read out again.  The output is
bit-identical to the one-bit-at-a-time formulation of the model in model.py.
"""

from __future__ import annotations

from itertools import accumulate, chain

from ..errors import CorruptStream
from .bitio import FLUSH_BITS, BitStream, finish
from .model import EOF_SYMBOL, NUM_SYMBOLS, RESCALE_CEILING

_STATE_BITS = 32
_MASK = (1 << _STATE_BITS) - 1
# a straddle reads low's bit 30 as 1 and high's as 0, and its run goes on below
_STRADDLE = 1 << (_STATE_BITS - 2)
_RUN = _MASK >> 1
# low >> _SPILL is nonzero once FLUSH_BITS stream bits lie above the window
_SPILL = _STATE_BITS + FLUSH_BITS

# A healthy stream never needs more than the state width of padding bits
# past its end; needing more means the stream was torn.
_MAX_OVERRUN = 2 * _STATE_BITS
# The decoder checks the overrun before each 32-bit refill and no symbol
# shifts in more than 18 bits, so it never reads past this much zero padding.
_PAD = bytes((_MAX_OVERRUN + 2 * _STATE_BITS) // 8)

# Fenwick nodes 1..255 over the counts of symbols 5..255 (index 0 unused);
# symbols below _LOCAL keep their counts in the coding loops' locals.
_TREE_LEN = EOF_SYMBOL
_LOCAL = 5


def _fenwick_paths():
    """Per tree symbol s >= _LOCAL, the Fenwick nodes summed for counts[5..s-1]
    (_DOWN) and the nodes an increment of counts[s] touches (_UP).  Nodes
    below _LOCAL cover only positions 1..4 and stay 0, so no path names
    them, and the rows of the local symbols 0..4 are empty."""
    down = [()] * _LOCAL
    up = [()] * _LOCAL
    for sym in range(_LOCAL, NUM_SYMBOLS):
        path = []
        i = sym - 1
        while i >= _LOCAL:
            path.append(i)
            i &= i - 1
        down.append(tuple(path))
        path = []
        i = sym
        while i < _TREE_LEN:
            path.append(i)
            i += i & -i
        up.append(tuple(path))
    return tuple(down), tuple(up)


_DOWN, _UP = _fenwick_paths()


def _fresh_tree(counts):
    tree = [0] * _TREE_LEN
    for i in range(_LOCAL, _TREE_LEN):
        tree[i] += counts[i]
        j = i + (i & -i)
        if j < _TREE_LEN:
            tree[j] += tree[i]
    return tree


_INITIAL_TREE = _fresh_tree([1] * NUM_SYMBOLS)


def _halved(counts, b1, b2, b3, b4, b5):
    """The model after a rescale: (counts, b1, b2, b3, b4, b5, total, tree)."""
    counts[:_LOCAL] = b1, b2 - b1, b3 - b2, b4 - b3, b5 - b4
    counts = [(c + 1) >> 1 for c in counts]
    return (counts, *accumulate(counts[:_LOCAL]), sum(counts), _fresh_tree(counts))


def _check(consumed, overrun_limit, decoded, max_len):
    if consumed > overrun_limit:
        raise CorruptStream("arithmetic stream ended before its terminator")
    if decoded > max_len:
        raise CorruptStream("arithmetic stream decodes past its declared size")


def encode(payload: bytes) -> BitStream:
    counts = [1] * NUM_SYMBOLS  # counts[:5] are stale; b1..b5 hold them
    b1, b2, b3, b4, b5 = 1, 2, 3, 4, 5
    tree = _INITIAL_TREE[:]
    total = NUM_SYMBOLS

    out = bytearray()
    # exact ends; a sentinel 1 heads the stream bits above low's window
    low, top = 1 << _STATE_BITS, 2 << _STATE_BITS

    for sym in chain(payload, (EOF_SYMBOL,)):
        rng = top - low
        if sym > 4:
            lo_c = b5
            for i in _DOWN[sym]:
                lo_c += tree[i]
            c = counts[sym]
            top = low + (lo_c + c) * rng // total
            low += lo_c * rng // total
            # the terminator's update is never used
            counts[sym] = c + 1
            for i in _UP[sym]:
                tree[i] += 1
        elif not sym:
            top = low + b1 * rng // total
            b1 += 1
            b2 += 1
            b3 += 1
            b4 += 1
            b5 += 1
        else:
            if sym == 1:
                lo_c = b1
                top = low + b2 * rng // total
                b2 += 1
                b3 += 1
                b4 += 1
            elif sym == 2:
                lo_c = b2
                top = low + b3 * rng // total
                b3 += 1
                b4 += 1
            elif sym == 3:
                lo_c = b3
                top = low + b4 * rng // total
                b4 += 1
            else:
                lo_c = b4
                top = low + b5 * rng // total
            b5 += 1
            low += lo_c * rng // total
        total += 1
        if total >= RESCALE_CEILING:
            counts, b1, b2, b3, b4, b5, total, tree = _halved(counts, b1, b2, b3, b4, b5)

        k = _STATE_BITS - ((low ^ (top - 1)) & _MASK).bit_length()
        if k:
            low <<= k
            top <<= k
            if low >> _SPILL:
                # no bit is deferred: the whole bytes above the window go out
                n = low.bit_length() - _STATE_BITS - 1
                shift = _STATE_BITS + (n & 7)
                head = low >> shift
                out += head.to_bytes(1 + (n >> 3), "big")[1:]
                head = (head - 1) << shift
                low -= head
                top -= head
        if (s := low & -top) & _STRADDLE:
            # j straddle shifts at once: low reads 1 and high 0 below the top
            j = _STATE_BITS - 1 - (~s & _RUN).bit_length()
            low <<= j
            top <<= j

    # drop the p deferred straddle bits; one disambiguating bit
    p = ((low ^ (top - 1)) >> _STATE_BITS).bit_length()
    head = low >> (_STATE_BITS + p)
    n = head.bit_length() - 1
    return finish(out, ((head - (1 << n)) << 1) | 1, n + 1)


def decode(data: bytes, max_len: float) -> bytes:
    counts = [1] * NUM_SYMBOLS  # counts[:5] are stale; b1..b5 hold them
    b1, b2, b3, b4, b5 = 1, 2, 3, 4, 5
    tree = _INITIAL_TREE[:]
    total = NUM_SYMBOLS
    # Counts stay >= 1 under a total below 2**16, so a symbol costs at least
    # -log2(1 - 256 / 2**16) ~ 0.0056 bits: checking the output length and
    # the overrun at each 32-bit refill stops within ~5,800 symbols of
    # max_len.  The overrun is the count of stream bits consumed before the
    # terminator's renormalization, so the terminator returns before it.
    overrun_limit = 8 * len(data) + _MAX_OVERRUN

    # MSB-first bit window over data, feeding zeros past the end; the low
    # wbits bits of window are the next stream bits
    data = bytes(data) + _PAD
    bytepos = _STATE_BITS // 8
    window = 0
    wbits = 0

    # The code value lies in [low, top), so the scaled search value lies in
    # [0, total); a shift doubles code and low alike, so only d = code - low is kept.
    low, top = 0, 1 << _STATE_BITS
    d = int.from_bytes(data[:bytepos], "big")

    out = bytearray()
    append = out.append
    while True:
        rng = top - low
        value = ((d + 1) * total - 1) // rng
        if value >= b5:
            # Fenwick descent over symbols 5..256 for value - b5, unrolled
            # over the 8 powers of two from 128 down; sym - 1 is the
            # position reached so far.  The empty positions 1..4 never stop
            # it.  The nodes where the descent does not advance are exactly
            # _UP[sym], the nodes covering counts[sym], so each else branch
            # applies the symbol's increment as it passes.  The terminator
            # advances at every step.
            rem = value - b5
            t = tree[128]
            if t <= rem:
                rem -= t
                sym = 129
            else:
                tree[128] = t + 1
                sym = 1
            t = tree[sym + 63]
            if t <= rem:
                rem -= t
                sym += 64
            else:
                tree[sym + 63] = t + 1
            t = tree[sym + 31]
            if t <= rem:
                rem -= t
                sym += 32
            else:
                tree[sym + 31] = t + 1
            t = tree[sym + 15]
            if t <= rem:
                rem -= t
                sym += 16
            else:
                tree[sym + 15] = t + 1
            t = tree[sym + 7]
            if t <= rem:
                rem -= t
                sym += 8
            else:
                tree[sym + 7] = t + 1
            t = tree[sym + 3]
            if t <= rem:
                rem -= t
                sym += 4
            else:
                tree[sym + 3] = t + 1
            t = tree[sym + 1]
            if t <= rem:
                rem -= t
                sym += 2
            else:
                tree[sym + 1] = t + 1
            t = tree[sym]
            if t <= rem:
                rem -= t
                sym += 1
            else:
                tree[sym] = t + 1
            if sym == EOF_SYMBOL:
                _check(8 * bytepos - wbits, overrun_limit, len(out), max_len)
                return bytes(out)
            lo_c = value - rem
            c = counts[sym]
            top = low + (lo_c + c) * rng // total
            step = lo_c * rng // total
            low += step
            d -= step
            counts[sym] = c + 1
            append(sym)
        elif value < b1:
            top = low + b1 * rng // total
            b1 += 1
            b2 += 1
            b3 += 1
            b4 += 1
            b5 += 1
            append(0)
        else:
            if value < b2:
                lo_c = b1
                top = low + b2 * rng // total
                b2 += 1
                b3 += 1
                b4 += 1
                append(1)
            elif value < b3:
                lo_c = b2
                top = low + b3 * rng // total
                b3 += 1
                b4 += 1
                append(2)
            elif value < b4:
                lo_c = b3
                top = low + b4 * rng // total
                b4 += 1
                append(3)
            else:
                lo_c = b4
                top = low + b5 * rng // total
                append(4)
            b5 += 1
            step = lo_c * rng // total
            low += step
            d -= step
        total += 1
        if total >= RESCALE_CEILING:
            counts, b1, b2, b3, b4, b5, total, tree = _halved(counts, b1, b2, b3, b4, b5)

        # n leading bits agree (none when the top bits differ)
        n = _STATE_BITS - ((low ^ (top - 1)) & _MASK).bit_length()
        if n:
            low <<= n
            top <<= n
        if (s := low & -top) & _STRADDLE:
            j = _STATE_BITS - 1 - (~s & _RUN).bit_length()
            low <<= j
            top <<= j
            n += j
        if n:
            if wbits < n:
                _check(8 * bytepos - wbits, overrun_limit, len(out), max_len)
                chunk = int.from_bytes(data[bytepos : bytepos + 4], "big")
                window = ((window & ((1 << wbits) - 1)) << 32) | chunk
                bytepos += 4
                wbits += 32
                top -= low & ~_MASK  # the ends' common base above the window
                low &= _MASK
            wbits -= n
            d = (d << n) | ((window >> wbits) & ((1 << n) - 1))
