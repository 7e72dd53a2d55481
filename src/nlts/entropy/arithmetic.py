"""Adaptive binary-renormalized arithmetic coder (32-bit integer ranges).

Encoder and decoder keep a [low, high] window of 32-bit integers, narrow it
by the model's cumulative interval for each symbol, and emit/consume bits as
the window loses leading agreement; straddle states are deferred as pending
underflow bits.  The terminator symbol closes the stream, followed by a
single 1 bit so the final window is identifiable under zero padding.

The 32-bit state width and the model's 2^16 rescale ceiling are normative:
changing either changes the bit stream.  For throughput, renormalization is
batched: all agreeing leading bits leave in one shift, and so do all the
straddle bits that follow them (after the first shift the top bits differ,
so each kind occurs once per symbol).  The k agreeing bits, low's top k,
go out with the p pending straddle bits after the first of them, as its
opposite: 0 1..1 rest and 1 0..0 rest are both bits + ((2**p - 1) << (k - 1))
in k + p bits, so the encoder appends them in one step, with or without
pending bits.

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
count list, are halved with the rest and are read out again.  The decoder
tracks code - low rather than the code itself, which turns both kinds of
shift into one append of stream bits.  Output bits collect in an int
accumulator that spills whole bytes, and the decoder reads four bytes at a
time.  The output is bit-identical to the plain one-bit-at-a-time
formulation of the model in model.py.
"""

from __future__ import annotations

from itertools import accumulate, chain

from ..errors import CorruptStream
from .bitio import FLUSH_BITS, BitStream, finish, spill
from .model import EOF_SYMBOL, NUM_SYMBOLS, RESCALE_CEILING

_STATE_BITS = 32
_MASK = (1 << _STATE_BITS) - 1
_TOP = 1 << (_STATE_BITS - 1)
_SECOND = _TOP >> 1
_HALF_MASK = _MASK >> 1

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
    acc = 0        # pending output bits, MSB-first
    nacc = 0
    low = 0
    high = _MASK
    pending = 0

    for sym in chain(payload, (EOF_SYMBOL,)):
        rng = high - low + 1
        if sym > 4:
            lo_c = b5
            for i in _DOWN[sym]:
                lo_c += tree[i]
            c = counts[sym]
            high = low + (lo_c + c) * rng // total - 1
            low += lo_c * rng // total
            # the terminator's update is never used
            counts[sym] = c + 1
            for i in _UP[sym]:
                tree[i] += 1
        elif not sym:
            high = low + b1 * rng // total - 1
            b1 += 1
            b2 += 1
            b3 += 1
            b4 += 1
            b5 += 1
        else:
            if sym == 1:
                lo_c = b1
                high = low + b2 * rng // total - 1
                b2 += 1
                b3 += 1
                b4 += 1
            elif sym == 2:
                lo_c = b2
                high = low + b3 * rng // total - 1
                b3 += 1
                b4 += 1
            elif sym == 3:
                lo_c = b3
                high = low + b4 * rng // total - 1
                b4 += 1
            else:
                lo_c = b4
                high = low + b5 * rng // total - 1
            b5 += 1
            low += lo_c * rng // total
        total += 1
        if total >= RESCALE_CEILING:
            counts, b1, b2, b3, b4, b5, total, tree = _halved(counts, b1, b2, b3, b4, b5)

        k = _STATE_BITS - (low ^ high).bit_length()
        if k:
            # low's top k bits with the pending straddle bits after the
            # first of them, as its opposite (see the module docstring)
            acc = (acc << (k + pending)) | (
                (low >> (_STATE_BITS - k)) + (((1 << pending) - 1) << (k - 1)))
            nacc += k + pending
            pending = 0
            low = (low << k) & _MASK
            high = ((high << k) & _MASK) | ((1 << k) - 1)
            if nacc >= FLUSH_BITS:
                acc, nacc = spill(out, acc, nacc)
        if low & ~high & _SECOND:
            # j straddle shifts at once: the second bits of low and high
            # read 1 and 0 for the j bits below the top
            j = _STATE_BITS - 1 - ((~low | high) & _HALF_MASK).bit_length()
            pending += j
            low = (low << j) & _HALF_MASK
            high = ((high << j) & _HALF_MASK) | _TOP | ((1 << j) - 1)

    # one disambiguating bit; deferred underflow bits are never needed
    return finish(out, (acc << 1) | 1, nacc + 1)


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

    # The code value always lies in [low, high], so the scaled search value
    # always lies in [0, total).  Both kinds of shift map code and low alike
    # (x -> 2x mod 2^32, or x -> 2x - 2^31 for a straddle), so the decoder
    # keeps only d = code - low: a shift by n bits makes it (d << n) | the
    # next n stream bits.
    low = 0
    high = _MASK
    d = int.from_bytes(data[:bytepos], "big")

    out = bytearray()
    append = out.append
    while True:
        rng = high - low + 1
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
            high = low + (lo_c + c) * rng // total - 1
            step = lo_c * rng // total
            low += step
            d -= step
            counts[sym] = c + 1
            append(sym)
        elif value < b1:
            high = low + b1 * rng // total - 1
            b1 += 1
            b2 += 1
            b3 += 1
            b4 += 1
            b5 += 1
            append(0)
        else:
            if value < b2:
                lo_c = b1
                high = low + b2 * rng // total - 1
                b2 += 1
                b3 += 1
                b4 += 1
                append(1)
            elif value < b3:
                lo_c = b2
                high = low + b3 * rng // total - 1
                b3 += 1
                b4 += 1
                append(2)
            elif value < b4:
                lo_c = b3
                high = low + b4 * rng // total - 1
                b4 += 1
                append(3)
            else:
                lo_c = b4
                high = low + b5 * rng // total - 1
                append(4)
            b5 += 1
            step = lo_c * rng // total
            low += step
            d -= step
        total += 1
        if total >= RESCALE_CEILING:
            counts, b1, b2, b3, b4, b5, total, tree = _halved(counts, b1, b2, b3, b4, b5)

        # n leading bits agree (none when the top bits differ)
        n = _STATE_BITS - (low ^ high).bit_length()
        if n:
            low = (low << n) & _MASK
            high = ((high << n) & _MASK) | ((1 << n) - 1)
        if low & ~high & _SECOND:
            j = _STATE_BITS - 1 - ((~low | high) & _HALF_MASK).bit_length()
            low = (low << j) & _HALF_MASK
            high = ((high << j) & _HALF_MASK) | _TOP | ((1 << j) - 1)
            n += j
        if n:
            if wbits < n:
                _check(8 * bytepos - wbits, overrun_limit, len(out), max_len)
                window = ((window & ((1 << wbits) - 1)) << 32) | int.from_bytes(
                    data[bytepos : bytepos + 4], "big"
                )
                bytepos += 4
                wbits += 32
            wbits -= n
            d = (d << n) | ((window >> wbits) & ((1 << n) - 1))
