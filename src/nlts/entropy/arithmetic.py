"""Adaptive binary-renormalized arithmetic coder (32-bit integer ranges).

Encoder and decoder keep a [low, high] window of 32-bit integers, narrow it
by the model's cumulative interval for each symbol, and emit/consume bits as
the window loses leading agreement; straddle states are deferred as pending
underflow bits.  The terminator symbol closes the stream, followed by a
single 1 bit so the final window is identifiable under zero padding.

The 32-bit state width and the model's 2^16 rescale ceiling are normative:
changing either changes the bit stream.  For throughput, renormalization is
batched (all agreeing leading bits leave in one step -- after a straddle
shift the top bits differ, so agreement can only occur once per symbol) and
the frequency model's Fenwick tree is inlined into the coding loops: each
symbol's prefix-sum and update indices are tuples computed at import, and
the decoder's 9-step descent is unrolled over a tree padded past its last
node and applies the decoded symbol's increment on its way down.  Output
bits collect in an int accumulator that spills whole bytes, and the decoder
reads whole bytes.  The output is bit-identical to the plain
one-bit-at-a-time formulation.
"""

from __future__ import annotations

import math
from itertools import chain

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


def _fenwick_paths():
    """Per symbol s, the Fenwick indices summed for counts[0..s-1] (_DOWN)
    and the indices an increment of counts[s] touches (_UP)."""
    down = []
    up = []
    for sym in range(NUM_SYMBOLS):
        path = []
        i = sym
        while i:
            path.append(i)
            i &= i - 1
        down.append(tuple(path))
        path = []
        i = sym + 1
        while i <= NUM_SYMBOLS:
            path.append(i)
            i += i & -i
        up.append(tuple(path))
    return tuple(down), tuple(up)


_DOWN, _UP = _fenwick_paths()

# The decoder's descent probes indices up to 256 + 128; entries past the
# last real node hold a value above any search target, so the descent never
# steps onto them and needs no bound check.
_TREE_LEN = 512
_PAST_END = RESCALE_CEILING


def _fresh_tree(counts):
    n = len(counts)
    tree = [0] * (n + 1)
    for i in range(1, n + 1):
        tree[i] += counts[i - 1]
        j = i + (i & -i)
        if j <= n:
            tree[j] += tree[i]
    tree += [_PAST_END] * (_TREE_LEN - n - 1)
    return tree


def encode(payload: bytes) -> BitStream:
    counts = [1] * NUM_SYMBOLS
    tree = _fresh_tree(counts)
    total = NUM_SYMBOLS

    out = bytearray()
    acc = 0        # pending output bits, MSB-first
    nacc = 0
    low = 0
    high = _MASK
    pending = 0

    for sym in chain(payload, (EOF_SYMBOL,)):
        lo_c = 0
        for i in _DOWN[sym]:
            lo_c += tree[i]
        hi_c = lo_c + counts[sym]
        rng = high - low + 1
        high = low + hi_c * rng // total - 1
        low = low + lo_c * rng // total

        x = low ^ high
        if x & _TOP == 0:
            k = _STATE_BITS - x.bit_length()
            bits = low >> (_STATE_BITS - k)
            first = bits >> (k - 1)
            acc = (acc << 1) | first
            nacc += 1
            if pending:
                if first == 0:
                    acc = (acc << pending) | ((1 << pending) - 1)
                else:
                    acc <<= pending
                nacc += pending
                pending = 0
            if k > 1:
                acc = (acc << (k - 1)) | (bits & ((1 << (k - 1)) - 1))
                nacc += k - 1
            low = (low << k) & _MASK
            high = ((high << k) & _MASK) | ((1 << k) - 1)
            if nacc >= FLUSH_BITS:
                acc, nacc = spill(out, acc, nacc)
        while low & ~high & _SECOND:
            pending += 1
            low = (low << 1) & _HALF_MASK
            high = ((high << 1) & _HALF_MASK) | _TOP | 1

        if sym == EOF_SYMBOL:
            break
        counts[sym] += 1
        total += 1
        for i in _UP[sym]:
            tree[i] += 1
        if total >= RESCALE_CEILING:
            counts = [(c + 1) >> 1 for c in counts]
            total = sum(counts)
            tree = _fresh_tree(counts)

    # one disambiguating bit; deferred underflow bits are never needed
    return finish(out, (acc << 1) | 1, nacc + 1)


def decode(data: bytes, max_len: float = math.inf) -> bytes:
    counts = [1] * NUM_SYMBOLS
    tree = _fresh_tree(counts)
    total = NUM_SYMBOLS
    # Counts stay >= 1 under a total below 2**16, so a symbol costs at least
    # -log2(1 - 256 / 2**16) ~ 0.0056 bits: checking the output length
    # whenever a byte is read stops within ~1,450 symbols of max_len.
    overrun_limit = 8 * len(data) + _MAX_OVERRUN

    # MSB-first bit window over data, feeding zeros past the end
    dlen = len(data)
    bytepos = 0
    window = 0
    wbits = 0
    fed = 0

    low = 0
    high = _MASK
    while wbits < _STATE_BITS:
        window = (window << 8) | (data[bytepos] if bytepos < dlen else 0)
        bytepos += 1
        fed += 8
        wbits += 8
    wbits -= _STATE_BITS
    code = (window >> wbits) & _MASK
    window &= (1 << wbits) - 1

    out = bytearray()
    append = out.append
    while True:
        if fed - wbits > overrun_limit:
            raise CorruptStream("arithmetic stream ended before its terminator")
        rng = high - low + 1
        value = ((code - low + 1) * total - 1) // rng
        if not 0 <= value < total:
            raise CorruptStream("arithmetic decoder left its coding range")
        # Fenwick descent for the symbol whose interval holds value,
        # unrolled over the 9 powers of two from 256 down.  For a symbol
        # below 256 the nodes where the descent does not advance are
        # exactly _UP[sym], the nodes covering counts[sym], so each else
        # branch applies the symbol's increment as it passes.  The EOF
        # symbol also bumps nodes past the end, but it ends decoding.
        rem = value
        t = tree[256]
        if t <= rem:
            rem -= t
            sym = 256
        else:
            tree[256] = t + 1
            sym = 0
        t = tree[sym + 128]
        if t <= rem:
            rem -= t
            sym += 128
        else:
            tree[sym + 128] = t + 1
        t = tree[sym + 64]
        if t <= rem:
            rem -= t
            sym += 64
        else:
            tree[sym + 64] = t + 1
        t = tree[sym + 32]
        if t <= rem:
            rem -= t
            sym += 32
        else:
            tree[sym + 32] = t + 1
        t = tree[sym + 16]
        if t <= rem:
            rem -= t
            sym += 16
        else:
            tree[sym + 16] = t + 1
        t = tree[sym + 8]
        if t <= rem:
            rem -= t
            sym += 8
        else:
            tree[sym + 8] = t + 1
        t = tree[sym + 4]
        if t <= rem:
            rem -= t
            sym += 4
        else:
            tree[sym + 4] = t + 1
        t = tree[sym + 2]
        if t <= rem:
            rem -= t
            sym += 2
        else:
            tree[sym + 2] = t + 1
        t = tree[sym + 1]
        if t <= rem:
            rem -= t
            sym += 1
        else:
            tree[sym + 1] = t + 1
        lo_c = value - rem
        hi_c = lo_c + counts[sym]
        high = low + hi_c * rng // total - 1
        low = low + lo_c * rng // total

        x = low ^ high
        if x & _TOP == 0:
            k = _STATE_BITS - x.bit_length()
            while wbits < k:
                if len(out) > max_len:
                    raise CorruptStream("arithmetic stream decodes past its declared size")
                window = (window << 8) | (data[bytepos] if bytepos < dlen else 0)
                bytepos += 1
                fed += 8
                wbits += 8
            wbits -= k
            code = ((code << k) | ((window >> wbits) & ((1 << k) - 1))) & _MASK
            window &= (1 << wbits) - 1
            low = (low << k) & _MASK
            high = ((high << k) & _MASK) | ((1 << k) - 1)
        while low & ~high & _SECOND:
            if wbits == 0:
                if len(out) > max_len:
                    raise CorruptStream("arithmetic stream decodes past its declared size")
                window = (data[bytepos] if bytepos < dlen else 0)
                bytepos += 1
                fed += 8
                wbits = 8
            wbits -= 1
            code = (code & _TOP) | ((code << 1) & _HALF_MASK) | ((window >> wbits) & 1)
            window &= (1 << wbits) - 1
            low = (low << 1) & _HALF_MASK
            high = ((high << 1) & _HALF_MASK) | _TOP | 1

        if sym == EOF_SYMBOL:
            if len(out) > max_len:
                raise CorruptStream("arithmetic stream decodes past its declared size")
            return bytes(out)
        append(sym)
        counts[sym] += 1
        total += 1
        if total >= RESCALE_CEILING:
            counts = [(c + 1) >> 1 for c in counts]
            total = sum(counts)
            tree = _fresh_tree(counts)
