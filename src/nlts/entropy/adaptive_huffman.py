"""One-pass adaptive Huffman coder (FGK update discipline).

Escape-free variant: the tree starts out holding all 257 symbols (every
byte value plus a terminator) at weight 1, so encoder and decoder stay in
lockstep from the first bit.  After each coded symbol its leaf weight is
incremented under the classic swap rule: on the way to the root, every
node first trades places with the highest-numbered node of its weight
class.

The tree is five flat lists.  Leaves are ids 1..257 (symbol + 1) and
internal nodes 258..513 for good.  Node p's children sit at child[2 * p]
(left) and child[2 * p + 1]; slot[n] is n's index in child, so n's parent
is slot[n] >> 1 and slot[n] & 1 is the code bit that leads to n.  Node n
weighs weight_at[num_of[n]] and node_at inverts num_of, where numbers obey
the sibling property (weights nondecreasing with number, siblings
adjacent), so a node leads its weight class unless the next number weighs
the same, and a binary search finds the leader.  The initial tree is the
two-queue Huffman construction in symbol order (FORMAT.md section 4.2):
each merge takes the two oldest unpaired nodes, since a merged node weighs
at least 2 and no less than those merged before it, and a leaf wins ties.
So internal node p has children 2(p - 257) - 1 and 2(p - 257).

Both directions run the same update loop from the leaf to the root.  The
encoder first reads the leaf's code on one walk up and emits it as one
int, since a swap moves the path the code is read from; it then updates
from the leaf.  The decoder expands the stream _CHUNK bytes at a time
into 0/1 byte values and walks child[(node << 1) | bit] over them in one
loop, updating at each leaf; a walk cut by the end of a chunk goes on in
the next.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain

from ..errors import CorruptStream
from .bitio import FLUSH_BITS, BitStream, finish, spill
from .model import EOF_SYMBOL, NUM_SYMBOLS

_NUM_NODES = 2 * NUM_SYMBOLS - 1
_ROOT = _NUM_NODES
#: stream bytes the decoder expands at a time
_CHUNK = 256
#: "0"/"1" digits to 0/1 byte values
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _initial_tree():
    """The five lists of the initial code tree, built once."""
    size = _NUM_NODES + 1  # ids/numbers are 1-based
    child = [0] * (2 * size)
    slot = [0] * size
    weight = [0] + [1] * NUM_SYMBOLS + [0] * (NUM_SYMBOLS - 1)
    # the closed form of the module docstring; ids are sibling-property numbers
    for p in range(NUM_SYMBOLS + 1, size):
        a = 2 * (p - NUM_SYMBOLS) - 1
        child[2 * p] = a
        child[2 * p + 1] = a + 1
        slot[a] = 2 * p
        slot[a + 1] = 2 * p + 1
        weight[p] = weight[a] + weight[a + 1]

    # number <-> node maps start as the identity
    return child, slot, list(range(size)), list(range(size)), weight


_INITIAL_TREE = _initial_tree()


def encode(payload: bytes) -> BitStream:
    child, slot, num_of, node_at, weight_at = (lst[:] for lst in _INITIAL_TREE)
    out = bytearray()
    acc = 0
    nacc = 0
    # the terminator's update after its code is wasted but harmless
    for sym in chain(payload, (EOF_SYMBOL,)):
        # value collects the code from its last bit up
        node = sym + 1
        value = 0
        length = 0
        up = node  # the code is read before the update moves its path
        while up != _ROOT:
            s = slot[up]
            value |= (s & 1) << length
            length += 1
            up = s >> 1
        acc = (acc << length) | value
        nacc += length
        if nacc >= FLUSH_BITS:
            acc, nacc = spill(out, acc, nacc)
        while node != _ROOT:
            n = num_of[node]
            w = weight_at[n]
            # node leads its weight class unless the next number weighs the
            # same; ancestors weigh more, so the leader is never its parent
            if weight_at[n + 1] == w:
                num = bisect_right(weight_at, w, n + 2) - 1
                leader = node_at[num]
                # swap the equal-weight subtrees, leaving node on the left
                # of a sibling pair, as the stream format has always done
                s = slot[node]
                t = slot[leader]
                if s ^ t == 1:
                    t = s & ~1
                    s = t | 1
                child[s] = leader
                child[t] = node
                slot[leader] = s
                slot[node] = t
                num_of[leader] = n
                node_at[n] = leader
                num_of[node] = num
                node_at[num] = node
                n = num
            weight_at[n] = w + 1
            node = slot[node] >> 1
        weight_at[_ROOT] += 1
    return finish(out, acc, nacc)


def decode(data: bytes, max_len: float) -> bytes:
    child, slot, num_of, node_at, weight_at = (lst[:] for lst in _INITIAL_TREE)
    # every symbol costs at least one bit, so checking the output length
    # before each chunk of 8 * _CHUNK bits stops within 2,048 symbols of
    # max_len
    bytepos = 0
    node = _ROOT
    out = bytearray()
    append = out.append
    while True:
        if len(out) > max_len:
            raise CorruptStream("adaptive huffman stream decodes past its declared size")
        if bytepos >= len(data):
            raise CorruptStream("adaptive huffman stream ended before its terminator")
        chunk = data[bytepos : bytepos + _CHUNK]
        bytepos += _CHUNK
        digits = format(int.from_bytes(chunk, "big"), f"0{8 * len(chunk)}b")
        # a walk cut by the end of the chunk goes on in the next one
        for bit in digits.encode().translate(_DIGITS):
            node = child[(node << 1) | bit]
            if node > NUM_SYMBOLS:
                continue
            if node > EOF_SYMBOL:  # the terminator
                if len(out) > max_len:
                    raise CorruptStream(
                        "adaptive huffman stream decodes past its declared size"
                    )
                return bytes(out)
            append(node - 1)
            while node != _ROOT:  # the encoder's swapping update; it ends at the root
                n = num_of[node]
                w = weight_at[n]
                if weight_at[n + 1] == w:
                    num = bisect_right(weight_at, w, n + 2) - 1
                    leader = node_at[num]
                    s = slot[node]
                    t = slot[leader]
                    if s ^ t == 1:
                        t = s & ~1
                        s = t | 1
                    child[s] = leader
                    child[t] = node
                    slot[leader] = s
                    slot[node] = t
                    num_of[leader] = n
                    node_at[n] = leader
                    num_of[node] = num
                    node_at[num] = node
                    n = num
                weight_at[n] = w + 1
                node = slot[node] >> 1
            weight_at[_ROOT] += 1
