"""One-pass adaptive Huffman coder (FGK update discipline).

Escape-free variant: the tree starts out holding all 257 symbols (every
byte value plus a terminator) at weight 1, so no not-yet-transmitted escape
machinery is needed and encoder and decoder stay in lockstep from the first
bit.  After each coded symbol its leaf weight is incremented under the
classic swap rule: on the way to the root, every node first trades places
with the highest-numbered node of its weight class.

The node numbering obeys the sibling property (weights nondecreasing with
number, siblings adjacent), which makes the weight-class leader a binary
search over the number-ordered weight list; a node whose next number
weighs more is its own leader and needs no search.  The initial tree, part
of the stream format, is the two-queue Huffman construction in symbol order
(FORMAT.md section 4.2).  Over 257 leaves of weight 1 each merge takes the
two oldest unpaired nodes: a merged node weighs at least 2, no less than
those merged before it, and a leaf wins ties.  So internal node p
(258..513) has children 2(p - 257) - 1 and 2(p - 257).  It is built once
at import and copied per call.

The encoder emits each root-to-leaf path as one (value, length) int into
an accumulator that spills whole bytes; the decoder walks the tree from a
local int window over whole bytes.  The update dominates both sides.
"""

from __future__ import annotations

from bisect import bisect_right

from ..errors import CorruptStream
from .bitio import FLUSH_BITS, BitStream, finish, spill
from .model import EOF_SYMBOL, NUM_SYMBOLS

_NUM_NODES = 2 * NUM_SYMBOLS - 1
_ROOT = _NUM_NODES


def _initial_tree():
    """The five lists of the initial code tree (see _Tree), built once."""
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


class _Tree:
    """Code tree with FGK updates; node ids are their initial numbers.

    Leaves are ids 1..257 (symbol + 1) and internal nodes 258..513 for
    good, so a node is a leaf exactly when its id is at most 257.  The
    children of node p sit at child[2 * p] (left) and child[2 * p + 1]
    (right); slot[n] is n's index in child, so n's parent is slot[n] >> 1
    and slot[n] & 1 is the code bit that leads to n.  Weights are kept by
    number only: node n weighs weight_at[num_of[n]].
    """

    __slots__ = ("child", "slot", "num_of", "node_at", "weight_at")

    def __init__(self):
        self.child, self.slot, self.num_of, self.node_at, self.weight_at = (
            lst[:] for lst in _INITIAL_TREE
        )

    def code(self, sym: int):
        """(value, length) of the symbol's root-to-leaf path, 0 = left."""
        slot = self.slot
        node = sym + 1
        value = 0
        length = 0
        while node != _ROOT:
            s = slot[node]
            value |= (s & 1) << length
            length += 1
            node = s >> 1
        return value, length

    def update(self, sym: int) -> None:
        """Increment the symbol's weight, swapping to keep sibling order."""
        child = self.child
        slot = self.slot
        weight_at = self.weight_at
        num_of = self.num_of
        node_at = self.node_at
        node = sym + 1
        while node != _ROOT:
            n = num_of[node]
            w = weight_at[n]
            # Weights never decrease with number, so node leads its weight
            # class unless the next number weighs the same.  Ancestors weigh
            # strictly more, so the leader is never node's parent.
            if weight_at[n + 1] == w:
                num = bisect_right(weight_at, w, n + 2) - 1
                leader = node_at[num]
                # Swap the subtrees at node and leader; their weights are
                # equal, so weight_at needs no change.  Siblings end up with
                # node on the left, as the stream format has always done.
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


def encode(payload: bytes) -> BitStream:
    tree = _Tree()
    code = tree.code
    update = tree.update
    out = bytearray()
    acc = 0
    nacc = 0
    for sym in payload:
        value, length = code(sym)
        acc = (acc << length) | value
        nacc += length
        if nacc >= FLUSH_BITS:
            acc, nacc = spill(out, acc, nacc)
        update(sym)
    value, length = code(EOF_SYMBOL)
    return finish(out, (acc << length) | value, nacc + length)


def decode(data: bytes, max_len: float) -> bytes:
    tree = _Tree()
    child = tree.child
    update = tree.update
    # every symbol costs at least one bit, so checking the output length at
    # each refill (at most 64 bits) stops within 64 symbols of max_len
    # The window holds the next wbits stream bits in its low bits and is
    # refilled up to 8 bytes at a time.
    dlen = len(data)
    bytepos = 0
    window = 0
    wbits = 0
    out = bytearray()
    append = out.append
    while True:
        node = _ROOT
        while node > NUM_SYMBOLS:
            if not wbits:
                if len(out) > max_len:
                    raise CorruptStream(
                        "adaptive huffman stream decodes past its declared size"
                    )
                if bytepos >= dlen:
                    raise CorruptStream(
                        "adaptive huffman stream ended before its terminator"
                    )
                chunk = data[bytepos : bytepos + 8]
                window = int.from_bytes(chunk, "big")
                wbits = 8 * len(chunk)
                bytepos += 8
            wbits -= 1
            node = child[(node << 1) | ((window >> wbits) & 1)]
        sym = node - 1
        if sym == EOF_SYMBOL:
            if len(out) > max_len:
                raise CorruptStream("adaptive huffman stream decodes past its declared size")
            return bytes(out)
        append(sym)
        update(sym)
