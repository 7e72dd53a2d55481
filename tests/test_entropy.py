import importlib.util
import math
import random
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

from nlts import entropy
from nlts.container import CodecConfig
from nlts.core import write_varints
from nlts.entropy import (
    ADAPTIVE_ARITHMETIC,
    ADAPTIVE_HUFFMAN,
    STATIC_HUFFMAN,
    adaptive_huffman,
    arithmetic,
    static_huffman,
)
from nlts.entropy.bitio import finish
from nlts.entropy.model import EOF_SYMBOL, NUM_SYMBOLS, RESCALE_CEILING
from nlts.errors import CorruptStream, UnsupportedVersion
from nlts.quantizer import LOSSLESS, quantize_stream
from nlts.transform import encode_blocks

from reference_coders import (
    MASK,
    SECOND,
    STATE_BITS,
    TOP,
    BitReader,
    BitsExhausted,
    BitWriter,
    FGK_NODES,
    FgkTree,
    FrequencyModel,
    PaddedBitReader,
    arithmetic_decode,
    arithmetic_encode,
    canonical_codes,
    fgk_decode,
    fgk_encode,
    huffman_lengths_bruteforce,
    read_length_table,
    static_huffman_decode,
    static_huffman_encode,
    write_length_table,
)

ALL_CODERS = (STATIC_HUFFMAN, ADAPTIVE_HUFFMAN, ADAPTIVE_ARITHMETIC)


def random_payloads(seed, count, max_len=4096):
    rng = random.Random(seed)
    yield b""
    yield b"\x00"
    yield bytes(range(256))
    for _ in range(count):
        n = rng.randrange(0, max_len)
        kind = rng.randrange(4)
        if kind == 0:
            yield bytes(rng.randrange(256) for _ in range(n))
        elif kind == 1:
            yield bytes(rng.choices(range(4), k=n))
        elif kind == 2:
            yield bytes(rng.choices([0, 1, 7, 200], weights=[90, 5, 4, 1], k=n))
        else:
            yield rng.randbytes(n // 2) * 2


class TestRoundTrip:
    @pytest.mark.parametrize("coder", ALL_CODERS)
    def test_empty(self, coder):
        assert entropy.decode(entropy.encode(b"", coder).data, coder, 0) == b""

    @pytest.mark.parametrize("coder", ALL_CODERS)
    def test_two_byte_alternation(self, coder):
        payload = bytes([0x00, 0xFF] * 100)
        assert entropy.decode(entropy.encode(payload, coder).data, coder, 200) == payload

    @pytest.mark.parametrize("coder", ALL_CODERS)
    def test_constant_source_compresses(self, coder):
        payload = b"A" * 1000
        stream = entropy.encode(payload, coder)
        assert len(stream.data) < 1000
        assert entropy.decode(stream.data, coder, 1000) == payload

    @pytest.mark.parametrize("coder", ALL_CODERS)
    def test_random_payloads(self, coder):
        for payload in random_payloads(700 + coder, 120):
            stream = entropy.encode(payload, coder)
            assert entropy.decode(stream.data, coder, len(payload)) == payload

    @pytest.mark.parametrize("coder", ALL_CODERS)
    def test_deterministic(self, coder):
        payload = bytes(random.Random(701).randbytes(2000))
        a = entropy.encode(payload, coder)
        b = entropy.encode(payload, coder)
        assert a.data == b.data

    @pytest.mark.parametrize("coder", ALL_CODERS)
    def test_stream_is_whole_bytes(self, coder):
        # the container and the benchmark tracer read a stream's .data as bytes
        for payload in (b"", b"\x05", bytes(range(256)) * 3):
            assert type(entropy.encode(payload, coder).data) is bytes

    def test_unknown_coder_id(self):
        with pytest.raises(UnsupportedVersion):
            entropy.encode(b"x", 9)
        with pytest.raises(UnsupportedVersion):
            entropy.decode(b"x", 9, 1)


class TestDecodeBound:
    """entropy.decode(data, coder, max_len) never returns more than max_len bytes."""

    @pytest.mark.parametrize("coder", ALL_CODERS)
    def test_exact_bound_decodes_one_less_raises(self, coder):
        # short skewed payloads end with no input read after the last
        # symbol, so only the check at the terminator catches them
        rng = random.Random(720 + coder)
        payloads = [bytes(n) for n in range(1, 100)]
        payloads += [bytes(rng.choices(range(3), k=n)) for n in range(1, 100)]
        payloads.append(bytes(rng.choices(range(8), k=3000)))
        for payload in payloads:
            stream = entropy.encode(payload, coder)
            assert entropy.decode(stream.data, coder, len(payload)) == payload
            with pytest.raises(CorruptStream):
                entropy.decode(stream.data, coder, len(payload) - 1)

    def test_zero_bytes_stop_near_the_bound(self):
        # all-zero input decodes to ~1,400 symbols a byte; unbounded, 10 kB
        # would take tens of seconds before the terminator check fires
        with pytest.raises(CorruptStream, match="past its declared size"):
            arithmetic.decode(bytes(10_000), 21)

    def test_static_declared_count_checked_first(self):
        stream = entropy.encode(bytes(100), STATIC_HUFFMAN)
        with pytest.raises(CorruptStream, match="symbol count 100 exceeds"):
            static_huffman.decode(stream.data, 99)


@pytest.mark.slow
class TestRoundTripExhaustive:
    @pytest.mark.parametrize("coder", ALL_CODERS)
    def test_ten_thousand_payloads(self, coder):
        # full-size sweep: lengths up to 64 KiB, 10^4 payloads per coder; the
        # arithmetic streams also match the reference (FORMAT.md 4.3) bit for
        # bit, so a change made to both directions cannot drift from it
        rng = random.Random(710 + coder)
        for i in range(10_000):
            n = min(int(rng.paretovariate(0.7) * 8), 65536)
            payload = bytes(rng.choices(range(256), k=n)) if i % 2 else rng.randbytes(n)
            stream = entropy.encode(payload, coder)
            if coder == ADAPTIVE_ARITHMETIC:
                assert stream.data == arithmetic_encode(payload).data
            assert entropy.decode(stream.data, coder, len(payload)) == payload


class TestStaticHuffman:
    def test_code_lengths_small_histogram(self):
        hist = {ord("A"): 5, ord("B"): 2, ord("C"): 1, ord("D"): 1}
        lengths = static_huffman.code_lengths(hist)
        oracle = huffman_lengths_bruteforce(hist)
        assert lengths == oracle == {
            ord("A"): 1, ord("B"): 2, ord("C"): 3, ord("D"): 3,
        }

    def test_lengths_cost_matches_bruteforce(self):
        rng = random.Random(720)
        for _ in range(60):
            syms = rng.sample(range(256), rng.randrange(2, 6))
            hist = {s: rng.randrange(1, 40) for s in syms}
            got = static_huffman.code_lengths(hist)
            best = huffman_lengths_bruteforce(hist)
            cost = lambda lens: sum(hist[s] * lens[s] for s in hist)
            assert cost(got) == cost(best)

    def test_single_symbol_gets_one_bit(self):
        assert static_huffman.code_lengths({65: 10}) == {65: 1}

    def test_canonical_codes_are_prefix_free(self):
        rng = random.Random(721)
        for _ in range(40):
            syms = rng.sample(range(256), rng.randrange(1, 30))
            hist = {s: rng.randrange(1, 100) for s in syms}
            codes = canonical_codes(static_huffman.code_lengths(hist))
            rendered = [format(c, f"0{l}b") for l, c in codes.values()]
            for i, a in enumerate(rendered):
                for j, b in enumerate(rendered):
                    if i != j:
                        assert not b.startswith(a)

    def test_kraft_inequality(self):
        rng = random.Random(722)
        for _ in range(60):
            syms = rng.sample(range(256), rng.randrange(1, 60))
            hist = {s: rng.randrange(1, 1000) for s in syms}
            lengths = static_huffman.code_lengths(hist)
            assert sum(2.0 ** -l for l in lengths.values()) <= 1.0 + 1e-12

    def test_truncated_table(self):
        with pytest.raises(CorruptStream):
            static_huffman.decode(bytes([5, 1]), math.inf)  # count=5, table cut off

    def test_truncated_code_bits(self):
        stream = static_huffman.encode(b"ABCABCAA" * 20)
        cut = stream.data[: len(stream.data) - 2]
        with pytest.raises(CorruptStream):
            static_huffman.decode(cut, math.inf)

    def test_no_code_matches(self):
        # lengths {0: 1, 1: 2} give codes 0 and 10; the pattern 11 is no code
        table = bytes([1, 2, 0, 254])
        data = bytes([1]) + table + bytes([0b11000000])
        with pytest.raises(CorruptStream, match="matches no huffman code"):
            static_huffman.decode(data, math.inf)
        # eight symbols: seven 0s, then a 1 whose code runs past the last byte
        with pytest.raises(CorruptStream, match="ended mid-code"):
            static_huffman.decode(bytes([8]) + table + bytes([0b00000001]), math.inf)

    def test_overlong_count_rejected(self):
        with pytest.raises(CorruptStream):
            static_huffman.decode(bytes([0xFF] * 6), math.inf)

    def test_overfull_table_rejected(self):
        # 256 one-bit codes cannot satisfy Kraft
        table = bytes([1] * 256)
        data = bytes([10]) + table
        with pytest.raises(CorruptStream):
            static_huffman.decode(data, math.inf)


def synth_symbols(shape, samples, digits=3, version=2, seed=7):
    """The symbol stream, at L=16 and tau=9, of perfbench's seeded shape as
    its workloads code it; perfbench/synth.py is only read."""
    spec = importlib.util.spec_from_file_location(
        "synth", Path(__file__).parents[1] / "perfbench" / "synth.py"
    )
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    codes = quantize_stream(synth.SHAPES[shape](random.Random(seed), samples), digits)[0]
    cfg = CodecConfig(method_version=version, digits=digits)
    return bytes(encode_blocks(codes, cfg))


def motion_symbols(version, samples=21_000, seed=7):
    """The symbol stream, at d=3, of perfbench's seeded motion signal as its
    motion-coders workload codes it; its files hold 12,000 samples, and
    21,000 give over 30,000 symbols."""
    return synth_symbols("motion", samples, version=version, seed=seed)


def fgk_code_spans(payload):
    """(start bit, length) of each code in the FGK stream of payload, the
    terminator's last, from the reference tree."""
    tree = FgkTree()
    spans = []
    pos = 0
    for sym in chain(payload, (EOF_SYMBOL,)):
        length = len(tree.code_bits(sym))
        spans.append((pos, length))
        pos += length
        tree.update(sym)
    return spans


class ReadLog(bytes):
    """bytes that remember the furthest byte any slice of them reached."""

    reached = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.reached = max(self.reached, min(key.stop, len(self)))
        return super().__getitem__(key)


class TestAdaptiveHuffman:
    """The tree invariants are checked on the reference FgkTree; the coder
    keeps no tree object, and its bit identity with the reference (here and
    in TestMatchesReference) pins it to the same tree."""

    def test_initial_tree_sibling_property(self):
        self._check_sibling(FgkTree())

    def test_sibling_property_preserved_by_updates(self):
        rng = random.Random(730)
        payload = bytes(rng.randrange(256) for _ in range(3000))
        tree = FgkTree()
        for sym in payload:
            tree.update(sym)
        self._check_sibling(tree)
        assert adaptive_huffman.encode(payload).data == fgk_encode(payload).data

    def test_kraft_equality_always(self):
        # a full binary code tree satisfies Kraft with equality
        rng = random.Random(731)
        payload = bytes(rng.choice([0, 1, 2, 250]) for _ in range(2000))
        tree = FgkTree()
        for step, sym in enumerate(payload):
            tree.update(sym)
            if step % 400 == 0:
                total = sum(2.0 ** -len(tree.code_bits(s)) for s in range(NUM_SYMBOLS))
                assert abs(total - 1.0) < 1e-9
        assert adaptive_huffman.encode(payload).data == fgk_encode(payload).data

    def test_adapts_to_skew(self):
        payload = bytes([7] * 5000)
        stream = adaptive_huffman.encode(payload)
        # converges to ~1 bit per symbol once weight dominates
        assert 8 * len(stream.data) < 1.2 * len(payload) + 64

    def test_truncated_stream(self):
        stream = adaptive_huffman.encode(b"hello world" * 30)
        with pytest.raises(CorruptStream):
            adaptive_huffman.decode(stream.data[:4], math.inf)

    @pytest.mark.parametrize("kind", ["uniform", "skewed", "motion-v1", "motion-v2", "one-byte"])
    def test_long_payloads_match_reference(self, kind):
        rng = random.Random(732)
        payload = {
            "uniform": lambda: rng.randbytes(30_000),
            "skewed": lambda: bytes(
                rng.choices(range(40), weights=[2.0**-k for k in range(40)], k=30_000)
            ),
            "motion-v1": lambda: motion_symbols(1),
            "motion-v2": lambda: motion_symbols(2),
            "one-byte": lambda: bytes([0x5A]) * 20_000,
        }[kind]()
        assert len(payload) >= (20_000 if kind == "one-byte" else 30_000)
        fast = adaptive_huffman.encode(payload)
        assert fast.data == fgk_encode(payload).data
        assert adaptive_huffman.decode(fast.data, len(payload)) == payload
        assert fgk_decode(fast.data) == payload

    def test_codes_across_refill_boundaries(self):
        # The decoder expands _CHUNK stream bytes at a time and carries a
        # walk cut by the end of a chunk into the next one.  Random payloads cut the 8- and
        # 9-bit codes that cross the chunk boundaries at every split.
        rng = random.Random(733)
        edge = 8 * adaptive_huffman._CHUNK
        splits = set()
        for _ in range(60):
            payload = rng.randbytes(rng.randrange(edge // 4, edge // 2))
            fast = adaptive_huffman.encode(payload)
            assert adaptive_huffman.decode(fast.data, len(payload)) == payload
            for start, length in fgk_code_spans(payload):
                cut = -start % edge
                if 0 < cut < length:
                    splits.add((length, cut))
        for length in (8, 9):
            assert {cut for l, cut in splits if l == length} == set(range(1, length))
        # A longer code at every split: after a steeply skewed warm-up and
        # a run of 0s, a 0 costs one bit, so k more 0s move the next code k
        # bits on without changing it.
        warm = bytes(rng.choices(range(40), weights=[2.0**-j for j in range(40)], k=3000))
        warm += bytes(2000)
        tree = FgkTree()
        pos = 0
        for sym in warm:
            pos += len(tree.code_bits(sym))
            tree.update(sym)
        assert len(tree.code_bits(0)) == 1
        rare = max(range(256), key=lambda sym: len(tree.code_bits(sym)))
        length = len(tree.code_bits(rare))
        assert length >= 12
        tail = bytes(rng.choices(range(40), k=500))
        for cut in range(1, length):
            payload = warm + bytes((-cut - pos) % edge) + bytes([rare]) + tail
            fast = adaptive_huffman.encode(payload)
            assert adaptive_huffman.decode(fast.data, len(payload)) == payload
            if cut == length // 2:
                assert fast.data == fgk_encode(payload).data
                start, _ = fgk_code_spans(payload)[len(payload) - len(tail) - 1]
                assert -start % edge == cut

    def test_bound_stops_within_one_refill(self):
        # entropy.decode's docstring: a stream longer than max_len raises
        # within 8 * _CHUNK symbols of the bound.  The decoder reads the
        # stream a chunk at a time and decodes every code it has read before
        # it checks, so the codes inside the bytes it reached count the
        # symbols it decoded.  One-bit codes make the bound tight.
        rng = random.Random(734)
        per_refill = 8 * adaptive_huffman._CHUNK
        for payload in (bytes(40_000), rng.randbytes(30_000)):
            spans = fgk_code_spans(payload)[:-1]
            data = adaptive_huffman.encode(payload).data
            past = []
            for bound in (0, 1, 999, 4_000, 12_345, len(payload) - 1):
                log = ReadLog(data)
                with pytest.raises(CorruptStream, match="past its declared size"):
                    adaptive_huffman.decode(log, bound)
                decoded = sum(start + length <= 8 * log.reached for start, length in spans)
                assert bound < decoded <= bound + per_refill
                past.append(decoded - bound)
            if not any(payload):  # one bit a symbol: the bound is nearly reached
                assert max(past) > per_refill // 2

    def _check_sibling(self, tree):
        # weights nondecreasing in number order; siblings hold adjacent
        # numbers; parents outnumber both children
        n = FGK_NODES
        weights = tree.weight_at[1 : n + 1]
        assert weights == sorted(weights)
        assert sorted(tree.num_of[1 : n + 1]) == list(range(1, n + 1))
        assert all(tree.node_at[tree.num_of[i]] == i for i in range(1, n + 1))
        assert all(tree.weight_at[tree.num_of[i]] == tree.weight[i] for i in range(1, n + 1))
        internal = [node for node in range(1, n + 1) if tree.left[node]]
        assert len(internal) == NUM_SYMBOLS - 1
        for node in internal:
            l, r = tree.left[node], tree.right[node]
            assert tree.parent[l] == tree.parent[r] == node
            assert abs(tree.num_of[l] - tree.num_of[r]) == 1
            assert tree.num_of[node] > max(tree.num_of[l], tree.num_of[r])
            assert tree.weight[node] == tree.weight[l] + tree.weight[r]
        for leaf in range(1, NUM_SYMBOLS + 1):
            assert tree.left[leaf] == tree.right[leaf] == 0


def rescales(payload):
    """How often the reference model halves its counts while coding payload."""
    model = FrequencyModel()
    halvings = 0
    for sym in payload:
        before = model.total
        model.update(sym)
        halvings += model.total < before
    return halvings


class TestArithmetic:
    def test_matches_reference_bit_for_bit(self):
        for payload in random_payloads(740, 80, max_len=3000):
            fast = arithmetic.encode(payload)
            ref = arithmetic_encode(payload)
            assert fast.data == ref.data
            assert arithmetic.decode(fast.data, len(payload)) == payload
            assert arithmetic_decode(fast.data) == payload

    @pytest.mark.parametrize("n", [65_278, 65_279, 65_280, 140_000])
    def test_rescale_ceiling_matches_reference(self, n):
        # the model halves once the total reaches 2^16, after 65,279 symbols:
        # 65,278 stop one short, 65,279 halve just before the terminator
        # and 65,280 code one more symbol after the halving; 140,000 halve
        # three times, twice with counts that were halved before.  Symbols
        # 0..4 keep their counts outside the coder's tree, 5 is the first
        # inside it.
        rng = random.Random(743)
        alphabet = [0, 1, 2, 3, 4, 5, 7, 255]
        skewed = bytes(rng.choices(alphabet, weights=[40, 12, 10, 9, 8, 8, 2, 11], k=n))
        for payload in (skewed, rng.randbytes(n)):
            fast = arithmetic.encode(payload)
            ref = arithmetic_encode(payload)
            assert fast.data == ref.data
            assert arithmetic.decode(fast.data, n) == payload
            assert arithmetic_decode(fast.data) == payload
        assert rescales(skewed) == {65_278: 0, 65_279: 1, 65_280: 1, 140_000: 3}[n]

    @pytest.mark.parametrize("kind", ["stepwise", "pulse", "plateau"])
    def test_long_payloads_match_reference(self, kind):
        # the seed-7 symbol streams of a gateway-chunks window at --digits 3
        # and at --lossless, and of a plateau-long file, where symbols 0..4
        # (the deviations 0, +-1 and +-2) are a large share
        payload = {
            "stepwise": lambda: synth_symbols("stepwise", 1_024),
            "pulse": lambda: synth_symbols("pulse", 1_024, digits=LOSSLESS),
            "plateau": lambda: synth_symbols("drift_plateau", 50_000),
        }[kind]()
        assert sum(sym < 5 for sym in payload) > len(payload) // 8
        fast = arithmetic.encode(payload)
        assert fast.data == arithmetic_encode(payload).data
        assert arithmetic.decode(fast.data, len(payload)) == payload
        assert arithmetic_decode(fast.data) == payload
        # the decoder's bound (entropy.decode's docstring): one symbol past
        # it raises, and so does any bound below the length
        for bound in (len(payload) - 1, len(payload) // 2):
            with pytest.raises(CorruptStream, match="past its declared size"):
                arithmetic.decode(fast.data, bound)

    def test_fenwick_paths_name_only_tree_nodes(self):
        # symbols 0..4 are coded from locals, and nodes 1..4 cover only their
        # positions, which stay 0: no path reads or bumps them
        local = arithmetic._LOCAL
        assert local == 5
        for table in (arithmetic._DOWN, arithmetic._UP):
            assert len(table) == NUM_SYMBOLS
            assert table[:local] == ((),) * local
            assert all(min(row) >= local for row in table[local:] if row)
        # each path still sums or touches exactly the right counts
        rng = random.Random(744)
        counts = [0] * local + [rng.randrange(1, 1000) for _ in range(local, NUM_SYMBOLS)]
        tree = arithmetic._fresh_tree(counts)
        for sym in range(local, NUM_SYMBOLS):
            assert sum(tree[i] for i in arithmetic._DOWN[sym]) == sum(counts[local:sym])
            covering = {i for i in range(1, len(tree)) if i - (i & -i) < sym <= i}
            assert set(arithmetic._UP[sym]) == covering

    def test_truncated_stream(self):
        stream = arithmetic.encode(bytes(random.Random(741).randbytes(400)))
        with pytest.raises(CorruptStream):
            arithmetic.decode(stream.data[:2], math.inf)

    def test_missing_terminator(self):
        # all-zero bits decode to an endless run of symbol 0 until the
        # overrun guard trips
        with pytest.raises(CorruptStream):
            arithmetic.decode(b"", math.inf)

    def test_model_learning_cost_bound(self):
        # ideal adaptive code length stays within the alphabet-learning
        # budget of the empirical entropy
        rng = random.Random(742)
        for probs, n in [
            ((0.99, 0.01), 4096),
            ((0.7, 0.2, 0.05, 0.05), 16384),
            (tuple(1 / 16 for _ in range(16)), 8192),
        ]:
            pop = list(range(len(probs)))
            payload = bytes(rng.choices(pop, weights=probs, k=n))
            self._check_near_entropy(payload)

    def _check_near_entropy(self, payload):
        n = len(payload)
        hist = Counter(payload)
        h_emp = -sum(c / n * math.log2(c / n) for c in hist.values())
        ideal = self._ideal_bits(payload)
        stream = arithmetic.encode(payload)
        # coder overhead over the model's own Shannon bound is tiny
        assert 8 * len(stream.data) <= ideal + 64
        # the add-one model's code length factors into the multinomial
        # (<= n * H_emp bits) times a C(n+256, 256) mixture term, so the
        # alphabet-learning cost is exactly bounded by its log (valid
        # below the rescale ceiling, so keep n + 257 < 2^16 here)
        assert n + NUM_SYMBOLS < RESCALE_CEILING
        learning = (
            math.lgamma(n + NUM_SYMBOLS)
            - math.lgamma(NUM_SYMBOLS)
            - math.lgamma(n + 1)
        ) / math.log(2)
        eof_cost = math.log2(n + NUM_SYMBOLS)
        assert 8 * len(stream.data) <= h_emp * n + learning + eof_cost + 64

    @staticmethod
    def _ideal_bits(payload):
        # replay the adaptive model, summing -log2 p(symbol), halving
        # included; this is the model's own compression target
        counts = [1] * NUM_SYMBOLS
        total = NUM_SYMBOLS
        bits = 0.0
        for s in payload:
            bits += -math.log2(counts[s] / total)
            counts[s] += 1
            total += 1
            if total >= RESCALE_CEILING:
                counts = [(c + 1) >> 1 for c in counts]
                total = sum(counts)
        bits += -math.log2(counts[EOF_SYMBOL] / total)
        return bits


class StraddleProbe:
    """The reference encoder's window and deferred straddle bits, coded by
    the loop of reference_coders.arithmetic_encode without its output; runs
    holds each settled run of deferred bits as (length, settling bit)."""

    def __init__(self):
        self.model = FrequencyModel()
        self.low, self.high, self.pending = 0, MASK, 0
        self.runs = []

    def code(self, sym):
        lo_c, hi_c, total = self.model.interval(sym)
        low, high = self.low, self.high
        rng = high - low + 1
        high = low + hi_c * rng // total - 1
        low = low + lo_c * rng // total
        while True:
            if (low ^ high) & TOP == 0:
                if self.pending:
                    self.runs.append((self.pending, low >> (STATE_BITS - 1)))
                    self.pending = 0
                low = (low << 1) & MASK
                high = ((high << 1) & MASK) | 1
            elif low & ~high & SECOND:
                self.pending += 1
                low = (low << 1) & (MASK >> 1)
                high = ((high << 1) & (MASK >> 1)) | TOP | 1
            else:
                break
        self.low, self.high = low, high
        if sym != EOF_SYMBOL:
            self.model.update(sym)

    def midpoint_symbol(self):
        """The symbol whose interval holds the frame's midpoint, 2**31."""
        rng = self.high - self.low + 1
        return self.model.locate(((TOP - self.low + 1) * self.model.total - 1) // rng)


class TestStraddleRuns:
    """A straddle shift keeps the frame's midpoint in place, so coding the
    symbol whose interval holds it, again and again, defers straddle bits
    with no agreeing bit to settle them: runs far longer than the encoder's
    flush window (bitio.FLUSH_BITS), which it must hold until a carry
    settles them, or not, or the stream ends."""

    LONG = 200

    @staticmethod
    def midpoint_run(seed=793, most=math.inf):
        """A short random payload, then midpoint symbols until more than
        most bits are deferred or the midpoint symbol is the terminator;
        returns (payload, probe after it, the next midpoint symbol)."""
        payload = bytearray(random.Random(seed).choices(range(8), k=50))
        probe = StraddleProbe()
        for sym in payload:
            probe.code(sym)
        while (sym := probe.midpoint_symbol()) != EOF_SYMBOL and probe.pending <= most:
            payload.append(sym)
            probe.code(sym)
        return payload, probe, sym

    @staticmethod
    def assert_coded(payload):
        payload = bytes(payload)
        stream = arithmetic.encode(payload)
        assert stream.data == arithmetic_encode(payload).data
        assert arithmetic.decode(stream.data, len(payload)) == payload
        assert arithmetic_decode(stream.data) == payload

    @pytest.mark.parametrize("carry", [0, 1])
    def test_a_long_run_settles(self, carry):
        payload, probe, mid = self.midpoint_run(most=self.LONG)
        assert mid != EOF_SYMBOL and probe.pending > self.LONG
        # the symbol above the midpoint's carries into the deferred bits,
        # the one below it does not; each settles the whole run
        settle = mid + 1 if carry else mid - 1
        run = probe.pending
        probe.code(settle)
        assert probe.runs[-1] == (run, carry)
        payload.append(settle)
        self.assert_coded(payload + random.Random(794).randbytes(300))

    def ended_run(self, seed):
        """A midpoint run whose terminator holds the midpoint too, so the
        run outlives it: (payload, deferred bits at the end)."""
        payload, probe, mid = self.midpoint_run(seed)
        assert mid == EOF_SYMBOL
        probe.code(EOF_SYMBOL)
        return bytes(payload), probe.pending

    def test_a_stream_ends_in_a_short_run(self):
        payload, deferred = self.ended_run(790)
        assert deferred > 0
        self.assert_coded(payload)

    def test_a_stream_ends_in_a_long_run(self):
        payload, deferred = self.ended_run(793)
        assert deferred > self.LONG
        data = arithmetic.encode(payload).data
        assert data == arithmetic_encode(payload).data
        # The decoder reads the dropped bits as padding before it reaches
        # the terminator, over 64 of them, so FORMAT.md 4.3's overrun rule
        # rejects the stream, in both decoders.
        assert arithmetic_outcome(data) is None
        assert arithmetic_reference_outcome(data) is None


def fibonacci_counts(distinct):
    counts = [1, 1]
    while len(counts) < distinct:
        counts.append(counts[-1] + counts[-2])
    return counts


def fibonacci_payload(seed, distinct=22):
    """Symbol counts 1, 1, 2, 3, 5, ...: the longest Huffman code is
    distinct - 1 bits, past the static decoder's lookup table."""
    syms = random.Random(seed).sample(range(256), distinct)
    payload = [s for s, c in zip(syms, fibonacci_counts(distinct)) for _ in range(c)]
    random.Random(seed + 1).shuffle(payload)
    return bytes(payload)


REFERENCES = {
    STATIC_HUFFMAN: (static_huffman_encode, static_huffman_decode),
    ADAPTIVE_HUFFMAN: (fgk_encode, fgk_decode),
}


class TestMatchesReference:
    @pytest.mark.parametrize("coder", sorted(REFERENCES))
    def test_bit_for_bit(self, coder):
        ref_encode, ref_decode = REFERENCES[coder]
        payloads = list(random_payloads(770 + coder, 60, max_len=3000))
        payloads.append(fibonacci_payload(772))
        for payload in payloads:
            fast = entropy.encode(payload, coder)
            ref = ref_encode(payload)
            assert fast.data == ref.data
            assert entropy.decode(fast.data, coder, len(payload)) == payload
            assert ref_decode(fast.data) == payload

    def test_fibonacci_payload_needs_long_codes(self):
        lengths = static_huffman.code_lengths(Counter(fibonacci_payload(772)))
        assert max(lengths.values()) > static_huffman._TABLE_BITS


class TestLengthTable:
    """The static Huffman length table (FORMAT.md 4.1), written and read by
    the coder and by the reference's own code."""

    def test_layout(self):
        cases = [
            ({}, b"\x00\xff\x00\x01"),  # 256 absent symbols: runs of 255 and 1
            ({0: 1}, b"\x01\x00\xff"),
            ({255: 30}, b"\x00\xff\x1e"),
            ({1: 2, 3: 2}, b"\x00\x01\x02\x00\x01\x02\x00\xfc"),
        ]
        for lengths, table in cases:
            for write in (write_length_table, static_huffman._write_table):
                out = bytearray()
                write(lengths, out)
                assert out == table
            for read in (read_length_table, static_huffman._read_table):
                assert read(b"\x07" + table + b"\x09", 1) == (lengths, 1 + len(table))

    def test_matches_the_coder(self):
        rng = random.Random(795)
        for _ in range(300):
            syms = rng.sample(range(256), rng.randrange(257))
            lengths = {sym: rng.randrange(1, 80) for sym in syms}
            table = bytearray()
            write_length_table(lengths, table)
            coded = bytearray()
            static_huffman._write_table(lengths, coded)
            assert coded == table
            # whole, cut and damaged tables: the same lengths or the same error
            damaged = bytearray(table)
            for _ in range(rng.randrange(1, 4)):
                damaged[rng.randrange(len(damaged))] = rng.choice((0, 1, rng.randrange(256)))
            for data in (bytes(table), bytes(table[: rng.randrange(len(table))]), bytes(damaged)):
                expected = decode_outcome(read_length_table, data, 0)
                assert repr(decode_outcome(static_huffman._read_table, data, 0)) == repr(expected)


def mutations(data, rng, count):
    """Seeded damaged copies of a stream's bytes: bit flips anywhere in
    them (the final byte's padding too), byte-boundary truncations and
    byte overwrites."""
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0 and data:
            bit = rng.randrange(8 * len(data))
            damaged = bytearray(data)
            damaged[bit >> 3] ^= 0x80 >> (bit & 7)
            yield bytes(damaged)
        elif kind == 1:
            yield data[: rng.randrange(len(data) + 1)]
        elif data:
            damaged = bytearray(data)
            for _ in range(rng.randrange(1, 4)):
                damaged[rng.randrange(len(damaged))] = rng.randrange(256)
            yield bytes(damaged)


def arithmetic_reference_outcome(data):
    """What the reference decoder makes of data: the decoded bytes, or None
    for a rejection (its overrun guard raises CorruptStream)."""
    try:
        return arithmetic_decode(data)
    except CorruptStream:
        return None


def arithmetic_outcome(data, max_len=math.inf):
    try:
        return arithmetic.decode(data, max_len)
    except CorruptStream:
        return None


def decode_outcome(decode, *args):
    """What decode makes of args: the decoded bytes, or the CorruptStream it raises."""
    try:
        return decode(*args)
    except CorruptStream as e:
        return e


class TestDamagedStreams:
    @pytest.mark.parametrize("coder", ALL_CODERS)
    def test_fuzz(self, coder):
        # Damaged input either decodes to some bytes or raises
        # CorruptStream; the Huffman decoders also agree with their
        # references on which, and on the bytes or the message, the
        # arithmetic decoder on the bytes or a rejection.
        rng = random.Random(780 + coder)
        decode = (static_huffman.decode, adaptive_huffman.decode, arithmetic.decode)[coder]
        payloads = [b"", b"\x05", bytes(rng.choices(range(6), k=300)), rng.randbytes(200)]
        if coder == STATIC_HUFFMAN:
            payloads.append(fibonacci_payload(781, distinct=20)[:400])
        for payload in payloads:
            stream = entropy.encode(payload, coder)
            for data in mutations(stream.data, rng, 150):
                outcome = decode_outcome(decode, data, math.inf)
                assert isinstance(outcome, (bytes, CorruptStream))
                if coder in REFERENCES:
                    expected = decode_outcome(REFERENCES[coder][1], data)
                    assert repr(outcome) == repr(expected)
                else:
                    expected = arithmetic_reference_outcome(data)
                    assert (outcome if isinstance(outcome, bytes) else None) == expected

    def test_arithmetic_truncations_match_reference(self):
        # Every byte-boundary cut of a few streams.  The overrun counts the
        # bits consumed before the terminator's own renormalization: cut
        # at 97 bytes, the stream below finds its terminator within the
        # 64-bit limit, then renormalizes past it, and still decodes.
        rng = random.Random(1)
        skewed = bytes(rng.choices(range(6), k=300))
        edge = arithmetic.encode(skewed).data[:97]
        assert arithmetic_reference_outcome(edge) is not None
        assert arithmetic_outcome(edge) == arithmetic_reference_outcome(edge)
        for payload in (b"", b"\x05", skewed, rng.randbytes(200)):
            data = arithmetic.encode(payload).data
            for cut in range(len(data) + 1):
                expected = arithmetic_reference_outcome(data[:cut])
                assert arithmetic_outcome(data[:cut]) == expected


def crafted_static_stream(lengths, symbols, count=None, ones=0):
    """A static Huffman stream coding symbols under the given code lengths,
    which need not be optimal or complete, then ones one bits; count
    overrides the declared symbol count."""
    out = bytearray()
    write_varints((len(symbols) if count is None else count,), out, signed=False)
    write_length_table(lengths, out)
    codes = canonical_codes(lengths)
    writer = BitWriter()
    for sym in symbols:
        length, code = codes[sym]
        writer.write_bits(code, length)
    writer.write_bits((1 << ones) - 1, ones)
    return bytes(out) + writer.getvalue().data


class TestStaticLongCodes:
    """Codes longer than the lookup table, which the decoder reads from its
    64-bit-refilled window; each outcome, bytes or error message, is the
    bit-by-bit reference's."""

    def test_long_code_at_every_refill_offset(self):
        # weights 1, 1, 2, 3, 5, ... over 31 symbols give code lengths 1..30;
        # a 1-bit filler moves each long code to each offset of a 64-bit refill
        syms = random.Random(790).sample(range(256), 31)
        lengths = static_huffman.code_lengths(dict(zip(syms, fibonacci_counts(31))))
        filler = min(syms, key=lengths.get)
        long_syms = [s for s in syms if lengths[s] > static_huffman._TABLE_BITS]
        assert {lengths[s] for s in long_syms} == set(range(12, 31))
        symbols, bit_pos = [], 0
        for sym in long_syms:
            for offset in range(64):
                while bit_pos % 64 != offset:
                    symbols.append(filler)
                    bit_pos += 1
                symbols.append(sym)
                bit_pos += lengths[sym]
        data = crafted_static_stream(lengths, symbols)
        assert static_huffman.decode(data, math.inf) == bytes(symbols)
        for cut in range(len(data) - 8, len(data) + 1):
            self.assert_matches_reference(data[:cut])

    def test_codes_past_64_bits_cut_at_every_byte(self):
        # lengths 1..70 leave the all-ones pattern free.  The second stream
        # declares one symbol more and ends in 78 one bits, which match no
        # code; cut by a byte, it ends in 70, so the 71st bit the reference
        # reads to give up is past the end
        syms = random.Random(791).sample(range(256), 70)
        lengths = {sym: l for l, sym in enumerate(syms, 1)}
        symbols = random.Random(792).sample(syms, 70) + [syms[0]] * 5
        assert sum(map(lengths.get, symbols)) % 8 == 2
        whole = crafted_static_stream(lengths, symbols)
        no_code = crafted_static_stream(lengths, symbols, count=len(symbols) + 1, ones=78)
        for data, message in ((no_code, "bit pattern matches no huffman code"),
                              (no_code[:-1], "huffman stream ended mid-code")):
            assert repr(decode_outcome(static_huffman_decode, data)) == f"CorruptStream({message!r})"
        for data in (whole, no_code):
            for cut in range(len(data) + 1):
                self.assert_matches_reference(data[:cut])

    @pytest.mark.parametrize("longest", [1, 70])
    def test_huge_declared_count_ends_mid_code(self, longest):
        # 2^32 - 1 symbols declared over a few bytes of code bits: the
        # refill-time end check stops the decoder within a window
        syms = random.Random(793).sample(range(256), longest + 1)
        lengths = {sym: min(l, longest) for l, sym in enumerate(syms, 1)}
        data = crafted_static_stream(lengths, syms * 3, count=(1 << 32) - 1)
        self.assert_matches_reference(data)
        with pytest.raises(CorruptStream, match="ended mid-code"):
            static_huffman.decode(data, math.inf)

    @staticmethod
    def assert_matches_reference(data):
        expected = decode_outcome(static_huffman_decode, data)
        assert repr(decode_outcome(static_huffman.decode, data, math.inf)) == repr(expected)


@pytest.mark.slow
class TestDamagedArithmeticExhaustive:
    def test_matches_reference_under_bounds(self):
        # 100 seeds x 5 payloads x 60 mutations, each decoded unbounded,
        # at its payload's length and one below
        for seed in range(100):
            rng = random.Random(900 + seed)
            payloads = [
                b"",
                b"\x05",
                bytes(rng.choices(range(6), k=300)),
                rng.randbytes(200),
                bytes(rng.choices([0] * 20 + [1, 2, 3], k=2000)),
            ]
            for payload in payloads:
                stream = arithmetic.encode(payload)
                for data in mutations(stream.data, rng, 60):
                    expected = arithmetic_reference_outcome(data)
                    for max_len in (math.inf, len(payload), len(payload) - 1):
                        if expected is not None and len(expected) > max_len:
                            expected = None
                        assert arithmetic_outcome(data, max_len) == expected


class TestFrequencyModel:
    def test_counts_match_bruteforce(self):
        rng = random.Random(750)
        model = FrequencyModel()
        shadow = [1] * NUM_SYMBOLS
        for _ in range(5000):
            s = rng.randrange(NUM_SYMBOLS)
            model.update(s)
            shadow[s] += 1
            if sum(shadow) >= RESCALE_CEILING:
                shadow = [(c + 1) >> 1 for c in shadow]
        assert model.counts == shadow
        assert model.total == sum(shadow)
        for s in (0, 1, 128, 256):
            assert model.cumulative(s) == sum(shadow[:s])

    def test_locate_inverts_cumulative(self):
        rng = random.Random(751)
        model = FrequencyModel()
        for _ in range(2000):
            model.update(rng.choice([0, 0, 0, 5, 250]))
        for target in range(0, model.total, 97):
            sym = model.locate(target)
            lo = model.cumulative(sym)
            assert lo <= target < lo + model.counts[sym]

    def test_counts_never_reach_zero(self):
        model = FrequencyModel()
        for _ in range(RESCALE_CEILING + 500):
            model.update(7)
        assert min(model.counts) >= 1
        assert model.total < RESCALE_CEILING


class TestBitIO:
    def test_writer_reader_round_trip(self):
        rng = random.Random(760)
        w = BitWriter()
        bits = [rng.randrange(2) for _ in range(999)]
        for b in bits:
            w.write_bit(b)
        stream = w.getvalue()
        assert w.bit_len == 999
        r = BitReader(stream.data, w.bit_len)
        assert [r.read_bit() for _ in range(999)] == bits
        with pytest.raises(BitsExhausted, match="^bit stream exhausted$"):
            r.read_bit()

    def test_write_bits_msb_first(self):
        w = BitWriter()
        w.write_bits(0b1011, 4)
        w.write_bits(0b0, 1)
        stream = w.getvalue()
        assert stream.data == bytes([0b10110000])
        assert w.bit_len == 5

    def test_finish_matches_writer(self):
        rng = random.Random(761)
        for nbits in (0, 1, 7, 8, 9, 63, 64, 200):
            head = rng.randbytes(rng.randrange(3))
            value = rng.getrandbits(nbits) if nbits else 0
            w = BitWriter()
            for b in head:
                w.write_bits(b, 8)
            w.write_bits(value, nbits)
            assert finish(bytearray(head), value, nbits) == w.getvalue()

    def test_padded_reader_counts_overrun(self):
        r = PaddedBitReader(bytes([0xFF]))
        assert [r.read_bit() for _ in range(8)] == [1] * 8
        assert r.read_bit() == 0
        assert r.overrun == 1
