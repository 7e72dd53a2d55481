import random

import pytest

from reference_transform import (
    DIFF,
    MODE,
    BadBranchFlag,
    EmptyBlock,
    NonzeroMask,
    QuantizedBlock,
    TransformedBlock,
    decode_stream,
    detect_branch_v2,
    diff_decode,
    diff_encode,
    encode_stream,
    inverse_transform,
    parse_block,
    serialize_block,
    transform_block,
)

from nlts.container import CodecConfig
from nlts.core import INT64_MAX, INT64_MIN, read_varints
from nlts.errors import CodecError, CorruptStream, LengthMismatch
from nlts.transform import (
    compute_mode,
    decode_blocks,
    encode_blocks,
    max_stream_bytes,
)

PAPER_DEVIATIONS = [10, -2, 0, 0, 0, -1, 2, 3, 0, 1, 0, 0, 3, 4, 0, 1]
PAPER_NONZEROS = (10, -2, -1, 2, 3, 1, 3, 4, 1)


def roundtrip(codes, cfg):
    """Reference round trip of one block; the fused functions must agree."""
    tb = transform_block(QuantizedBlock(codes=tuple(codes), scale_exp=0), cfg)
    back = inverse_transform(tb, cfg)
    assert back.codes == tuple(codes), (codes, tb)
    # and through the wire layout
    buf = bytearray()
    serialize_block(tb, buf)
    parsed, pos = parse_block(bytes(buf), 0, cfg.method_version, len(codes))
    assert pos == len(buf)
    back2 = inverse_transform(parsed, cfg)
    assert back2.codes == tuple(codes)
    assert encode_blocks(codes, cfg) == buf
    assert decode_blocks(bytes(buf), cfg, len(codes)) == codes
    return tb


def fused_roundtrip(codes, cfg):
    symbols = encode_blocks(codes, cfg)
    assert decode_blocks(bytes(symbols), cfg, len(codes)) == codes, (codes, cfg)


class TestComputeMode:
    def test_unique_mode(self):
        assert compute_mode([5, 5, 5, 2, 1]) == (5, 3)

    def test_tie_breaks_to_smallest(self):
        assert compute_mode([1, 1, 2, 2]) == (1, 2)
        assert compute_mode([2, 2, -3, -3]) == (-3, 2)

    def test_singleton(self):
        assert compute_mode([9]) == (9, 1)

    def test_empty(self):
        with pytest.raises(ValueError):
            compute_mode([])


class TestDiffCoding:
    @pytest.mark.parametrize(
        "codes,diffs",
        [
            ([3, 5, 4], [3, 2, -1]),
            ([7, 7, 7], [7, 0, 0]),
            ([0, -4, 6], [0, -4, 10]),
        ],
    )
    def test_known(self, codes, diffs):
        assert diff_encode(codes) == diffs
        assert diff_decode(diffs) == codes

    def test_empty(self):
        with pytest.raises(EmptyBlock):
            diff_encode([])
        with pytest.raises(EmptyBlock):
            diff_decode([])


class TestTransformVersion1:
    def test_paper_block_layout(self):
        # The threshold must let the mode branch fire (mode frequency is 7
        # here); the published worked example shows this exact symbol order.
        mod = 1290
        codes = [mod + d for d in PAPER_DEVIATIONS]
        cfg = CodecConfig(method_version=1, block_len=16, tau=7)
        tb = roundtrip(codes, cfg)
        assert tb.branch == MODE
        assert tb.header_values == (1, mod)
        assert tb.mask.value == 51021
        assert tb.payload == PAPER_NONZEROS
        # symbol order on the wire: flag, mode, mask, nonzero values
        assert tb.header_values + (tb.mask.value,) + tb.payload == (
            1, mod, 51021, 10, -2, -1, 2, 3, 1, 3, 4, 1,
        )

    def test_diff_branch_when_mode_rare(self):
        codes = [3, 5, 4, 1] * 4
        cfg = CodecConfig(method_version=1, block_len=16, tau=9)
        tb = roundtrip(codes, cfg)
        assert tb.branch == DIFF
        assert tb.header_values == (0,)
        assert tb.mask is None
        assert tb.payload == tuple(diff_encode(codes))

    def test_threshold_equality_selects_mode(self):
        codes = [5] * 9 + [1, 2, 3, 4, 6, 7, 8]
        cfg = CodecConfig(method_version=1, block_len=16, tau=9)
        assert roundtrip(codes, cfg).branch == MODE

    def test_inverse_diff_example(self):
        cfg = CodecConfig(method_version=1, block_len=16, tau=9)
        tb = TransformedBlock(1, DIFF, (0,), None, (3, 2, -1), 3)
        assert inverse_transform(tb, cfg).codes == (3, 5, 4)

    def test_inverse_constant_block(self):
        cfg = CodecConfig(method_version=1, block_len=16, tau=9)
        tb = TransformedBlock(1, MODE, (1, 42), NonzeroMask(0, 16), (), 16)
        assert inverse_transform(tb, cfg).codes == (42,) * 16

    def test_bad_flag(self):
        cfg = CodecConfig(method_version=1, block_len=16, tau=9)
        tb = TransformedBlock(1, MODE, (2, 42), NonzeroMask(0, 16), (), 16)
        bad_flag = "^version-1 branch flag must be 0 or 1, got 2$"
        with pytest.raises(BadBranchFlag, match=bad_flag):
            inverse_transform(tb, cfg)
        # and at the wire level: zigzag(2) = 4
        with pytest.raises(BadBranchFlag, match=bad_flag):
            parse_block(bytes([4]), 0, 1, 16)
        with pytest.raises(CorruptStream, match=bad_flag):
            decode_blocks(bytes([4]), cfg, 16)


class TestTransformVersion2:
    def test_mode_example(self):
        cfg = CodecConfig(method_version=2, block_len=16, tau=3)
        tb = transform_block(QuantizedBlock(codes=(7, 7, 7, 9), scale_exp=0), cfg)
        assert tb.branch == MODE
        assert tb.header_values == (7,)
        assert tb.mask.value == 0b0001 and tb.mask.width == 4
        assert tb.payload == (2,)
        assert inverse_transform(tb, cfg).codes == (7, 7, 7, 9)

    def test_diff_example(self):
        cfg = CodecConfig(method_version=2, block_len=16, tau=4)
        tb = transform_block(QuantizedBlock(codes=(3, 5, 4, 4), scale_exp=0), cfg)
        assert tb.branch == DIFF
        assert tb.header_values == (3,)
        assert tb.mask.value == 0b1110
        assert tb.payload == (3, 2, -1)
        assert inverse_transform(tb, cfg).codes == (3, 5, 4, 4)

    def test_detect_examples(self):
        assert detect_branch_v2(3, NonzeroMask(0b1110, 4), [3, 2, -1]) == DIFF
        assert detect_branch_v2(7, NonzeroMask(0b0001, 4), [2]) == MODE
        assert detect_branch_v2(5, NonzeroMask(0, 4), []) == MODE

    def test_fallback_diff_block_with_leading_zero(self):
        # x1 == 0 would decode as mode, so the encoder must emit mode
        codes = [0, 4, 9, 1, 7, 2, 8, 3, 6, 5, 11, 13, 17, 19, 23, 29]
        cfg = CodecConfig(method_version=2, block_len=16, tau=9)
        tb = roundtrip(codes, cfg)
        assert tb.branch == MODE
        assert detect_branch_v2(tb.header_values[0], tb.mask, tb.payload) == MODE

    def test_fallback_mode_block_colliding_with_header(self):
        # first deviation equals the mode (x1 = 2 * mode): mode encoding
        # would read back as diff, so the encoder must emit diff
        codes = [10] + [5] * 15
        cfg = CodecConfig(method_version=2, block_len=16, tau=9)
        tb = roundtrip(codes, cfg)
        assert tb.branch == DIFF
        assert detect_branch_v2(tb.header_values[0], tb.mask, tb.payload) == DIFF

    def test_constant_block_decodes_as_mode(self):
        cfg = CodecConfig(method_version=2, block_len=16, tau=9)
        tb = roundtrip([6] * 16, cfg)
        assert tb.branch == MODE
        assert tb.mask.popcount() == 0 and tb.payload == ()


class TestRoundTripProperties:
    CASES = 4000

    @pytest.mark.parametrize("version", [1, 2])
    def test_random_blocks(self, version):
        rng = random.Random(600 + version)
        for _ in range(self.CASES):
            L = rng.choice([16, 32, 64])
            tau = rng.randrange(1, L + 1)
            width = L if rng.random() < 0.7 else rng.randrange(1, L + 1)
            style = rng.random()
            if style < 0.4:  # mode-friendly: tiny alphabet
                codes = rng.choices(range(-3, 4), k=width)
            elif style < 0.7:  # trending: random walk
                codes = []
                v = rng.randrange(-100, 100)
                for _ in range(width):
                    v += rng.randrange(-5, 6)
                    codes.append(v)
            else:  # wild
                codes = [rng.randrange(-(2**31), 2**31) for _ in range(width)]
            cfg = CodecConfig(method_version=version, block_len=L, tau=tau)
            fused_roundtrip(codes, cfg)

    def test_payload_matches_mask_popcount(self):
        rng = random.Random(602)
        for _ in range(1000):
            codes = rng.choices(range(-2, 3), k=16)
            for version in (1, 2):
                cfg = CodecConfig(method_version=version, block_len=16, tau=8)
                tb = transform_block(QuantizedBlock(codes=tuple(codes), scale_exp=0), cfg)
                if tb.mask is not None:
                    assert len(tb.payload) == tb.mask.popcount()

    def test_mode_branch_symbol_budget(self):
        # mode-branch blocks spend header (1 or 2 symbols) + mask + payload
        rng = random.Random(603)
        for _ in range(500):
            codes = rng.choices(range(-1, 2), k=16)
            for version, header_syms in ((1, 2), (2, 1)):
                cfg = CodecConfig(method_version=version, block_len=16, tau=4)
                tb = transform_block(QuantizedBlock(codes=tuple(codes), scale_exp=0), cfg)
                if tb.branch == MODE:
                    n_symbols = header_syms + 1 + len(tb.payload)
                    assert n_symbols <= 16 + 3

    def test_wide_block_mask_beyond_64_bits(self):
        rng = random.Random(604)
        cfg = CodecConfig(method_version=2, block_len=128, tau=20)
        codes = rng.choices(range(-2, 3), k=128)
        tb = roundtrip(codes, cfg)
        assert tb.mask.width == 128

    def test_length_mismatch(self):
        cfg = CodecConfig(method_version=2, block_len=16, tau=9)
        with pytest.raises(LengthMismatch):
            transform_block(QuantizedBlock(codes=(1,) * 17, scale_exp=0), cfg)


class TestResolvability:
    # at least one v2 branch is always classified correctly, including the
    # adversarial block shapes, and the encoder's fallback settles on it
    def test_adversarial_and_random(self):
        rng = random.Random(610)
        cfg = CodecConfig(method_version=2, block_len=16, tau=9)
        for trial in range(20_000):
            kind = trial % 4
            if kind == 0:
                codes = [0] + rng.choices(range(-5, 6), k=15)  # x1 = 0
            elif kind == 1:
                m = rng.randrange(1, 50)
                codes = [2 * m] + [m] * rng.randrange(8, 15)  # x1 = 2 * mode
                codes += rng.choices(range(-5, 6), k=16 - len(codes))
            elif kind == 2:
                codes = [0] * 16  # all zero
            else:
                codes = rng.choices(range(-4, 5), k=16)
            tb = transform_block(QuantizedBlock(codes=tuple(codes), scale_exp=0), cfg)
            assert detect_branch_v2(tb.header_values[0], tb.mask, tb.payload) == tb.branch
            assert inverse_transform(tb, cfg).codes == tuple(codes)


class TestConfigValidation:
    def test_block_len_power_of_two(self):
        for bad in (8, 12, 17, 0, 1 << 16):
            with pytest.raises(ValueError):
                CodecConfig(method_version=2, block_len=bad, tau=1)

    def test_tau_range(self):
        with pytest.raises(ValueError):
            CodecConfig(method_version=2, block_len=16, tau=0)
        with pytest.raises(ValueError):
            CodecConfig(method_version=2, block_len=16, tau=17)

    def test_method_version(self):
        with pytest.raises(ValueError):
            CodecConfig(method_version=3, block_len=16, tau=9)

    @pytest.mark.parametrize("fields", [
        {"method_version": 2.0}, {"method_version": True}, {"block_len": 16.0},
        {"block_len": "16"}, {"tau": 9.0}, {"tau": None},
    ])
    def test_wrong_types(self, fields):
        with pytest.raises(ValueError):
            CodecConfig(**fields)


def random_block(rng, width):
    """One block of codes: mode-friendly, random walk, wild or adversarial."""
    style = rng.randrange(7)
    if style == 0:  # mode-friendly: tiny alphabet
        return rng.choices(range(-3, 4), k=width)
    if style == 1:  # random walk
        v = rng.randrange(-100, 100)
        out = []
        for _ in range(width):
            v += rng.randrange(-5, 6)
            out.append(v)
        return out
    if style == 2:  # wild: multi-byte varints
        return [rng.randrange(-(2**40), 2**40) for _ in range(width)]
    if style == 3:  # x1 = 0: a version-2 diff block would read back as mode
        return [0] + rng.choices(range(-5, 6), k=width - 1)
    if style == 4:  # x1 = 2 * mode: a version-2 mode block would read back as diff
        m = rng.choice([-1, 1]) * rng.randrange(1, 50)
        reps = rng.randrange(0, width)
        rest = rng.choices(range(-5, 6), k=width - 1 - reps)
        return [2 * m] + [m] * reps + rest
    if style == 5:
        return [0] * width
    return [rng.randrange(-3, 4)] * width  # constant


def plateau_stream(rng, L, n):
    """n codes in level runs that start and end anywhere across block boundaries.

    The runs make constant full blocks, constant final blocks narrower and
    wider than tau, and blocks that change level part way.  One stream's
    levels lie within a few steps of 0 (so x1 = 0), of either int64 edge,
    or of a random base.
    """
    base = rng.choice([0, INT64_MIN, INT64_MAX, rng.randrange(-(2**40), 2**40)])
    codes = []
    while len(codes) < n:
        level = min(max(base + rng.randrange(-3, 4), INT64_MIN), INT64_MAX)
        codes += [level] * rng.randrange(1, 3 * L)
    return codes[:n]


def random_stream(rng, L, partial):
    """Several full blocks, then a partial one if partial is set."""
    if rng.random() < 0.3:
        n = rng.randrange(1, 6) * L + (rng.randrange(1, L) if partial else 0)
        return plateau_stream(rng, L, n)
    codes = []
    for _ in range(rng.randrange(1, 6)):
        codes += random_block(rng, L)
    if partial:
        codes += random_block(rng, rng.randrange(1, L))
    return codes


def assert_stream_matches_reference(rng, version):
    """One random stream: the fused transform writes the reference's bytes and inverts them."""
    L = rng.choice([16, 64, 128])
    cfg = CodecConfig(method_version=version, block_len=L, tau=rng.randrange(1, L + 1))
    codes = random_stream(rng, L, rng.random() < 0.5)
    symbols = encode_blocks(codes, cfg)
    assert symbols == encode_stream(codes, cfg), (cfg, codes)
    assert decode_blocks(bytes(symbols), cfg, len(codes)) == codes
    assert decode_stream(bytes(symbols), cfg, len(codes)) == codes


class TestMatchesReference:
    STREAMS = 3000

    @pytest.mark.parametrize("version", [1, 2])
    def test_random_streams(self, version):
        rng = random.Random(620 + version)
        for _ in range(self.STREAMS):
            assert_stream_matches_reference(rng, version)

    @pytest.mark.parametrize("version", [1, 2])
    def test_adversarial_blocks_at_every_tau(self, version):
        rng = random.Random(630 + version)
        for tau in range(1, 17):
            cfg = CodecConfig(method_version=version, block_len=16, tau=tau)
            for _ in range(200):
                codes = random_block(rng, rng.choice([16, 16, rng.randrange(1, 17)]))
                assert encode_blocks(codes, cfg) == encode_stream(codes, cfg), (tau, codes)
                fused_roundtrip(codes, cfg)

    @pytest.mark.parametrize("extra", [1, 3])
    def test_trailing_bytes_named_by_both(self, extra):
        # the reference's check is a raise, so it holds under python -O too
        cfg = CodecConfig(block_len=16, tau=9)
        codes = [5, 5, 5, 9] * 10
        symbols = bytes(encode_blocks(codes, cfg)) + bytes(extra)
        message = f"^{extra} trailing bytes after the final block$"
        with pytest.raises(CorruptStream, match=message):
            decode_blocks(symbols, cfg, len(codes))
        with pytest.raises(CorruptStream, match=message):
            decode_stream(symbols, cfg, len(codes))


@pytest.mark.parametrize("version", [1, 2])
class TestModeShortcuts:
    """encode_blocks skips the mode count when no value can reach tau and
    counts a block of few values value by value; both write the
    reference's bytes, ties going to the smallest value."""

    @pytest.mark.parametrize("L", [16, 64, 128])
    def test_every_distinct_count_at_every_tau(self, version, L):
        rng = random.Random(640 + version + L)
        for tau in sorted({1, 2, 3, L // 4, L // 2, L - 1, L}):
            cfg = CodecConfig(method_version=version, block_len=L, tau=tau)
            for width in sorted({1, 2, L // 2 + 1, L}):
                for distinct in sorted({1, 2, 3, 8, 9, width - tau + 1, width - tau + 2, width}):
                    if not 1 <= distinct <= width:
                        continue
                    values = rng.sample(range(-200, 200), distinct)
                    for lead in (None, 0):  # a version-2 block leading with 0 needs the mode
                        if lead is not None and lead not in values:
                            values[0] = lead
                        codes = values + [rng.choice(values) for _ in range(width - distinct)]
                        rng.shuffle(codes)
                        if lead is not None:
                            codes.insert(0, codes.pop(codes.index(lead)))
                        assert_encodes_as_reference(codes * 2, cfg)

    def test_tied_modes_take_the_smallest(self, version):
        cfg = CodecConfig(method_version=version, block_len=16, tau=4)
        for codes in ([7, 3] * 8, [-2, 5, 9] * 4 + [1, 2, 4, 6]):
            assert_encodes_as_reference(codes, cfg)


def assert_decodes_as_reference(symbols, cfg, n):
    """decode_blocks gives decode_stream's codes, or a CorruptStream with the
    text of decode_stream's CodecError (a BadBranchFlag is not a
    CorruptStream); returns the codes."""
    try:
        want = decode_stream(symbols, cfg, n)
    except CodecError as e:
        with pytest.raises(CorruptStream) as got:
            decode_blocks(symbols, cfg, n)
        assert str(got.value) == str(e)
        return None
    assert decode_blocks(symbols, cfg, n) == want
    return want


def assert_encodes_as_reference(codes, cfg):
    """encode_blocks writes encode_stream's bytes; returns them."""
    symbols = bytes(encode_blocks(codes, cfg))
    assert symbols == encode_stream(codes, cfg), (len(codes), cfg)
    return symbols


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("L", [16, 32768])
class TestConstantRuns:
    """encode_blocks finds a run of identical constant blocks by comparing
    codes and decode_blocks by comparing bytes, the short final block left
    out of the run; the references take every block on its own."""

    def test_run_into_short_final_block(self, version, L):
        # below tau a short block of a nonzero level is a diff block and ends
        # the run; a level of 0 stays a constant block under version 2
        cfg = CodecConfig(method_version=version, block_len=L, tau=9)
        for full in (3, 600) if L == 16 else (3,):  # a run of 600 full blocks
            for level in (0, 5, INT64_MIN):
                for w in (8, 9):
                    codes = [level] * (full * L + w)
                    symbols = assert_encodes_as_reference(codes, cfg)
                    assert assert_decodes_as_reference(symbols, cfg, len(codes)) == codes

    def test_run_into_short_final_block_below_tau(self, version, L):
        # a final block of 11 is too narrow for tau 16: the run stops before it
        cfg = CodecConfig(method_version=version, block_len=L, tau=16)
        for level in (0, 5):
            codes = [level] * (3 * L + 11)
            symbols = assert_encodes_as_reference(codes, cfg)
            assert assert_decodes_as_reference(symbols, cfg, len(codes)) == codes

    def test_tau_one_and_a_final_block_of_one(self, version, L):
        cfg = CodecConfig(method_version=version, block_len=L, tau=1)
        for last in (5, 7):  # the run's level, which the run takes in, or another
            codes = [5] * (3 * L) + [last]
            symbols = assert_encodes_as_reference(codes, cfg)
            assert assert_decodes_as_reference(symbols, cfg, len(codes)) == codes

    def test_run_ends_at_a_block_differing_in_one_code(self, version, L):
        cfg = CodecConfig(method_version=version, block_len=L, tau=9)
        for i in (0, L - 1):  # the block after the run differs in its first or last code
            other = [5] * L
            other[i] = 6
            codes = [5] * (2 * L) + other + [5] * L
            symbols = assert_encodes_as_reference(codes, cfg)
            assert assert_decodes_as_reference(symbols, cfg, len(codes)) == codes

    def test_run_of_zero(self, version, L):
        cfg = CodecConfig(method_version=version, block_len=L, tau=9)
        for w in (L, 11, 5):
            codes = [0] * (3 * L + w)
            symbols = assert_encodes_as_reference(codes, cfg)
            assert assert_decodes_as_reference(symbols, cfg, len(codes)) == codes

    def test_run_then_an_overflowing_block(self, version, L):
        # the mode is INT64_MAX, and INT64_MIN deviates from it by 2**64 - 1
        cfg = CodecConfig(method_version=version, block_len=L, tau=9)
        wide = [INT64_MAX] * (L - 7) + [INT64_MIN] * 7
        for before in ([5] * (3 * L), [5] * (3 * L) + [6] * L):
            message = (
                f"^block starting at sample {len(before)}: a difference or a deviation "
                "from the block mode needs more than signed 64 bits$"
            )
            with pytest.raises(CodecError, match=message):
                encode_blocks(before + wide + [5] * L, cfg)

    def test_run_past_or_short_of_the_blocks_left(self, version, L):
        cfg = CodecConfig(method_version=version, block_len=L, tau=9)
        for w in (L, 9):  # a full or a short final block, both constant
            codes = [5] * (2 * L + w)
            symbols = assert_encodes_as_reference(codes, cfg)
            block = symbols[: len(symbols) // 3]
            assert symbols == block * 3
            for extra in (1, 2, 300):
                bad = symbols + block * extra
                message = f"{len(block) * extra} trailing bytes after the final block"
                with pytest.raises(CorruptStream, match=f"^{message}$"):
                    decode_stream(bad, cfg, len(codes))
                assert_decodes_as_reference(bad, cfg, len(codes))
            for cut in (len(block), 2 * len(block), len(symbols) - 1):
                assert assert_decodes_as_reference(symbols[:cut], cfg, len(codes)) is None

    def test_non_shortest_spelling_inside_a_run(self, version, L):
        # level 5 (zigzag 0a) with a version-1 flag, a header or a mask in
        # two bytes where one would do
        odd_spellings = {
            1: ["82 00 0a 00", "02 8a 00 00", "02 0a 80 00"],
            2: ["8a 00 00", "0a 80 00"],
        }[version]
        short = bytes.fromhex("02 0a 00" if version == 1 else "0a 00")
        cfg = CodecConfig(method_version=version, block_len=L, tau=9)
        for odd in map(bytes.fromhex, odd_spellings):
            for layout in ([2, 1, 2, 3, 1], [0, 2, 3], [3, 2, 0]):  # short, odd, short, ...
                symbols = b"".join((short, odd)[i % 2] * k for i, k in enumerate(layout))
                n = sum(layout) * L
                assert assert_decodes_as_reference(symbols, cfg, n) == [5] * n, odd
                # a final block of width 5, too narrow for a two-byte mask
                assert_decodes_as_reference(symbols, cfg, n - L + 5)

    def test_alternating_runs(self, version, L):
        cfg = CodecConfig(method_version=version, block_len=L, tau=9)
        codes = []
        for level, blocks in ((5, 3), (-7, 2), (5, 4), (-7, 1), (5, 1), (-7, 3)):
            codes += [level] * (blocks * L)
        for n in (len(codes), len(codes) - L // 2):
            symbols = assert_encodes_as_reference(codes[:n], cfg)
            assert assert_decodes_as_reference(symbols, cfg, n) == codes[:n]


@pytest.mark.slow
class TestMatchesReferenceExhaustive:
    def test_hundred_thousand_streams(self):
        rng = random.Random(660)
        for i in range(100_000):
            assert_stream_matches_reference(rng, 1 + i % 2)


class TestFormatExamples:
    # the byte examples of FORMAT.md sections 2 and 3, as one-block streams
    @pytest.mark.parametrize(
        "codes,version,tau,expected",
        [
            ([7, 7, 7, 9], 1, 3, "02 0E 01 04"),
            ([7, 7, 7, 9], 2, 3, "0E 01 04"),
            ([3, 5, 4, 4], 1, 9, "00 06 04 01 00"),
            ([3, 5, 4, 4], 2, 9, "06 0E 06 04 01"),
        ],
    )
    def test_block_layout(self, codes, version, tau, expected):
        cfg = CodecConfig(method_version=version, block_len=16, tau=tau)
        symbols = encode_blocks(codes, cfg)
        assert symbols.hex(" ").upper() == expected
        assert decode_blocks(bytes(symbols), cfg, len(codes)) == codes

    @pytest.mark.parametrize("version", [1, 2])
    def test_worked_example_mask(self, version):
        # mode 1290 occurs 7 times: [flag 1,] mode, mask 51021, nine nonzeros
        codes = [1290 + d for d in PAPER_DEVIATIONS]
        cfg = CodecConfig(method_version=version, block_len=16, tau=7)
        symbols = encode_blocks(codes, cfg)
        flag = "02 " if version == 1 else ""
        assert symbols.hex(" ").upper() == (
            flag + "94 14 CD 8E 03 14 03 01 04 06 02 06 08 02"
        )
        mask = []
        read_varints(symbols, len(flag) // 3 + 2, 1, mask, signed=False, max_bits=16)
        assert mask == [51021]
        assert decode_blocks(bytes(symbols), cfg, 16) == codes


class TestDecodeFuzz:
    # damaged symbol streams decode to decode_stream's codes or raise its
    # error as CorruptStream; IndexError, StopIteration and ValueError must
    # not escape
    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("L", [16, 128])
    def test_damaged_streams(self, version, L):
        rng = random.Random(640 + version + L)
        for _ in range(12):
            cfg = CodecConfig(method_version=version, block_len=L, tau=rng.randrange(1, L + 1))
            codes = random_stream(rng, L, True)
            n = len(codes)
            symbols = bytes(encode_blocks(codes, cfg))
            for cut in range(len(symbols)):
                assert assert_decodes_as_reference(symbols[:cut], cfg, n) is None
            extra = symbols + bytes([rng.randrange(256)])
            assert assert_decodes_as_reference(extra, cfg, n) is None
            for _ in range(200):
                bad = bytearray(symbols)
                for _ in range(rng.randrange(1, 4)):
                    bad[rng.randrange(len(bad))] = rng.randrange(256)
                assert_decodes_as_reference(bytes(bad), cfg, n)

    @pytest.mark.parametrize("L", [16, 128])
    def test_version_1_flag_2(self, L):
        rng = random.Random(650 + L)
        cfg = CodecConfig(method_version=1, block_len=L, tau=rng.randrange(1, L + 1))
        codes = random_stream(rng, L, True)
        symbols = encode_blocks(codes, cfg)
        for start in range(0, len(codes), L):
            bad = bytearray(symbols)
            bad[len(encode_blocks(codes[:start], cfg))] = 4  # zigzag(2)
            with pytest.raises(CorruptStream, match="got 2"):
                decode_blocks(bytes(bad), cfg, len(codes))


class TestStreamBound:
    """max_stream_bytes bounds every symbol stream encode_blocks can write."""

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("L", [16, 64])
    def test_wide_values(self, version, L):
        rng = random.Random(740 + version + L)
        half = 1 << 62
        for _ in range(200):
            n = rng.randrange(1, 3 * L + 2)
            # values whose deviations and differences need 9-10 varint bytes
            codes = [rng.choice((-1, 1)) * rng.randrange(half - 2**40, half) for _ in range(n)]
            if rng.random() < 0.3:
                codes = [rng.choice((INT64_MIN // 2, INT64_MAX // 2, 0)) for _ in range(n)]
            cfg = CodecConfig(method_version=version, block_len=L, tau=rng.randrange(1, L + 1))
            assert len(encode_blocks(codes, cfg)) <= max_stream_bytes(cfg, n)

    def test_value(self):
        # v1: flag + 10 + ceil(16/7) + 160 per block of 16; a last block of 5
        cfg = CodecConfig(method_version=1, block_len=16, tau=9)
        assert max_stream_bytes(cfg, 37) == 2 * (1 + 10 + 3 + 160) + (1 + 10 + 1 + 50)
        cfg = CodecConfig(method_version=2, block_len=16, tau=9)
        assert max_stream_bytes(cfg, 1) == 10 + 1 + 10
