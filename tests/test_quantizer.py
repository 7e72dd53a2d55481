import random
import sys
import tracemalloc
from decimal import ROUND_HALF_UP, Context, Decimal, localcontext
from fractions import Fraction

import pytest

from nlts import quantizer
from nlts.container import CodecConfig
from nlts.core import INT64_MAX, INT64_MIN
from nlts.datasets import DatasetSpec, ingest
from nlts.errors import CodecError, CorruptStream, NonFiniteSample, OverflowAtScale, TooManyDigits
from nlts.quantizer import (
    _NOT_PLAIN,
    LOSSLESS,
    PROBE,
    _all_plain,
    _one_tail,
    plain_survey,
    quantize_stream,
    render_code,
    render_stream,
    repeated,
)

import reference_quantizer


def code_value(code: int, scale_exp: int | None) -> float:
    """Float value of a code, as decompress_stream returns it."""
    if scale_exp is None or scale_exp == 0:
        return float(code)
    return code / 10**scale_exp


def scaled_code(value, digits: int) -> int:
    """Quantize one sample through the stream quantizer."""
    codes, _, _, _ = quantize_stream([value], digits)
    return codes[0]


class TestScaledCode:
    def test_paper_example(self):
        assert scaled_code(124.3472, 2) == 12435  # reads back as 124.35
        assert scaled_code("124.3472", 2) == 12435

    def test_zero(self):
        for d in range(7):
            assert scaled_code(0.0, d) == 0

    def test_half_away_from_zero(self):
        assert scaled_code(-1.25, 1) == -13
        assert scaled_code("-1.25", 1) == -13
        assert scaled_code("1.25", 1) == 13
        assert scaled_code("2.5", 0) == 3
        assert scaled_code("-2.5", 0) == -3

    def test_non_finite(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(NonFiniteSample):
                scaled_code(bad, 3)
        with pytest.raises(NonFiniteSample):
            scaled_code("nan", 3)
        with pytest.raises(NonFiniteSample):
            scaled_code("not-a-number", 3)

    def test_overflow_at_scale(self):
        with pytest.raises(OverflowAtScale):
            scaled_code(1e19, 1)
        with pytest.raises(OverflowAtScale):
            scaled_code("9223372036854775808", 0)
        assert scaled_code("9223372036854775807", 0) == 2**63 - 1


class TestRendering:
    @pytest.mark.parametrize(
        "code,d,text",
        [
            (12435, 2, "124.35"),
            (0, 3, "0.000"),
            (-13, 1, "-1.3"),
            (5, 0, "5"),
            (-5, None, "-5"),
            (7, 3, "0.007"),
            (-7, 3, "-0.007"),
        ],
    )
    def test_render(self, code, d, text):
        assert render_code(code, d) == text

    def test_code_value(self):
        assert code_value(12435, 2) == 124.35
        assert code_value(-13, 1) == -1.3
        assert code_value(42, None) == 42.0


def rendering(codes, d):
    """What render_stream returns, from render_code: the texts and their bytes, a newline each."""
    texts = [render_code(c, d) for c in codes]
    return texts, sum(map(len, texts)) + len(texts)


class TestRenderStream:
    """render_stream is a faster render_code; render_code is the reference."""

    DIGITS = [None, 0, 1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("d", DIGITS)
    def test_random_codes(self, d):
        rng = random.Random(530 + (d or 0))
        for bits in (8, 20, 40, 52):
            codes = [rng.randrange(-(2**bits) + 1, 2**bits) for _ in range(3000)]
            assert render_stream(codes, d) == rendering(codes, d)

    @pytest.mark.parametrize("d", DIGITS)
    def test_edge_codes(self, d):
        p = 10 ** (d or 0)
        codes = [0, -1, p - 1, -(p - 1)]
        codes += [s * (10**k + j) for s in (1, -1) for k in range(19) for j in (-1, 1)]
        codes += [s * (2**52 + k) for s in (1, -1) for k in range(-3, 4)]
        # a stream of codes inside (-2**52, 2**52) takes the float path
        inside = [c for c in codes if -(2**52) < c < 2**52]
        assert render_stream(inside, d) == rendering(inside, d)
        codes += [INT64_MIN, INT64_MAX]
        assert render_stream(codes, d) == rendering(codes, d)

    @pytest.mark.parametrize("d", DIGITS)
    def test_repeated_codes(self, d):
        # at most half the codes distinct: each distinct code rendered once
        rng = random.Random(620 + (d or 0) + (d is None))
        p = 10 ** (d or 0)
        pools = [
            [0, 1, -1, p - 1, -(p - 1), p, -p, 123456789],
            [s * (2**52 + k) for s in (1, -1) for k in range(-2, 3)],
            [INT64_MIN, INT64_MAX, INT64_MIN + 1, 0, -1, 2**52],
        ]
        for pool in pools:
            for _ in range(30):
                few = rng.sample(pool, rng.randrange(1, len(pool) + 1))
                codes = rng.choices(few, k=rng.randrange(2 * len(few), 300))
                assert render_stream(codes, d) == rendering(codes, d)

    @pytest.mark.parametrize("d", DIGITS)
    def test_codes_outside_int64_rejected(self, d):
        for past in (INT64_MAX + 1, INT64_MIN - 1):
            for codes in ([0, past], [past] + [1, 2, 3] * 40, [past] * 3):
                with pytest.raises(CorruptStream, match="64-bit"):
                    render_stream(codes, d)


class TestErrorBound:
    # |decoded - x| <= 0.5 * 10^-d, exact in rational arithmetic
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_floats_within_half_ulp(self, d):
        rng = random.Random(500 + d)
        bound = Fraction(1, 2 * 10**d)
        xs = [rng.uniform(-1000, 1000) for _ in range(100_000)]
        codes, _, _, _ = quantize_stream(xs, d)
        for x, code in zip(xs, codes):
            err = abs(Fraction(code, 10**d) - Fraction(x))
            assert err <= bound, (x, code)

    def test_idempotent(self):
        rng = random.Random(505)
        for d in (0, 1, 2, 3):
            xs = [rng.uniform(-50, 50) for _ in range(2000)]
            codes, _, _, _ = quantize_stream(xs, d)
            again, _, _, _ = quantize_stream([code_value(c, d) for c in codes], d)
            assert again == codes

    def test_ties_match_decimal_oracle(self):
        # exact-representable halves where the tie rule decides the code
        cases = [0.5, -0.5, 1.5, -1.5, 0.25, -0.25, 2.75, -2.75]
        for x in cases:
            got = scaled_code(x, 1)
            want = int(
                Decimal(x).scaleb(1, Context(prec=60)).to_integral_value(ROUND_HALF_UP)
            )
            assert got == want, x


class TestStreamQuantization:
    def test_fast_path_matches_decimal_oracle(self):
        rng = random.Random(510)
        tokens = []
        for _ in range(4000):
            whole = rng.randrange(0, 10 ** rng.randrange(1, 7))
            frac_len = rng.randrange(0, 8)
            frac = "".join(rng.choice("0123456789") for _ in range(frac_len))
            tok = f"{whole}.{frac}" if frac_len else str(whole)
            if rng.random() < 0.5:
                tok = "-" + tok
            if rng.random() < 0.1:
                tok = "+" + tok if not tok.startswith("-") else tok
            tokens.append(tok)
        tokens += ["5.", ".5", "-.5", "0.0005", "00123.4500", "1e-3", "1.25E+2"]
        for d in (0, 1, 3, 6):
            codes, max_err, scale, _ = quantize_stream(tokens, d)
            assert scale == d
            ctx = Context(prec=200)
            oracle = [
                int(Decimal(t).scaleb(d, ctx).to_integral_value(ROUND_HALF_UP))
                for t in tokens
            ]
            assert codes == oracle, d
            worst = max(
                abs(Decimal(t).scaleb(d, ctx) - c) for t, c in zip(tokens, codes)
            )
            assert max_err == worst.scaleb(-d, ctx)

    def test_lossless_is_exact(self):
        tokens = ["1.5", "2.25", "-3.125", "7", "0.5"]
        codes, max_err, scale, _ = quantize_stream(tokens, LOSSLESS)
        assert scale == 3
        assert codes == [1500, 2250, -3125, 7000, 500]
        assert max_err == 0

    def test_int_samples(self):
        assert quantize_stream([5, -3, 1000], 2)[:3] == ([500, -300, 100000], 0, 2)


def lossless_scale(value) -> int:
    return quantize_stream([value], LOSSLESS)[2]


class TestDigitDetection:
    """Lossless mode finds its scale in the quantizing pass."""

    def test_token_digits_counted_as_written(self):
        assert lossless_scale("1.500") == 3
        assert lossless_scale("1.5") == 1
        assert lossless_scale("7") == 0
        assert lossless_scale("1e-3") == 3
        assert quantize_stream(["1.5E+2"], LOSSLESS)[:3] == ([150], 0, 0)

    def test_float_digits_use_shortest_repr(self):
        assert lossless_scale(0.1) == 1
        assert quantize_stream([1500.0], LOSSLESS)[:3] == ([15000], 0, 1)
        assert lossless_scale(-0.125) == 3
        assert lossless_scale(3) == 0

    def test_float_subclass_counts_by_float_repr(self):
        class Reading(float):  # numpy.float64 reprs as "np.float64(0.1)"
            def __repr__(self):
                return f"Reading({float(self)!r})"

        assert quantize_stream([Reading(0.1)], LOSSLESS)[:3] == ([1], 0, 1)

    def test_stream_scale_is_widest_sample(self):
        assert quantize_stream(["1.5", "2.25", "7"], LOSSLESS)[:3] == ([150, 225, 700], 0, 2)
        assert quantize_stream([1, 2, 3], LOSSLESS)[:3] == ([1, 2, 3], 0, 0)

    def test_decimal_and_int_samples(self):
        samples = [Decimal("1.50"), 7, "0.5", Decimal("-2E+3")]
        assert quantize_stream(samples, LOSSLESS)[:3] == ([150, 700, 50, -200000], 0, 2)

    def test_too_many_digits(self):
        with pytest.raises(TooManyDigits):
            quantize_stream(["0.1234567"], LOSSLESS)
        with pytest.raises(TooManyDigits):
            quantize_stream([1 / 3], LOSSLESS)

    def test_int64_edges_at_scale_4(self):
        edges = ["922337203685477.5807", "-922337203685477.5808", "0.5"]
        assert quantize_stream(edges, LOSSLESS)[:3] == ([INT64_MAX, INT64_MIN, 5000], 0, 4)
        for bad in ("922337203685477.5808", "-922337203685477.5809"):
            with pytest.raises(OverflowAtScale) as e:
                quantize_stream(["1.5", bad], LOSSLESS)
            assert (e.value.index, e.value.value, e.value.digits) == (1, bad, 4)

    def test_integer_passthrough_edges(self):
        assert quantize_stream([INT64_MAX, INT64_MIN], LOSSLESS)[:3] == (
            [INT64_MAX, INT64_MIN], 0, 0
        )
        with pytest.raises(OverflowAtScale):
            quantize_stream([INT64_MAX + 1], LOSSLESS)

    def test_overflow_only_at_final_scale(self):
        # fits at its own scale 0; a later sample raises the stream to scale 1
        with pytest.raises(OverflowAtScale) as e:
            quantize_stream([INT64_MAX, "0.5"], LOSSLESS)
        assert (e.value.index, e.value.value, e.value.digits) == (0, INT64_MAX, 1)

    def test_matches_decimal_oracle(self):
        rng = random.Random(540)

        def digits_of(v):
            if isinstance(v, int):
                return 0
            d = Decimal(repr(v)) if isinstance(v, float) else Decimal(v)
            return max(0, -d.as_tuple().exponent)

        for _ in range(300):
            samples = []
            for _ in range(rng.randrange(1, 40)):
                kind = rng.randrange(5)
                whole = rng.randrange(-(10**9), 10**9)
                if kind == 0:
                    samples.append(whole)
                elif kind == 1:
                    samples.append(round(whole / 10**6, rng.randrange(0, 7)))
                elif kind == 2:
                    samples.append(Decimal(whole).scaleb(-rng.randrange(0, 7)))
                elif kind == 3:
                    samples.append(f"{Decimal(whole).scaleb(-rng.randrange(0, 7)):E}")
                else:
                    frac = "".join(rng.choices("0123456789", k=rng.randrange(0, 7)))
                    samples.append(f"{whole}.{frac}" if frac else str(whole))
            scale = max(map(digits_of, samples))
            ctx = Context(prec=60)
            oracle = []
            for v in samples:
                d = Decimal(repr(v)) if isinstance(v, float) else Decimal(v)
                scaled = d.scaleb(scale, ctx)
                assert scaled == scaled.to_integral_value()
                oracle.append(int(scaled))
            assert quantize_stream(samples, LOSSLESS)[:3] == (oracle, 0, scale), samples


class TestErrorPrecedence:
    @pytest.mark.parametrize("digits", [LOSSLESS, 0, 3])
    def test_parse_fault_before_range_fault(self, digits):
        with pytest.raises(NonFiniteSample) as e:
            quantize_stream(["9223372036854775808", "1", "2", "x", "y"], digits)
        assert e.value.index == 3

    def test_too_many_digits_names_first_sample(self):
        with pytest.raises(TooManyDigits, match="index 1 carries 7 "):
            quantize_stream(["1.5", "0.1234567", "0.12345678", "x"], LOSSLESS)
        with pytest.raises(NonFiniteSample):
            quantize_stream(["x", "0.1234567"], LOSSLESS)

    @pytest.mark.parametrize("digits", [LOSSLESS, 3])
    def test_single_fault_messages(self, digits):
        scale = 0 if digits == LOSSLESS else digits
        cases = [
            (["1", "x"], "non-finite sample at index 1: 'x'"),
            (["1", "nan"], "non-finite sample at index 1: 'nan'"),
            (
                ["1", "9223372036854775808"],
                "sample at index 1 ('9223372036854775808') overflows 64-bit range "
                f"at {scale} digits",
            ),
        ]
        if digits == LOSSLESS:
            cases.append((
                ["1", "0.1234567"],
                "sample at index 1 carries 7 fractional digits; "
                "lossless mode supports at most 6",
            ))
        for samples, message in cases:
            with pytest.raises(CodecError) as e:
                quantize_stream(samples, digits)
            assert str(e.value) == message

    @pytest.mark.parametrize("digits", [LOSSLESS, 0, 3])
    @pytest.mark.parametrize("huge", ["1e999999", "-1e99999999", "1e99999"])
    def test_huge_exponent_is_a_range_fault(self, digits, huge):
        # past the Decimal exponent limit, or an integer of the exponent's size
        samples = ["1", huge, "2", huge]
        assert_matches_reference(samples, digits)
        with pytest.raises(OverflowAtScale) as e:
            quantize_stream(samples, digits)
        assert (e.value.index, e.value.value) == (1, huge)
        with pytest.raises(NonFiniteSample, match="index 1"):
            quantize_stream([huge, "x"], digits)

    def test_lossless_messages_name_the_float(self):
        with pytest.raises(NonFiniteSample, match=r"index 0: nan$"):
            quantize_stream([float("nan")], LOSSLESS)
        with pytest.raises(OverflowAtScale, match=r"\(1e\+19\)"):
            quantize_stream([1e19], LOSSLESS)


class TestExactDecimal:
    """The error is exact at any digit count, whatever the caller's context."""

    @pytest.mark.parametrize("token", ["0.1234564", "0.1234564e0"])
    def test_error_ignores_the_callers_context(self, token):
        with localcontext(Context(prec=3)):
            assert quantize_stream([token], 3)[:3] == ([123], Decimal("0.0004564"), 3)

    def test_error_keeps_every_digit(self):
        _, error, _, _ = quantize_stream(["0." + "1" * 37], 3)
        assert error == Decimal("0.000" + "1" * 34)

    def test_more_than_a_thousand_digits_round_once(self):
        # x = 0.0004999... < 0.0005: rounding x to 1,000 digits first would
        # round it up to 0.0005 and then to code 1
        token = "0.0004" + "9" * 1100 + "e0"
        assert quantize_stream([token], 3)[:3] == ([0], Decimal("0.0004" + "9" * 1100), 3)

    def test_token_too_long_for_int(self):
        long = "0." + "1" * 5000
        exact = Decimal("0.000" + "1" * 4997)
        assert quantize_stream([long, "1.5"], 3)[:3] == ([111, 1500], exact, 3)
        # repeated: the distinct-token column pass parses it the same way
        codes = [111, 111, 111, 1500]
        assert quantize_stream([long, long, long, "1.5"], 3)[:3] == (codes, exact, 3)

    def test_token_too_long_for_int_lossless(self):
        with pytest.raises(TooManyDigits, match="index 0 carries 5000 "):
            quantize_stream(["0." + "1" * 5000, "1.5"], LOSSLESS)


class TestBlockOps:
    def test_quantize_block_rounding(self):
        codes, _, _, _ = quantize_stream((124.3472, 0.0, -1.25), 2)
        assert codes == [12435, 0, -125]

    def test_quantize_block_lossless_detects_scale(self):
        assert quantize_stream(("1.5", "2.25"), LOSSLESS)[:3] == ([150, 225], 0, 2)

    def test_config_validation(self):
        for good in (*range(7), LOSSLESS):
            assert CodecConfig(digits=good).digits == good
        assert CodecConfig().digits == 3
        for bad in (7, -1, True, 3.0, 2.5, "3", "rounding", None):
            with pytest.raises(ValueError, match="digits"):
                CodecConfig(digits=bad)


def outcome(quantize, samples, digits):
    """What quantize returns, or the (type, message) of the error raised."""
    try:
        return quantize(samples, digits)
    except CodecError as e:
        return type(e), str(e)


def assert_matches_reference(samples, digits):
    got = outcome(quantize_stream, samples, digits)
    want = outcome(reference_quantizer.quantize_stream, samples, digits)
    if len(got) == 4:  # the size returned is the codes' canonical text's
        codes, _, scale, size = got
        assert size == sum(len(render_code(c, scale)) + 1 for c in codes), (samples, digits)
        got = got[:3]
    # the Decimal errors compare by value
    assert got == want, (samples, digits)


# tokens that are not plain decimals: each makes a column be spelled out first
INTRUDERS = [
    "1e3", "-2.5E-1", "", " 1.5", "1.5 ", "1_000", "\u0661\u0662", "\uff11.5", "nan",
    "inf", "x", ".", "+", "-.", "1.2.3", "1\n2", "5\n", 1.5, 7, Decimal("2.25"),
    float("nan"), "1e999999",
]

DIGITS = [LOSSLESS, 0, 1, 3, 6]


def random_column(rng, size):
    """A column of plain decimal tokens; one fraction length or many."""
    uniform = rng.random() < 0.5
    fixed = rng.randrange(0, 9)
    tokens = []
    for _ in range(size):
        flen = fixed if uniform else rng.randrange(0, 22)
        whole = str(rng.randrange(0, 10 ** rng.randrange(1, 20)))
        frac = "".join(rng.choices("0123456789", k=flen))
        sign = rng.choice(("", "", "-", "+"))
        shape = rng.random()
        if shape < 0.05:
            tok = f"{sign}.{frac or '5'}"
        elif shape < 0.1:
            tok = f"{sign}{whole}."
        elif shape < 0.15:
            tok = f"{sign}00{whole}.{frac}"
        else:
            tok = f"{sign}{whole}.{frac}" if flen else sign + whole
        tokens.append(tok)
    return tokens


# spellings of one value that are distinct tokens, and must stay apart
SAME_VALUES = ["1.5", "1.50", "+1.5", "01.5", "1.5000", "-0", "0", "+0.0", "-1.5", "-01.50"]


def repeated_column(rng):
    """40 to 400 tokens drawn from at most 8 distinct ones, at most a fifth
    distinct, so the column pass quantizes each distinct token once."""
    pool = rng.sample(SAME_VALUES, rng.randrange(0, 6))
    pool += random_column(rng, rng.randrange(1, 9 - len(pool)))
    weights = [rng.random() for _ in pool]
    return rng.choices(pool, weights, k=rng.randrange(40, 401))


def random_stream(rng):
    tokens = random_column(rng, rng.randrange(1, 24))
    if rng.random() < 0.15:
        tokens[rng.randrange(len(tokens))] = rng.choice(INTRUDERS)
    return tokens


class TestMatchesReference:
    """The column pass agrees with the per-token reference quantizer on codes,
    scale, exact error, and on the type, index and message of any error."""

    @pytest.mark.parametrize("digits", DIGITS)
    def test_seeded_streams(self, digits):
        rng = random.Random(560 + (7 if digits == LOSSLESS else digits))
        for _ in range(1500):
            assert_matches_reference(random_stream(rng), digits)

    @pytest.mark.parametrize("digits", DIGITS)
    def test_long_columns(self, digits):
        rng = random.Random(570)
        for size in (100, 1000, 5000):
            assert_matches_reference(random_column(rng, size), digits)

    @pytest.mark.parametrize("digits", DIGITS)
    def test_repeated_columns(self, digits):
        rng = random.Random(610 + (7 if digits == LOSSLESS else digits))
        for _ in range(400):
            tokens = repeated_column(rng)
            assert_matches_reference(tokens, digits)
            tokens[rng.randrange(len(tokens))] = rng.choice(INTRUDERS)
            assert_matches_reference(tokens, digits)

    def test_repeated_too_many_digits_names_first_index(self):
        # the offending token first appears after other repeats, and again later
        tokens = ["1.5", "2.25"] * 20 + ["3.12345678", "0.1234567"] + ["1.5", "3.12345678"] * 10
        assert_matches_reference(tokens, LOSSLESS)
        with pytest.raises(TooManyDigits, match="index 40 carries 8 "):
            quantize_stream(tokens, LOSSLESS)

    def test_repeated_int64_edge_overflow_names_first_index(self):
        cases = [
            (["1.5", "2"] * 10 + ["9223372036854775.808", "2"] * 10, 3, 20),
            (["1.5", "2"] * 10 + ["-922337203685477.5809", "1.5"] * 10, LOSSLESS, 20),
            # fits at its own scale 0; the repeated "0.5" raises the stream to scale 1
            (["7", str(INT64_MAX)] * 10 + ["0.5"] * 20, LOSSLESS, 1),
        ]
        for tokens, digits, index in cases:
            assert_matches_reference(tokens, digits)
            with pytest.raises(OverflowAtScale) as e:
                quantize_stream(tokens, digits)
            assert (e.value.index, e.value.value) == (index, tokens[index])

    @pytest.mark.parametrize("d", range(7))
    def test_ties_both_signs(self, d):
        # exactly half a step of 10**-d, at several magnitudes and lengths
        half = "0" * d + "5"
        for whole in ("0", "1", "7", "123456"):
            for extra in ("", "0", "000"):
                for sign in ("", "-", "+"):
                    tok = f"{sign}{whole}.{half}{extra}"
                    assert_matches_reference([tok], d)
                    assert_matches_reference([tok, "1." + "0" * (d + 4)], d)
        assert quantize_stream(["-0.0004"], 3)[0] == [0]
        assert quantize_stream(["-0.0005", "0.0005"], 3)[0] == [-1, 1]

    def test_spellings(self):
        tokens = ["+1.5", "-0.0", "+0", "007.250", ".5", "-.5", "+.5", "5.", "-5.", "0000"]
        for digits in DIGITS:
            assert_matches_reference(tokens, digits)
            for tok in tokens:
                assert_matches_reference([tok], digits)
            # plain columns, one of them repeating
            assert_matches_reference(["1.5", "-2", ".5", "+7."], digits)
            assert_matches_reference(["-2", "1.5", "-2", "-2"], digits)
            # one bad member makes a column be spelled out first, repeating or not
            for bad in (["1e3"], [""], ["1\n2"], ["1", 2], [], ["\u0661"], ["1_0"]):
                assert_matches_reference(bad, digits)
                assert_matches_reference(bad * 2 + ["1"] * 3, digits)

    @pytest.mark.parametrize("digits", [0, 1, 3, 6])
    def test_int64_edges_at_each_scale(self, digits):
        for edge in (INT64_MAX, INT64_MIN):
            for delta in (-1, 0, 1):
                whole, frac = divmod(abs(edge + delta), 10**digits)
                sign = "-" if edge + delta < 0 else ""
                tok = f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"
                assert_matches_reference(["1", tok], digits)
                assert_matches_reference(["1", tok], LOSSLESS)
                assert_matches_reference([tok + "4", "2"], digits)

    def test_lossless_too_many_digits_names_first_sample(self):
        tokens = ["1.5", "2.1234567", "3.12345678", "4"]
        assert_matches_reference(tokens, LOSSLESS)
        with pytest.raises(TooManyDigits, match="index 1 carries 7 "):
            quantize_stream(tokens, LOSSLESS)
        assert_matches_reference(["0." + "1" * 20], LOSSLESS)

    def test_long_fractions_round(self):
        rng = random.Random(580)
        for flen in range(21):
            tokens = [
                f"{rng.choice(('', '-'))}{rng.randrange(10**6)}."
                + "".join(rng.choices("0123456789", k=flen))
                for _ in range(50)
            ]
            assert_matches_reference(tokens, 3)

    @pytest.mark.parametrize("intruder", INTRUDERS, ids=repr)
    def test_one_intruder_in_a_plain_column(self, intruder):
        rng = random.Random(590)
        tokens = random_column(rng, 40)
        for at in (0, 17, 39):
            stream = tokens[:at] + [intruder] + tokens[at + 1 :]
            for digits in DIGITS:
                assert_matches_reference(stream, digits)

    def test_no_samples(self):
        for digits in DIGITS:
            assert_matches_reference([], digits)
            assert quantize_stream([], digits)[3] == 0

    def test_non_text_members(self):
        for samples in ([1, 2, 3], [1.5, "2.5"], [Decimal("1.25"), "2"], ["1", None], [b"1"]):
            for digits in DIGITS:
                assert_matches_reference(samples, digits)


class TestSpelledColumns:
    """A stream that is not all plain text is spelled as the exact plain
    text of each sample and takes the same column pass as a text column."""

    @pytest.mark.parametrize("digits", DIGITS)
    def test_long_repeating_mixed_column(self, digits):
        few = [1.5, 0.1, 2, -7, Decimal("2.250"), Decimal("-0.5"), "1e-3", "-2.5E1", "1.50", "3"]
        rng = random.Random(700)
        column = rng.choices(few, k=3 * PROBE)
        assert_matches_reference(column, digits)
        # a fault first seen after the probe, and seen again later
        faults = ["nan", float("inf"), "x", "9223372036854775808", Decimal("0.1234567"), 1e19]
        for fault in faults:
            bad = list(column)
            bad[2000] = bad[2500] = fault
            assert_matches_reference(bad, digits)

    @pytest.mark.parametrize("digits", DIGITS)
    def test_float_column_with_a_subnormal(self, digits):
        rng = random.Random(710)
        column = [round(rng.uniform(-50, 50), rng.randrange(7)) for _ in range(300)]
        for subnormal in (5e-324, -2.5e-310):
            column[150] = subnormal
            assert_matches_reference(column, digits)
            assert_matches_reference([subnormal], digits)

    @pytest.mark.parametrize("digits", DIGITS)
    def test_repeating_column_with_a_token_too_long_for_int(self, digits):
        long = "-3." + "1" * 4400 + "5"
        rng = random.Random(720)
        column = rng.choices(["1.5", "-2.25", "0.125", "7"], k=3 * PROBE)
        # the reference reads plain text with int(), which stops at 4,300
        # digits, and any other spelling through Decimal, which does not
        for spelling in (long + "e0", Decimal(long)):
            column[10] = column[2000] = spelling
            assert_matches_reference(column, digits)
        text = [long if t is spelling else t for t in column]
        assert outcome(quantize_stream, text, digits) == outcome(quantize_stream, column, digits)

    @pytest.mark.parametrize("digits", DIGITS)
    def test_exponents_far_from_the_scale(self, digits):
        # a value far below 10**-d or past 10**19 is not spelled digit by
        # digit; a zero with a large exponent is in range
        cases = [
            ["1e-999999999", "2.5"], [Decimal("-1E-999999999"), 0.5], ["1.5", "0E-1000000"],
            ["0E+25", "1.5"], ["-0e1000000"], ["1", "1e999999999"], [2.5e-300, 1e300],
        ]
        for samples in cases:
            assert_matches_reference(samples, digits)
        assert quantize_stream(["0E+25", "1.5"], 3)[0] == [0, 1500]

    def test_floats_round_at_their_binary_value(self):
        # 2.675 is 2.67499999999999982236431605997495353221893310546875
        error = Decimal("0.00499999999999982236431605997495353221893310546875")
        assert quantize_stream([2.675], 2)[:3] == ([267], error, 2)
        assert quantize_stream([2.675], LOSSLESS)[:3] == ([2675], 0, 3)


# what a fuzzed line is drawn from, and lines on the edges of PLAIN
FUZZ_CHARS = "0123456789+-. \re_\u0661\uff11"
EDGE_LINES = ["", "+", ".", "+.", "5.", ".5", "-.5", "1.2.3", "+-1", "5-", ".-5"]


def fuzzed_column(rng):
    """1 to 6 lines joined by newlines: edge lines, and lines of 0 to 5
    characters, most of them drawn from digits, signs and points only."""
    lines = []
    for _ in range(rng.randrange(1, 7)):
        r = rng.random()
        if r < 0.3:
            lines.append(rng.choice(EDGE_LINES))
        else:
            chars = FUZZ_CHARS if r < 0.45 else FUZZ_CHARS[:13]
            lines.append("".join(rng.choices(chars, k=rng.randrange(6))))
    return "\n".join(lines)


def assert_plain_check_agrees(rng, columns):
    plain = 0
    for _ in range(columns):
        text = fuzzed_column(rng)
        want = _NOT_PLAIN.search(text) is None
        assert _all_plain(text) == want, text
        plain += want
    assert columns // 20 < plain < columns // 2  # both answers are well sampled


class TestPlainCheck:
    """_all_plain, the byte-pass check, says what a search with the PLAIN line regex says."""

    def test_fuzzed_columns(self):
        assert_plain_check_agrees(random.Random(730), 100_000)

    @pytest.mark.slow
    def test_million_fuzzed_columns(self):
        assert_plain_check_agrees(random.Random(770), 1_000_000)

    def test_edges(self):
        assert _all_plain("+1.5\n-2\n.5\n7.\n-.5\n0")
        assert not _all_plain("") and not _all_plain("1\n") and not _all_plain("\n1")
        assert not _all_plain("1\n\ud800")  # a lone surrogate has no UTF-8 bytes

    def test_a_plain_column_skips_the_line_regex(self, monkeypatch):
        monkeypatch.setattr(quantizer, "_NOT_PLAIN", None)
        tokens = ["1.5", "-2", ".5", "+7."]
        assert plain_survey(tokens, "\n".join(tokens), 1) == (None, [])


def plain_token(rng, tail):
    """A PLAIN token with that tail: no point (0), else a point and tail - 1
    fraction digits; a sign or none, and whole digits or none where PLAIN allows."""
    sign = rng.choice(("", "-", "+"))
    whole = str(rng.randrange(10 ** rng.randrange(1, 8)))
    if not tail:
        return sign + whole
    frac = "".join(rng.choices("0123456789", k=tail - 1))
    return f"{sign}{whole if not frac or rng.random() < 0.8 else ''}.{frac}"


class TestOneTail:
    """_one_tail, two byte counts, gives a column's tail exactly when every
    token has it (0 without a point, else 1 + its fraction length)."""

    def test_columns_of_one_tail_and_one_odd_tail(self):
        rng = random.Random(740)
        for _ in range(20_000):
            tail = rng.randrange(0, 9)
            column = [plain_token(rng, tail) for _ in range(rng.randrange(1, 30))]
            if rng.random() < 0.5:  # one token of another tail, or maybe the same
                column[rng.randrange(len(column))] = plain_token(rng, rng.randrange(0, 9))
            tails = [len(t.lstrip("+-0123456789")) for t in column]
            want = tails[0] if len(set(tails)) == 1 else None
            assert _one_tail("\n".join(column), len(column)) == want, column

    def test_edges(self):
        assert _one_tail("", 0) == 0
        assert _one_tail("5\n-7", 2) == 0
        assert _one_tail("5.\n-7.", 2) == 1  # trailing points
        assert _one_tail("5.\n-7", 2) is None
        assert _one_tail(".25\n-1.50\n+3.75", 3) == 3
        assert _one_tail("1.25\n1.2\n1.255", 3) is None  # the point counts alone agree
        assert _one_tail("1.25\n1.255\n1.2", 3) is None


class TestMixedWidths:
    """In rounding mode, the tokens of each fraction length round at that
    length, so one long token does not widen its whole column."""

    @pytest.mark.parametrize("d", [0, 1, 3, 6])
    def test_matches_reference(self, d):
        rng = random.Random(750 + d)
        tie = "0" * d + "5"
        for _ in range(300):
            column = [plain_token(rng, rng.randrange(0, 10)) for _ in range(rng.randrange(2, 40))]
            column[rng.randrange(len(column))] = f"{rng.choice(('', '-'))}{rng.randrange(100)}.{tie}"
            if rng.random() < 0.3:  # long enough to widen, short enough for the reference's int()
                k = rng.randrange(20, 4000)
                column[rng.randrange(len(column))] = rng.choice((
                    "-1." + "".join(rng.choices("0123456789", k=k)),
                    f"2.{tie}" + "0" * k,
                ))
            assert_matches_reference(column, d)
            assert_matches_reference(column * 3, d)  # repeating: over its distinct tokens

    def test_a_long_token_does_not_widen_its_column(self):
        rng = random.Random(760)
        rows = [f"{rng.randrange(-99_999, 100_000) / 1000:.3f}" for _ in range(10_000)]
        long = "0." + "".join(rng.choices("0123456789", k=20_000))

        def peak(column):
            tracemalloc.start()
            try:
                quantize_stream(column, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(rows + [long]) <= 2 * peak(rows + ["0.123"])

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="int() reads any length")
    @pytest.mark.parametrize("long", ["0." + "7" * 20_000, "-" + "3" * 20_000 + ".5"])
    def test_only_a_token_past_the_int_digit_limit_reads_through_decimal(self, monkeypatch, long):
        rng = random.Random(761)
        column = [f"{rng.randrange(-99_999, 100_000) / 1000:.3f}" for _ in range(10_000)]
        column.insert(5_000, long)
        parsed = []

        class Counted(Decimal):
            def __new__(cls, value="0", context=None):
                parsed.append(isinstance(value, str))
                return Decimal(value, context)

        def outcome():
            try:
                return quantize_stream(column, 3)
            except CodecError as e:  # the long integer is out of range at every scale
                return type(e), str(e)

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            want = outcome()
            monkeypatch.setattr(quantizer, "Decimal", Counted)
            assert outcome() == want and parsed.count(True) == 1
        finally:
            sys.set_int_max_str_digits(limit)


def probe_columns(rng):
    """Columns longer than PROBE that the probe and the exact rule judge apart.

    "late": the first PROBE tokens all distinct, yet at most half the column
    is; "early": the first PROBE tokens repeat, yet more than half the
    column is distinct.
    """
    def token():  # in range at every scale, at most MAX_DIGITS fractional digits
        flen = rng.randrange(7)
        frac = "".join(rng.choices("0123456789", k=flen))
        return f"{rng.choice(('', '-', '+'))}{rng.randrange(10**9)}{'.' * bool(flen)}{frac}"

    fresh = iter(dict.fromkeys(token() for _ in range(8 * PROBE)))
    few = [next(fresh) for _ in range(3)] + rng.sample(SAME_VALUES, 2)
    late = [next(fresh) for _ in range(PROBE)] + rng.choices(few, k=3 * PROBE)
    early = rng.choices(few, k=PROBE) + [next(fresh) for _ in range(3 * PROBE)]
    return {"late": late, "early": early}


class TestProbe:
    """The probe only decides how a column is quantized and rendered, never what comes out."""

    def test_decisions(self):
        rng = random.Random(640)
        columns = probe_columns(rng)
        late, early = columns["late"], columns["early"]
        assert repeated(late, len(late)) is None  # by the probe
        assert repeated(early, len(early)) is None  # by the exact rule
        assert 2 * len(set(late)) <= len(late) and 2 * len(set(early[:PROBE])) <= PROBE
        steady = late[PROBE:] + late[:PROBE]
        assert sorted(repeated(steady, len(steady))) == sorted(set(steady))
        assert sorted(repeated(iter(steady), len(steady))) == sorted(set(steady))
        # at PROBE items or fewer the exact rule alone decides
        assert sorted(repeated(["2", "1", "2", "2"], 4)) == ["1", "2"]
        assert repeated(["2", "1", "2", "3"], 4) is None
        assert repeated([], 0) == []

    @pytest.mark.parametrize("shape", ["late", "early"])
    @pytest.mark.parametrize("digits", [LOSSLESS, *range(7)])
    def test_quantize_and_render_match_references(self, shape, digits):
        rng = random.Random(650 + (7 if digits == LOSSLESS else digits))
        tokens = probe_columns(rng)[shape]
        assert_matches_reference(tokens, digits)
        codes, _, scale, _ = quantize_stream(tokens, digits)
        assert render_stream(codes, scale) == rendering(codes, scale)

    @pytest.mark.parametrize("d", [None, 0, 3, 6])
    def test_render_codes(self, d):
        rng = random.Random(670)
        few = [0, -1, 10**6, INT64_MAX, INT64_MIN, 2**52]
        fresh = rng.sample(range(-(2**60), 2**60), 4 * PROBE)
        late = fresh[:PROBE] + rng.choices(few, k=3 * PROBE)
        early = rng.choices(few, k=PROBE) + fresh[PROBE:]
        for codes in (late, early, [c % 1000 for c in late], [c % 1000 for c in early]):
            assert render_stream(codes, d) == rendering(codes, d)

    def test_faults_name_the_first_index_in_a_long_repeating_column(self, tmp_path):
        few = ["1.5", "-2.25", "3", "0.125"]
        rng = random.Random(660)
        tokens = rng.choices(few, k=3 * PROBE)
        bad = [
            ("0.1234567", LOSSLESS, TooManyDigits, "index 2000 carries 7 "),
            ("9223372036854775.808", 3, OverflowAtScale, "index 2000 "),
        ]
        for token, digits, error, message in bad:
            column = list(tokens)
            column[2000] = column[2500] = column[3000] = token
            p = tmp_path / "in.txt"
            p.write_text("".join(t + "\n" for t in column))
            ingested = ingest(DatasetSpec(name="t", source_path=str(p), delimiter="whitespace"))
            assert type(ingested) is list and repeated(column, len(column))
            for samples in (column, ingested):
                assert_matches_reference(samples, digits)
                with pytest.raises(error, match=message):
                    quantize_stream(samples, digits)


@pytest.mark.slow
class TestMatchesReferenceExhaustive:
    def test_hundred_thousand_streams(self):
        rng = random.Random(600)
        for i in range(100_000):
            assert_matches_reference(random_stream(rng), DIGITS[i % len(DIGITS)])

    def test_ten_thousand_repeated_columns(self):
        rng = random.Random(630)
        for i in range(10_000):
            tokens = repeated_column(rng)
            if i % 2:
                tokens[rng.randrange(len(tokens))] = rng.choice(INTRUDERS)
            assert_matches_reference(tokens, DIGITS[i % len(DIGITS)])
