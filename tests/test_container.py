import random
import time
from decimal import Decimal

import pytest

from nlts.bench import SweepSpec, VerifyResult
from nlts.container import (
    HEADER_LEN,
    CodecConfig,
    RunMetrics,
    StreamHeader,
    compress_stream,
    decompress_stream,
    decompress_to_tokens,
)
from nlts import entropy
from nlts.cli import main
from nlts.core import INT64_MAX, INT64_MIN, write_varints
from nlts.datasets import DatasetSpec
from nlts.entropy import ADAPTIVE_ARITHMETIC, ADAPTIVE_HUFFMAN, STATIC_HUFFMAN, BitStream
from nlts.errors import BadMagic, CodecError, CorruptStream, UnsupportedVersion
from nlts.quantizer import LOSSLESS, canonical_size, quantize_stream, render_code


def make_config(version=2, coder=ADAPTIVE_ARITHMETIC, L=16, tau=9, digits=3):
    return CodecConfig(version, coder, L, tau, LOSSLESS if digits is None else digits)


class TestHeader:
    def test_pack_parse_round_trip(self):
        rng = random.Random(800)
        for _ in range(300):
            h = StreamHeader(
                method_version=rng.choice([1, 2]),
                entropy_id=rng.choice([0, 1, 2]),
                block_len=rng.choice([16, 32, 64, 128, 1024, 32768]),
                tau=1,
                scale_exp=rng.choice([None, 0, 1, 2, 3, 4, 5, 6]),
                sample_count=rng.randrange(1, 2**63),
            )
            h = h._replace(tau=rng.randrange(1, h.block_len + 1))
            packed = h.pack()
            assert len(packed) == HEADER_LEN == 24
            assert StreamHeader.parse(packed) == h

    def test_bad_magic(self):
        blob, _ = compress_stream([1.0, 2.0])
        with pytest.raises(BadMagic):
            StreamHeader.parse(b"XXXX" + blob[4:])
        with pytest.raises(BadMagic):
            StreamHeader.parse(b"NL")

    def test_truncated_header(self):
        blob, _ = compress_stream([1.0, 2.0])
        with pytest.raises(CorruptStream):
            StreamHeader.parse(blob[:10])

    def test_unsupported_versions(self):
        good = compress_stream([1.0, 2.0])[0]
        bad_fmt = good[:4] + bytes([99]) + good[5:]
        with pytest.raises(UnsupportedVersion):
            StreamHeader.parse(bad_fmt)
        bad_method = good[:5] + bytes([3]) + good[6:]
        with pytest.raises(UnsupportedVersion):
            StreamHeader.parse(bad_method)
        bad_coder = good[:6] + bytes([7]) + good[7:]
        with pytest.raises(UnsupportedVersion):
            StreamHeader.parse(bad_coder)

    def test_unknown_coder_in_config(self):
        with pytest.raises(UnsupportedVersion, match="^unknown entropy coder id 7$"):
            CodecConfig(coder=7)
        with pytest.raises(UnsupportedVersion, match="^unknown entropy coder id 9$"):
            CodecConfig()._replace(coder=9)

    def test_invalid_fields(self):
        good = compress_stream([1.0, 2.0])[0]
        bad_scale = good[:7] + bytes([9]) + good[8:]
        with pytest.raises(CorruptStream):
            StreamHeader.parse(bad_scale)
        bad_L = good[:8] + (17).to_bytes(2, "little") + good[10:]
        with pytest.raises(CorruptStream, match=r"^header block_len must be a power of two in "
                                                r"\[16, 32768\], got 17$"):
            StreamHeader.parse(bad_L)
        bad_tau = good[:10] + (60000).to_bytes(2, "little") + good[12:]
        with pytest.raises(CorruptStream, match=r"^header tau must be an integer in 1\.\.16, "
                                                r"got 60000$"):
            StreamHeader.parse(bad_tau)
        bad_count = good[:16] + (0).to_bytes(8, "little")
        with pytest.raises(CorruptStream):
            StreamHeader.parse(bad_count)


class TestRoundTrip:
    def test_single_sample(self):
        blob, m = compress_stream([0.0])
        values, _ = decompress_stream(blob)
        assert values == [0.0]
        assert m.cr > 0

    def test_constant_block_beats_text(self):
        samples = [1.0] * 64
        blob, m = compress_stream(samples, make_config(L=16, tau=5))
        tokens, _ = decompress_to_tokens(blob)
        assert tokens == ["1.000"] * 64
        assert len(blob) < m.input_bytes

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("coder", [STATIC_HUFFMAN, ADAPTIVE_HUFFMAN, ADAPTIVE_ARITHMETIC])
    def test_exact_in_quantized_domain(self, version, coder):
        rng = random.Random(810 + version * 10 + coder)
        for _ in range(30):
            n = rng.randrange(1, 300)
            digits = rng.choice([0, 1, 3, None])
            L = rng.choice([16, 32])
            tau = rng.randrange(1, L + 1)
            if digits is None:
                samples = [
                    f"{rng.randrange(-999, 999)}.{rng.randrange(100):02d}"
                    for _ in range(n)
                ]
            else:
                samples = [rng.uniform(-100, 100) for _ in range(n)]
            cfg = make_config(version=version, coder=coder, L=L, tau=tau, digits=digits)
            blob, m = compress_stream(samples, cfg)
            tokens, _ = decompress_to_tokens(blob)
            d = 2 if digits is None else digits
            expected_codes, _, _, _ = quantize_stream(samples, d)
            scale = None if digits is None and d == 0 else d
            assert tokens == [render_code(c, scale) for c in expected_codes]

    def test_epsilon_bound_end_to_end(self):
        rng = random.Random(820)
        for digits in (1, 2, 3):
            samples = [rng.uniform(-500, 500) for _ in range(500)]
            blob, m = compress_stream(samples, make_config(digits=digits))
            values, _ = decompress_stream(blob)
            eps = 10.0 ** -digits
            worst = max(abs(a - b) for a, b in zip(samples, values))
            assert worst <= eps
            assert m.max_abs_error <= 0.5 * eps

    def test_lossless_reports_zero_error(self):
        blob, m = compress_stream(["1.5", "2.25"], make_config(digits=None))
        assert m.max_abs_error == 0.0

    def test_lossless_floats_round_trip_exactly(self):
        samples = [0.1, 0.25, -3.5, 1e-05]
        blob, m = compress_stream(samples, make_config(digits=None))
        assert m.max_abs_error == 0.0
        values, _ = decompress_stream(blob)
        assert values == samples

    def test_tail_block_shorter_than_L(self):
        rng = random.Random(821)
        for n in (1, 15, 16, 17, 31, 33, 100):
            samples = [rng.uniform(0, 10) for _ in range(n)]
            blob, _ = compress_stream(samples, make_config())
            values, _ = decompress_stream(blob)
            assert len(values) == n

    def test_empty_stream_rejected(self):
        for samples in ([], (), iter([])):
            with pytest.raises(ValueError, match="^cannot compress an empty stream$"):
                compress_stream(samples)

    def test_tuple_and_iterator_give_the_lists_container(self):
        samples = ["1.5", "2.25", "-0.125", "2.25"] * 9
        blob = compress_stream(samples)[0]
        assert compress_stream(tuple(samples))[0] == blob
        assert compress_stream(iter(samples))[0] == blob


class TestCorruption:
    def test_truncated_payload(self):
        samples = [float(i) for i in range(200)]
        blob, _ = compress_stream(samples, make_config())
        with pytest.raises(CorruptStream):
            decompress_stream(blob[: HEADER_LEN + 3])

    def test_sample_count_lowered(self):
        samples = [float(i % 7) for i in range(64)]
        blob, _ = compress_stream(samples, make_config())
        patched = blob[:16] + (48).to_bytes(8, "little") + blob[24:]
        with pytest.raises(CorruptStream):
            decompress_stream(patched)

    def test_sample_count_raised(self):
        samples = [float(i % 7) for i in range(64)]
        blob, _ = compress_stream(samples, make_config())
        patched = blob[:16] + (80).to_bytes(8, "little") + blob[24:]
        with pytest.raises(CorruptStream):
            decompress_stream(patched)

    @pytest.mark.parametrize("coder", [STATIC_HUFFMAN, ADAPTIVE_HUFFMAN, ADAPTIVE_ARITHMETIC])
    def test_crafted_payload_fails_fast(self, coder):
        # one declared sample, then 10 kB of zeros: the decoder stops near
        # the header's symbol-stream bound instead of decoding ~10^7 symbols
        header = StreamHeader(
            method_version=2, entropy_id=coder, block_len=16, tau=9,
            scale_exp=3, sample_count=1,
        ).pack()
        t0 = time.perf_counter()
        with pytest.raises(CorruptStream):
            decompress_stream(header + bytes(10_000))
        assert time.perf_counter() - t0 < 0.05

    def test_flipped_payload_byte_detected_or_wrong(self):
        # a corrupted entropy stream must never crash with a non-codec
        # error; it either raises CorruptStream or decodes to
        # something (integrity checking is not the codec's job)
        samples = [float(i % 9) for i in range(256)]
        blob, _ = compress_stream(samples, make_config())
        rng = random.Random(830)
        for _ in range(60):
            i = rng.randrange(HEADER_LEN, len(blob))
            bad = bytearray(blob)
            bad[i] ^= 1 << rng.randrange(8)
            try:
                decompress_stream(bytes(bad))
            except CorruptStream:
                pass


def two_sample_container(version, coder, payload, sample_count=2):
    """Container of sample_count samples (L16, tau 9, d3) whose entropy payload is payload."""
    header = StreamHeader(
        method_version=version,
        entropy_id=coder,
        block_len=16,
        tau=9,
        scale_exp=3,
        sample_count=sample_count,
    )
    return header.pack() + payload


def crafted_container(version, fields, sample_count=2):
    """Container of sample_count samples whose blocks are the given (values, signed) varint runs."""
    symbols = bytearray()
    for values, signed in fields:
        write_varints(values, symbols, signed, 64 if signed else 16)
    payload = entropy.encode(bytes(symbols), ADAPTIVE_ARITHMETIC).data
    return two_sample_container(version, ADAPTIVE_ARITHMETIC, payload, sample_count)


def constant_blocks(version, level, count):
    """The varint runs of count constant blocks of level."""
    header = ((1, level), True) if version == 1 else ((level,), True)
    return [header, ((0,), False)] * count


# Each two-sample case decodes to [INT64_MAX, 2 * INT64_MAX], [INT64_MAX,
# INT64_MAX + 1] or [INT64_MIN, INT64_MIN - 1]: a mode-block sum or a
# diff-block running sum that leaves the signed 64-bit range.  The
# repeating cases hold 63 codes at an int64 edge and one step past it, so the
# range is read over their two distinct codes.
OUT_OF_RANGE = {
    "v1-mode": (1, [((1, INT64_MAX), True), ((0b01,), False), ((INT64_MAX,), True)]),
    "v1-diff": (1, [((0, INT64_MAX, 1), True)]),
    "v2-mode": (2, [((INT64_MAX,), True), ((0b01,), False), ((INT64_MAX,), True)]),
    "v2-diff": (2, [((INT64_MAX,), True), ((0b11,), False), ((INT64_MAX, 1), True)]),
    "v2-diff-low": (2, [((INT64_MIN,), True), ((0b11,), False), ((INT64_MIN, -1), True)]),
    **{
        f"v{v}-repeating-{side}": (
            v,
            constant_blocks(v, edge, 3)
            + [((1, edge) if v == 1 else (edge,), True), ((0b1,), False), ((step,), True)],
            64,
        )
        for v in (1, 2)
        for side, edge, step in (("high", INT64_MAX, 1), ("low", INT64_MIN, -1))
    },
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_decoded_samples_outside_int64_rejected(case, tmp_path):
    blob = crafted_container(*OUT_OF_RANGE[case])
    for decompress in (decompress_to_tokens, decompress_stream):
        with pytest.raises(CorruptStream, match="64-bit"):
            decompress(blob)
    packed = tmp_path / "in.nlts"
    packed.write_bytes(blob)
    assert main(["decompress", str(packed), str(tmp_path / "out.txt")]) == 2


# Damage found by the varint reader or the version-1 flag check, at the
# container level: (method version, coder, payload hex, message).  For the
# arithmetic coder the hex is the symbol stream, coded before it is stored;
# for static Huffman it is the stored entropy payload itself.
DAMAGED = {
    "v1-flag-2": (
        1, ADAPTIVE_ARITHMETIC, "04 02 00", "version-1 branch flag must be 0 or 1, got 2"
    ),
    "v2-cut-varint": (2, ADAPTIVE_ARITHMETIC, "80", "byte source ended inside a varint"),
    "v2-overlong-value": (
        2, ADAPTIVE_ARITHMETIC, "80 " * 10 + "01", "varint exceeds 10 bytes for 64-bit range"
    ),
    "v2-overlong-mask": (
        2, ADAPTIVE_ARITHMETIC, "02 80 80 80 01", "varint exceeds 1 bytes for 2-bit range"
    ),
    "static-cut-count": (2, STATIC_HUFFMAN, "80", "byte source ended inside a varint"),
    "static-wide-count": (
        2, STATIC_HUFFMAN, "ff ff ff ff 1f", "decoded value needs more than 32 bits"
    ),
}


@pytest.mark.parametrize("case", sorted(DAMAGED))
def test_damaged_varint_or_flag_is_corrupt_stream(case, tmp_path, capsys):
    version, coder, payload, message = DAMAGED[case]
    payload = bytes.fromhex(payload)
    if coder == ADAPTIVE_ARITHMETIC:
        payload = entropy.encode(payload, coder).data
    blob = two_sample_container(version, coder, payload)
    for decompress in (decompress_to_tokens, decompress_stream):
        with pytest.raises(CodecError) as e:
            decompress(blob)
        assert type(e.value) is CorruptStream and str(e.value) == message
    packed = tmp_path / "in.nlts"
    packed.write_bytes(blob)
    assert main(["decompress", str(packed), str(tmp_path / "out.txt")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_int64_edges_decode():
    blob = crafted_container(2, [((INT64_MAX,), True), ((0b11,), False), ((INT64_MAX, -1), True)])
    tokens, _ = decompress_to_tokens(blob)
    assert tokens == ["9223372036854775.807", "9223372036854775.806"]


# int64 samples whose difference or deviation from the block mode does not
# fit signed 64 bits: (tokens, digits, version, first sample of the block)
WIDE_STEPS = {
    "lossless-diff": ([str(INT64_MIN), str(INT64_MAX)], None, 2, 0),
    "d3-diff": (["-9223372036854775.808", "9223372036854775.807"], 3, 2, 0),
    "v1-diff": ([str(INT64_MIN), str(INT64_MAX)], None, 1, 0),
    "mode-deviation": (["1"] * 16 + [str(INT64_MIN)] * 9 + [str(INT64_MAX)] * 7, None, 2, 16),
    "v1-mode-deviation": (["1"] * 16 + [str(INT64_MIN)] * 9 + [str(INT64_MAX)] * 7, None, 1, 16),
}


@pytest.mark.parametrize("case", sorted(WIDE_STEPS))
def test_step_past_int64_names_block(case, tmp_path, capsys):
    tokens, digits, version, start = WIDE_STEPS[case]
    message = (
        f"block starting at sample {start}: a difference or a deviation from "
        "the block mode needs more than signed 64 bits"
    )
    with pytest.raises(CodecError) as e:
        compress_stream(tokens, make_config(version=version, digits=digits))
    assert type(e.value) is CodecError and str(e.value) == message
    src = tmp_path / "in.txt"
    src.write_text("\n".join(tokens) + "\n")
    scale = ["--lossless"] if digits is None else ["--digits", str(digits)]
    args = ["compress", str(src), str(tmp_path / "o.nlts"), "--version", str(version)]
    assert main(args + scale) == 2
    assert message in capsys.readouterr().err


# (record, values by position, its repr, a field, a new value for it, a value
# the record refuses for that field or None)
RECORDS = [
    (StreamHeader, (2, 0, 16, 9, None, 100),
     "StreamHeader(method_version=2, entropy_id=0, block_len=16, tau=9, scale_exp=None, "
     "sample_count=100)", "tau", 4, None),
    (RunMetrics, (10, 5, 0.25, 0.5),
     "RunMetrics(input_bytes=10, output_bytes=5, seconds=0.25, max_abs_error=0.5)",
     "seconds", 0.5, None),
    (CodecConfig, (1, STATIC_HUFFMAN, 32, 4, LOSSLESS),
     "CodecConfig(method_version=1, coder=0, block_len=32, tau=4, digits='lossless')",
     "tau", 2, 0),
    (BitStream, (b"\x80",), "BitStream(data=b'\\x80')", "data", b"", None),
    (DatasetSpec, ("t", "in.csv", "value", ";", "fail"),
     "DatasetSpec(name='t', source_path='in.csv', column='value', delimiter=';', "
     "missing_policy='fail')", "missing_policy", "skip", "drop"),
    (SweepSpec, ((1, 2), ("static",), (16,), (9,), (3, "lossless"), 2),
     "SweepSpec(versions=(1, 2), coders=('static',), block_lens=(16,), taus=(9,), "
     "digits=(3, 'lossless'), repeats=2)", "repeats", 5, 0),
    (VerifyResult, (True, Decimal("0.001"), 3),
     "VerifyResult(ok=True, max_abs_error=Decimal('0.001'), argmax_index=3)", "ok", False, None),
]


@pytest.mark.parametrize("cls, values, text, field, new, bad", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_value_record(cls, values, text, field, new, bad):
    # every record is a named tuple: immutable, equal to (and hashed as) the
    # plain tuple of its values
    r = cls(*values)
    assert r == cls(**dict(zip(cls._fields, values))) == values
    assert repr(r) == text and hash(r) == hash(values)
    assert r._asdict() == dict(zip(cls._fields, values))
    changed = r._replace(**{field: new})
    assert type(changed) is cls and r == values
    assert changed == tuple(new if k == field else v for k, v in zip(cls._fields, values))
    if bad is not None:  # _replace checks the new value as the constructor does
        with pytest.raises(ValueError):
            r._replace(**{field: bad})
    with pytest.raises(AttributeError):
        setattr(r, field, new)
    with pytest.raises(AttributeError):
        r.note = "a record takes no other attribute"


class TestMetrics:
    def test_arithmetic(self):
        m = RunMetrics(1000, 250, 1.0)
        assert m.cr == 4.0
        m = RunMetrics(500, 500, 1.0)
        assert m.cr == 1.0

    def test_rates(self):
        assert RunMetrics(2_000_000, 100, 2.0).rate == 1.0
        assert RunMetrics(2_000_000, 100, 0.5).rate == 4.0
        assert RunMetrics(2_000_000, 100, 0).rate == 0.0

    def test_record_holds_what_a_call_measures(self):
        assert RunMetrics._fields == ("input_bytes", "output_bytes", "seconds", "max_abs_error")
        m = RunMetrics(10, 5, 0.25, 0.5)
        with pytest.raises(AttributeError):
            m.input_bytes = 20
        with pytest.raises(AttributeError):
            m.cr = 1.0
        blob, m = compress_stream([0.5, 1.25], make_config(digits=2))
        assert m.seconds > 0 and m.rate == m.input_bytes / m.seconds / 1e6
        _, md = decompress_to_tokens(blob)
        assert md.seconds > 0 and md.max_abs_error is None

    def test_cr_recomputable_from_sizes(self):
        samples = [random.Random(840).uniform(0, 1) for _ in range(300)]
        blob, m = compress_stream(samples, make_config())
        assert m.output_bytes == len(blob)
        assert m.cr == m.input_bytes / m.output_bytes

    def test_canonical_size_matches_rendering(self):
        rng = random.Random(841)
        codes = [rng.randrange(-10**7, 10**7) for _ in range(500)] + [0, -1, 1]
        codes += [s * (2**52 + k) for s in (1, -1) for k in range(-3, 4)]
        codes += [INT64_MIN, INT64_MAX]
        for d in (None, 0, 1, 3, 6):
            cs = codes + list(range(-(10 ** (d or 0)) + 1, 0, 499))  # -10**d < c < 0
            expected = sum(len(render_code(c, d)) + 1 for c in cs)
            assert canonical_size(cs, d, min(cs), max(cs)) == expected
        # columns of one sign, some of one whole-part width, some straddling
        # a power of ten at d = 3 (0.999 / 1.000 and 9.999 / 10.000)
        columns = [[0] * 40, [7], [-7], [999, 1000], [9_999, 10_000], [-10_000, -9_999]]
        for k in range(19):
            lo, hi = 10**k, min(10 ** (k + 1) - 1, INT64_MAX)
            columns.append([rng.randrange(lo, hi + 1) for _ in range(50)] + [lo, hi])
            columns.append([lo - 1, lo])
            columns.append([-lo, -lo - 1])
            columns.append([-rng.randrange(lo, hi + 1) for _ in range(50)])
        columns.append([INT64_MIN, INT64_MIN + 1])
        for d in (None, 0, 1, 3, 6):
            # mixed signs whose ends render as long as each other, not as 0
            one = 10 ** (d or 0)
            for cs in columns + [[-one, 0, 10 * one], [10 * one, -one, 1]]:
                expected = sum(len(render_code(c, d)) + 1 for c in cs)
                assert canonical_size(cs, d, min(cs), max(cs)) == expected, (cs, d)
        assert canonical_size([], 3, 0, 0) == 0

    @pytest.mark.parametrize("d", [None, 0, 1, 2, 3, 4, 5, 6])
    def test_decompress_stream_floats(self, d):
        # each float is its token's and its code's c / 10**d, bit for bit,
        # and the text size is the rendered text's: random codes, and codes
        # near 2**52, 2**53 and 2**60, near powers of ten and at the
        # int64 edges, one stream each so that no block step leaves the range
        rng = random.Random(842)
        edges = [s * (2**b + k) for s in (1, -1) for b in (52, 53, 60) for k in range(-3, 4)]
        edges += [s * (10**k + j) for s in (1, -1) for k in range(19) for j in (-1, 1)]
        edges += [0, INT64_MIN, INT64_MAX, INT64_MIN + 1, INT64_MAX - 1]
        spread = [rng.randrange(-(10 ** (7 + (d or 0))), 10 ** (7 + (d or 0))) for _ in range(300)]
        wide = [rng.randrange(-(2**62), 2**62) for _ in range(500)]
        for codes in [spread, wide] + [[c, c] for c in edges]:
            samples = [render_code(c, d) for c in codes]
            blob, _ = compress_stream(samples, make_config(digits=d))
            tokens, text_metrics = decompress_to_tokens(blob)
            values, metrics = decompress_stream(blob)
            assert metrics.input_bytes == text_metrics.input_bytes
            assert metrics.output_bytes == text_metrics.output_bytes
            assert all(type(v) is float for v in values)
            want = [c / 10**d if d else float(c) for c in codes]
            assert list(map(repr, values)) == list(map(repr, map(float, tokens)))
            assert list(map(repr, values)) == list(map(repr, want)), codes

    def test_decompress_tokens_input_bytes_equals_canonical(self):
        rng = random.Random(843)
        # (samples, digits; None is lossless): repeating streams with negative
        # codes, with codes on both sides of a power of ten, in [0, 10**(d+1))
        # (every code one width), at d=0 and through integer passthrough
        cases = [
            ([1.25, -3.5, 0.0], 2),
            (["-1.5", "2.25", "-1.5", "-12.75"] * 40, 2),
            (["9.999", "10.000", "0.001"] * 50, 3),
            (["0", "9.999", "5.5", "9.9994"] * 50, 3),
            (["0.0004", "1", "-0.0004"] * 50, 3),
            (["3", "12", "-4", "99", "100"] * 30, 0),
            (["0", "9", "10"] * 30, 0),
            (["7", "0", "9.4"] * 30, 0),
            (["5", "-120", "5", "10"] * 30, None),
            (["1", "2", "9"] * 30, None),
            ([f"{rng.uniform(-20, 20):.4f}" for _ in range(2000)], 3),
        ]
        for samples, digits in cases:
            blob, m = compress_stream(samples, make_config(digits=digits))
            tokens, md = decompress_to_tokens(blob)
            assert md.input_bytes == len("\n".join(tokens)) + 1 == m.input_bytes, samples[:5]
            values, mf = decompress_stream(blob)
            assert mf.input_bytes == m.input_bytes and values == list(map(float, tokens))
