"""Acceptance suite: one test per release criterion.

Criteria that compare against the published benchmark numbers need the real
datasets (fetch steps in the README, point NLTS_DATA_DIR at them); they skip
with a note when the data is absent.  Everything synthetic always runs.
A summary table is printed at the end of the pytest run.
"""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import dataset_path, record_criterion, require_dataset
from reference_coders import FgkTree, fgk_encode
from reference_transform import NonzeroMask

from nlts.bench import run_config, verify_values
from nlts.container import CodecConfig, compress_stream, decompress_to_tokens
from nlts.core import read_varints, write_varints
from nlts.datasets import packaged_spec, ingest
from nlts.entropy import adaptive_huffman, static_huffman
from nlts.quantizer import LOSSLESS, quantize_stream, render_code
from nlts.transform import decode_blocks, encode_blocks

DATASET_NAMES = ("BVP", "EDA", "ACM", "GYS", "GAS", "Gactive")

TABLE_LOSSLESS_CR = {  # version 1, no quantization
    "BVP": 2.80, "EDA": 3.02, "ACM": 2.68, "GYS": 3.22, "GAS": 3.91, "Gactive": 3.08,
}
TABLE_LOSSY_CR = {  # version 2, L=16, tau=9, eps=1e-3, adaptive arithmetic
    "BVP": 2.44, "EDA": 12.75, "ACM": 4.64, "GYS": 7.13, "GAS": 15.10, "Gactive": 4.18,
}

_TOKEN_CACHE = {}


def dataset_tokens(name: str):
    if name not in _TOKEN_CACHE:
        require_dataset(name)
        from conftest import data_dir

        _TOKEN_CACHE[name] = ingest(packaged_spec(name).resolve(data_dir()))
    return _TOKEN_CACHE[name]


def available_datasets():
    return [n for n in DATASET_NAMES if dataset_path(n) is not None]


def skip_without_datasets(number, title, names=DATASET_NAMES):
    missing = [n for n in names if dataset_path(n) is None]
    if missing:
        record_criterion(number, title, "SKIP", f"missing datasets: {', '.join(missing)}")
        pytest.skip(f"needs datasets: {', '.join(missing)}")


def test_criterion_1_bitmap_golden_value():
    title = "bitmap golden value 51021"
    deviations = [10, -2, 0, 0, 0, -1, 2, 3, 0, 1, 0, 0, 3, 4, 0, 1]
    mask = NonzeroMask.from_values(deviations)
    try:
        assert mask.value == 51021
        assert mask.expand([10, -2, -1, 2, 3, 1, 3, 4, 1]) == deviations
    except AssertionError:
        record_criterion(1, title, "FAIL", f"got {mask.value}")
        raise
    record_criterion(1, title, "PASS", "exact")


def test_criterion_2_quantizer_golden_value():
    title = "quantizer golden value 124.3472@d2 -> 124.35"
    (code,), _, _, _ = quantize_stream([124.3472], 2)
    try:
        assert code == 12435
        assert render_code(code, 2) == "124.35"
    except AssertionError:
        record_criterion(2, title, "FAIL", f"got code {code}")
        raise
    record_criterion(2, title, "PASS", "exact")


class TestCriterion3NearLossless:
    NUM_STREAMS = 10_000

    def _random_stream(self, rng):
        n = rng.randrange(1, 120)
        style = rng.randrange(5)
        if style == 0:  # flat with repeats
            base = rng.uniform(-50, 50)
            return [base + rng.choice([0, 0, 0, 0.001, -0.002]) for _ in range(n)]
        if style == 1:  # random walk
            v = rng.uniform(-10, 10)
            out = []
            for _ in range(n):
                v += rng.gauss(0, 0.05)
                out.append(v)
            return out
        if style == 2:  # wild floats
            return [rng.uniform(-1e6, 1e6) for _ in range(n)]
        if style == 3:  # integers
            return [float(rng.randrange(-1000, 1000)) for _ in range(n)]
        return [rng.gauss(0, 1) for _ in range(n)]  # small magnitudes

    def test_synthetic_streams(self):
        title = "near-losslessness on 10^4 synthetic streams, d in {1,2,3}"
        rng = random.Random(42)
        matrix = [
            (v, coder, L, tau)
            for v in (1, 2)
            for coder in (0, 1, 2)
            for L in (16, 32, 64)
            for tau in (2, 9)
        ]
        checked = 0
        try:
            for i in range(self.NUM_STREAMS):
                samples = self._random_stream(rng)
                version, coder, L, tau = matrix[i % len(matrix)]
                for d in (1, 2, 3):
                    cfg = CodecConfig(version, coder, L, min(tau, L), d)
                    blob, _ = compress_stream(samples, cfg)
                    tokens, _ = decompress_to_tokens(blob)
                    # bit-exact in the quantized domain
                    codes, _, _, _ = quantize_stream(samples, d)
                    assert tokens == [render_code(c, d) for c in codes]
                    # hard error bound against the float inputs, exactly:
                    # |p/q - c/10**d| <= 10**-d  <=>  |p * 10**d - c * q| <= q
                    scale = 10**d
                    for x, c in zip(samples, codes):
                        p, q = x.as_integer_ratio()
                        assert abs(p * scale - c * q) <= q, (x, c, d)
                        checked += 1
        except AssertionError:
            record_criterion(3, title, "FAIL")
            raise
        record_criterion(3, title, "PASS",
                         f"{self.NUM_STREAMS} streams, {checked} sample checks, zero violations")

    @pytest.mark.dataset
    def test_datasets(self):
        title = "near-losslessness on every ingested dataset, d in {1,2,3}"
        names = available_datasets()
        if not names:
            record_criterion(3, title, "SKIP", "no datasets present")
            pytest.skip("no datasets present")
        try:
            for name in names:
                tokens = dataset_tokens(name)
                for d in (1, 2, 3):
                    cfg = CodecConfig(2, 2, 16, 9, d)
                    blob, _ = compress_stream(tokens, cfg)
                    decoded, _ = decompress_to_tokens(blob)
                    codes, _, _, _ = quantize_stream(tokens, d)
                    assert decoded == [render_code(c, d) for c in codes]
                    check = verify_values(tokens, decoded, Decimal(1).scaleb(-d))
                    assert check.ok, (name, d, check)
        except AssertionError:
            record_criterion(3, title, "FAIL")
            raise
        record_criterion(3, title, "PASS", f"datasets: {', '.join(names)}")


@pytest.mark.dataset
def test_criterion_4_lossless_cr_reproduction():
    title = "lossless CR within 15% of published (version 1)"
    skip_without_datasets(4, title)
    details = []
    failures = []
    for name in DATASET_NAMES:
        tokens = dataset_tokens(name)
        cfg = CodecConfig(1, 2, 16, 9, LOSSLESS)
        blob, m = compress_stream(tokens, cfg)
        expected = TABLE_LOSSLESS_CR[name]
        raw = dataset_path(name).stat().st_size
        details.append(
            f"{name}: cr={m.cr:.2f} (published {expected}; canonical {m.input_bytes} B, raw {raw} B)"
        )
        if not expected * 0.85 <= m.cr <= expected * 1.15:
            failures.append(details[-1])
    status = "FAIL" if failures else "PASS"
    record_criterion(4, title, status, "; ".join(details))
    assert not failures, failures


@pytest.mark.dataset
def test_criterion_5_lossy_cr_reproduction():
    title = "lossy CR within 15% of published (version 2, d=3)"
    skip_without_datasets(5, title)
    details = []
    failures = []
    for name in DATASET_NAMES:
        tokens = dataset_tokens(name)
        cfg = CodecConfig(2, 2, 16, 9, 3)
        blob, m = compress_stream(tokens, cfg)
        expected = TABLE_LOSSY_CR[name]
        details.append(f"{name}: cr={m.cr:.2f} (published {expected})")
        if not expected * 0.85 <= m.cr <= expected * 1.15:
            failures.append(details[-1])
    status = "FAIL" if failures else "PASS"
    record_criterion(5, title, status, "; ".join(details))
    assert not failures, failures


def _cr(tokens, version, L, tau, digits, coder=2):
    cfg = CodecConfig(version, coder, L, tau, LOSSLESS if digits is None else digits)
    _, m = compress_stream(tokens, cfg)
    return m.cr


@pytest.mark.dataset
def test_criterion_6_trend_block_size():
    title = "CR trend: GAS v2 strictly increasing with L in {16,32,64}"
    skip_without_datasets(6, title, names=("GAS",))
    tokens = dataset_tokens("GAS")
    crs = [_cr(tokens, 2, L, max(1, 7 * L // 16), 3) for L in (16, 32, 64)]
    ok = crs[0] < crs[1] < crs[2]
    record_criterion(6, title, "PASS" if ok else "FAIL",
                     "cr(L=16,32,64) = " + ", ".join(f"{c:.2f}" for c in crs))
    assert ok, crs


@pytest.mark.dataset
def test_criterion_6_trend_tau():
    title = "CR trend: v2 non-decreasing in tau (EDA, GYS, GAS, Gactive)"
    names = ("EDA", "GYS", "GAS", "Gactive")
    skip_without_datasets(6, title, names=names)
    sweeps = {16: (5, 7, 9), 32: (5, 9, 13, 17), 64: (10, 20, 30, 40)}
    failures = []
    details = []
    for name in names:
        tokens = dataset_tokens(name)
        for L, taus in sweeps.items():
            crs = [_cr(tokens, 2, L, tau, 3) for tau in taus]
            details.append(f"{name} L{L}: " + ",".join(f"{c:.2f}" for c in crs))
            if any(b < a * (1 - 1e-9) for a, b in zip(crs, crs[1:])):
                failures.append(details[-1])
    record_criterion(6, title, "FAIL" if failures else "PASS", "; ".join(details))
    assert not failures, failures


@pytest.mark.dataset
def test_criterion_6_trend_epsilon():
    title = "CR trend: v2 strictly increasing as eps 1e-3 -> 1e-2 -> 1e-1"
    names = ("ACM", "GYS", "Gactive")
    skip_without_datasets(6, title, names=names)
    failures = []
    details = []
    for name in names:
        tokens = dataset_tokens(name)
        crs = [_cr(tokens, 2, 64, 40, d) for d in (3, 2, 1)]
        details.append(f"{name}: " + ",".join(f"{c:.2f}" for c in crs))
        if not crs[0] < crs[1] < crs[2]:
            failures.append(details[-1])
    record_criterion(6, title, "FAIL" if failures else "PASS", "; ".join(details))
    assert not failures, failures


@pytest.mark.dataset
def test_criterion_7_entropy_coder_ranking():
    title = "coder ranking: arithmetic >= static >= adaptive-huffman-1% on >=4 datasets"
    skip_without_datasets(7, title)
    good = 0
    details = []
    for name in DATASET_NAMES:
        tokens = dataset_tokens(name)
        crs = {coder: _cr(tokens, 2, 16, 9, 3, coder=coder) for coder in (0, 1, 2)}
        ok = crs[2] >= crs[0] and crs[0] >= crs[1] * 0.99
        good += ok
        details.append(
            f"{name}: static={crs[0]:.2f} adahuff={crs[1]:.2f} arith={crs[2]:.2f}"
            + ("" if ok else " (off)")
        )
    record_criterion(7, title, "PASS" if good >= 4 else "FAIL",
                     f"{good}/6 datasets ordered; " + "; ".join(details))
    assert good >= 4, details


@pytest.mark.dataset
def test_criterion_8_throughput():
    title = "throughput >= 0.5 MB/s encode and decode on every dataset"
    skip_without_datasets(8, title)
    failures = []
    details = []
    for name in DATASET_NAMES:
        tokens = dataset_tokens(name)
        row = run_config(tokens, 2, "arithmetic", 16, 9, 3, repeats=3)
        assert not row["error"], row
        details.append(f"{name}: enc {row['encode_rate']:.2f} dec {row['decode_rate']:.2f} MB/s")
        if row["encode_rate"] < 0.5 or row["decode_rate"] < 0.5:
            failures.append(details[-1])
    record_criterion(8, title, "FAIL" if failures else "PASS", "; ".join(details))
    assert not failures, failures


class TestCriterion9PropertySuites:
    def test_mask_round_trip(self):
        rng = random.Random(901)
        for _ in range(10_000):
            w = rng.randrange(1, 65)
            values = [rng.choice([0, 0, rng.randrange(-9, 9)]) for _ in range(w)]
            mask = NonzeroMask.from_values(values)
            assert mask.expand([v for v in values if v]) == values
        record_criterion(9, "property: mask pack/expand round-trip", "PASS", "10^4 cases")

    def test_zigzag_varint_round_trip(self):
        rng = random.Random(902)
        values = [rng.randrange(-(2**63), 2**63) for _ in range(10_000)]
        data = bytearray()
        write_varints(values, data)
        decoded = []
        assert read_varints(data, 0, len(values), decoded) == len(data)
        assert decoded == values
        record_criterion(9, "property: zigzag/varint round-trip", "PASS", "10^4 values")

    @pytest.mark.parametrize("version", [1, 2])
    def test_transform_identity(self, version):
        rng = random.Random(903 + version)
        for _ in range(20_000):
            L = rng.choice([16, 32, 64])
            tau = rng.randrange(1, L + 1)
            width = L if rng.random() < 0.5 else rng.randrange(1, L + 1)
            codes = rng.choices(range(-6, 7), k=width)
            cfg = CodecConfig(method_version=version, block_len=L, tau=tau)
            symbols = encode_blocks(codes, cfg)
            assert decode_blocks(bytes(symbols), cfg, width) == codes
        record_criterion(9, f"property: transform identity (v{version})", "PASS",
                         "2*10^4 blocks under randomized (L, tau)")

    def test_v2_resolvability_one_million(self):
        # every block decodes to its codes, so the decoder re-derived the
        # branch the encoder took; blocks go through in streams of 1,000
        rng = random.Random(905)
        cfg = CodecConfig(method_version=2, block_len=16, tau=9)
        cases = 1_000_000
        codes = []
        for i in range(cases):
            kind = i & 3
            if kind == 0:  # adversarial: x1 = 0
                codes += [0] + rng.choices(range(-4, 5), k=15)
            elif kind == 1:  # adversarial: x1 = 2 * mode
                m = rng.randrange(1, 30)
                reps = rng.randrange(7, 15)
                codes += [2 * m] + [m] * reps + rng.choices(range(-4, 5), k=15 - reps)
            elif kind == 2:  # mode-heavy
                codes += rng.choices(range(-2, 3), k=16)
            else:  # wild
                codes += rng.choices(range(-1000, 1000), k=16)
            if len(codes) == 16_000:
                assert decode_blocks(bytes(encode_blocks(codes, cfg)), cfg, 16_000) == codes
                codes = []
        record_criterion(9, "property: v2 branch resolvability", "PASS",
                         f"{cases} blocks incl. x1=0 and x1=2*mode")

    def test_entropy_round_trip_and_near_entropy(self):
        from test_entropy import TestArithmetic, random_payloads
        from nlts import entropy

        for coder in (0, 1, 2):
            for payload in random_payloads(906 + coder, 60):
                stream = entropy.encode(payload, coder)
                assert entropy.decode(stream.data, coder, len(payload)) == payload
        checker = TestArithmetic()
        rng = random.Random(907)
        for probs, n in [((0.95, 0.05), 8192), ((0.5, 0.3, 0.15, 0.05), 8192)]:
            payload = bytes(rng.choices(range(len(probs)), weights=probs, k=n))
            checker._check_near_entropy(payload)
        record_criterion(9, "property: entropy round-trip + near-entropy", "PASS",
                         "3 coders; skewed sources vs replay-oracle bound")

    def test_kraft_inequality_all_huffman_code_sets(self):
        rng = random.Random(908)
        for _ in range(200):
            syms = rng.sample(range(256), rng.randrange(1, 80))
            hist = {s: rng.randrange(1, 500) for s in syms}
            lengths = static_huffman.code_lengths(hist)
            assert sum(Fraction(1, 2**l) for l in lengths.values()) <= 1
        # the adaptive tree is the reference's, which the coder matches bit for bit
        payload = bytes(rng.randrange(256) for _ in range(3000))
        tree = FgkTree()
        for step, sym in enumerate(payload):
            tree.update(sym)
            if step % 750 == 0:
                ks = sum(Fraction(1, 2 ** len(tree.code_bits(s))) for s in range(257))
                assert ks == 1
        assert adaptive_huffman.encode(payload).data == fgk_encode(payload).data
        record_criterion(9, "property: Kraft inequality on Huffman code sets", "PASS",
                         "static (random histograms) and adaptive tree snapshots")
