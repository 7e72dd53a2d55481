import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nlts
from nlts.bench import SweepSpec
from nlts.cli import main
from nlts.cli import _build_parser
from nlts.container import StreamHeader, decompress_to_tokens
from nlts.datasets import DatasetSpec


def write_series(path, n=600, seed=920, fmt="{:.4f}"):
    rng = random.Random(seed)
    v = 10.0
    with open(path, "w") as f:
        for _ in range(n):
            v += rng.gauss(0, 0.02)
            f.write(fmt.format(v) + "\n")


class TestColdCall:
    # the CLI is one process per file; only `nlts bench --jobs N` runs a
    # process pool, and concurrent.futures pulls in multiprocessing.  The
    # sweep harness (with statistics), packaged specs (importlib.resources),
    # report checksums (hashlib), spec files (json) and spec resolution
    # (pathlib) are bench's alone too.  The value records are named tuples:
    # dataclasses would pull in inspect (with ast, dis and tokenize) and
    # build their methods by exec at import.
    HEAVY = ("concurrent.futures", "multiprocessing", "nlts.bench", "statistics",
             "importlib.resources", "hashlib", "json", "pathlib", "dataclasses", "inspect")

    @pytest.mark.parametrize("command", ["compress", "decompress"])
    def test_codec_command_imports_no_bench_module(self, tmp_path, command):
        src, packed, back = tmp_path / "in.txt", tmp_path / "out.nlts", tmp_path / "back.txt"
        write_series(src, n=1024)
        assert main(["compress", str(src), str(packed)]) == 0
        argv = [command, str(src), str(packed)] if command == "compress" else [
            command, str(packed), str(back)]
        script = (
            "import sys\n"
            "from nlts.cli import main\n"
            f"code = main({argv!r})\n"
            f"heavy = [m for m in {self.HEAVY!r} if m in sys.modules]\n"
            "print(code, *heavy)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(nlts.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0"
        assert packed.stat().st_size > 0


class TestCompressDecompressVerify:
    def test_round_trip_ok(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        write_series(src)
        packed = tmp_path / "out.nlts"
        back = tmp_path / "back.txt"

        assert main(["compress", str(src), str(packed), "--digits", "3"]) == 0
        assert main(["decompress", str(packed), str(back)]) == 0
        assert main(["verify", str(src), str(back), "--epsilon", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "cr=" in out and "ok" in out

    def test_summary_lines(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        write_series(src, n=500)
        packed = tmp_path / "out.nlts"
        back = tmp_path / "back.txt"
        assert main(["compress", str(src), str(packed), "--digits", "3"]) == 0
        enc = capsys.readouterr().out
        assert main(["decompress", str(packed), str(back)]) == 0
        dec = capsys.readouterr().out
        enc = re.fullmatch(
            r"(\d+) samples -> (\d+) bytes  cr=(\d+\.\d\d)  encode=(\d+\.\d\d) MB/s  "
            r"max_err=(\S+)\n",
            enc,
        )
        dec = re.fullmatch(
            r"(\d+) bytes -> (\d+) samples  cr=(\d+\.\d\d)  decode=(\d+\.\d\d) MB/s\n", dec
        )
        assert enc and dec
        size = packed.stat().st_size
        cr = f"{back.stat().st_size / size:.2f}"
        assert enc[1] == dec[2] == "500"
        assert enc[2] == dec[1] == str(size)
        assert enc[3] == dec[3] == cr
        assert float(enc[5]) <= 0.0005

    def test_verify_failure_exit_1(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1.0\n2.0\n")
        b.write_text("1.0\n2.5\n")
        assert main(["verify", str(a), str(b), "--epsilon", "0.1"]) == 1

    def test_format_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.nlts"
        bad.write_bytes(b"XXXX" + bytes(32))
        out = tmp_path / "out.txt"
        assert main(["decompress", str(bad), str(out)]) == 2
        assert main(["stats", str(bad)]) == 2

    def test_io_error_exit_3(self, tmp_path):
        assert main(["decompress", str(tmp_path / "missing.nlts"),
                     str(tmp_path / "out.txt")]) == 3
        assert main(["compress", str(tmp_path / "missing.txt"),
                     str(tmp_path / "out.nlts")]) == 3

    def test_lossless_flag(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("1.5\n2.25\n-3.125\n")
        packed = tmp_path / "out.nlts"
        back = tmp_path / "back.txt"
        assert main(["compress", str(src), str(packed), "--lossless"]) == 0
        assert main(["decompress", str(packed), str(back)]) == 0
        assert back.read_text() == "1.500\n2.250\n-3.125\n"
        assert main(["verify", str(src), str(back), "--epsilon", "0"]) == 0

    @pytest.mark.parametrize("lossless", [False, True])
    def test_decompressed_bytes_are_canonical(self, tmp_path, lossless):
        src = tmp_path / "in.txt"
        src.write_bytes(b"1.250\n-0.004\n0.000\n12.500\n-3.125\n")
        packed = tmp_path / "out.nlts"
        back = tmp_path / "back.txt"
        option = ["--lossless"] if lossless else ["--digits", "2"]
        assert main(["compress", str(src), str(packed), *option]) == 0
        assert main(["decompress", str(packed), str(back)]) == 0
        tokens, _ = decompress_to_tokens(packed.read_bytes())
        assert back.read_bytes() == "".join(t + "\n" for t in tokens).encode()
        if lossless:
            assert back.read_bytes() == src.read_bytes()

    def test_csv_column_options(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("t;v\n0;1.5\n1;?\n2;2.5\n")
        packed = tmp_path / "out.nlts"
        back = tmp_path / "back.txt"
        assert main(["compress", str(src), str(packed), "--column", "v",
                     "--delimiter", ";", "--digits", "2"]) == 0
        assert main(["decompress", str(packed), str(back)]) == 0
        assert back.read_text() == "1.50\n2.50\n"

    def test_column_out_of_range_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("0,1.5\n1,2.5\n")
        packed = tmp_path / "out.nlts"
        back = tmp_path / "back.txt"
        for column in ("-5", "2"):
            assert main(["compress", str(src), str(packed), "--column", column,
                         "--delimiter", ","]) == 2
            assert "column" in capsys.readouterr().err
        assert main(["compress", str(src), str(packed), "--column", "-1",
                     "--delimiter", ",", "--digits", "1"]) == 0
        assert main(["decompress", str(packed), str(back)]) == 0
        assert back.read_text() == "1.5\n2.5\n"
        capsys.readouterr()
        # -1 names the first row's last column; a shorter later row lacks it
        src.write_text("1,10\n2\n3,30\n")
        assert main(["compress", str(src), str(packed), "--column", "-1",
                     "--delimiter", ","]) == 2
        assert capsys.readouterr().err == "error: row 2 has 1 fields, column 1 requested\n"

    def test_unicode_digit_column_is_a_header_name(self, tmp_path):
        # "²" and "١" are str.isdigit() digits; only ASCII digits make an index
        assert [_build_parser().parse_args(["compress", "in", "out", "--column", c]).column
                for c in ("²", "١", "-١", "12", "-1")] == ["²", "١", "-١", 12, -1]
        src = tmp_path / "in.csv"
        src.write_text("t,²,١\n0,1.5,7\n1,2.5,8\n", encoding="utf-8")
        packed = tmp_path / "out.nlts"
        back = tmp_path / "back.txt"
        for column, text in (("²", "1.5\n2.5\n"), ("١", "7.0\n8.0\n")):
            assert main(["compress", str(src), str(packed), "--column", column,
                         "--delimiter", ",", "--digits", "1"]) == 0
            assert main(["decompress", str(packed), str(back)]) == 0
            assert back.read_text() == text

    def test_verify_non_numeric_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1.0\n2.0\n")
        b.write_text("1.0\n\nabc\n")
        assert main(["verify", str(a), str(a), "--epsilon", "abc"]) == 2
        assert "epsilon" in capsys.readouterr().err
        assert main(["verify", str(a), str(b), "--epsilon", "0.1"]) == 2
        assert "b.txt: row 3" in capsys.readouterr().err

    def test_verify_negative_epsilon_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("1.0\n2.0\n")
        assert main(["verify", str(a), str(a), "--epsilon", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: epsilon '-1'")

    @pytest.mark.parametrize("a_text, b_text", [
        ("0.00050000000000000000000000000000000000001\n", "0\n"),  # past 28 digits
        ("1e9999999\n", "0\n"),  # past the default exponent limit
    ])
    def test_verify_fails_exactly(self, tmp_path, capsys, a_text, b_text):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(a_text)
        b.write_text(b_text)
        assert main(["verify", str(a), str(b), "--epsilon", "0.0005"]) == 1
        assert capsys.readouterr().err.startswith("FAIL  max_abs_error=")

    def test_verify_reads_as_compress_reads(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_bytes(b"1.25\r\n\r\n?\r\n2.5 9\r\n-3\r\n")
        packed = tmp_path / "out.nlts"
        back = tmp_path / "back.txt"
        assert main(["compress", str(src), str(packed), "--digits", "1"]) == 0
        assert main(["decompress", str(packed), str(back)]) == 0
        assert back.read_text() == "1.3\n2.5\n-3.0\n"
        assert main(["verify", str(src), str(back), "--epsilon", "0.05"]) == 0
        assert main(["verify", str(src), str(back), "--epsilon", "0.04"]) == 1

    READING = ["--column", "value", "--delimiter", ",", "--missing", "forward-fill"]

    @pytest.mark.parametrize("options, epsilon", [
        (["--digits", "3"], "0.001"),
        (["--lossless"], "0"),
    ])
    def test_verify_takes_compress_reading_options(self, tmp_path, capsys, options, epsilon):
        src = tmp_path / "g.csv"
        src.write_text("ts,value\n1,1.5\n2,?\n3,2.5\n")
        packed = tmp_path / "g.nlts"
        back = tmp_path / "g.out"
        assert main(["compress", str(src), str(packed), *self.READING, *options]) == 0
        assert main(["decompress", str(packed), str(back)]) == 0
        assert len(back.read_text().split()) == 3  # the gap forward-filled
        capsys.readouterr()
        assert main(["verify", str(src), str(back), "--epsilon", epsilon, *self.READING]) == 0
        assert capsys.readouterr().out.startswith("ok  ")
        # without them the header row is read as a value
        assert main(["verify", str(src), str(back), "--epsilon", epsilon]) == 2
        assert "row 1: cannot parse value 'ts,value'" in capsys.readouterr().err

    def test_verify_ragged_original_exit_2(self, tmp_path, capsys):
        src = tmp_path / "g.csv"
        src.write_text("ts,value\n1,1.5\n2,2.0\n3,2.5\n")
        packed = tmp_path / "g.nlts"
        back = tmp_path / "g.out"
        assert main(["compress", str(src), str(packed), *self.READING]) == 0
        assert main(["decompress", str(packed), str(back)]) == 0
        src.write_text("ts,value\n1,1.5\n2\n3,2.5\n")
        capsys.readouterr()
        assert main(["verify", str(src), str(back), "--epsilon", "0.001", *self.READING]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {src}: row 3 has 1 fields, column 1 requested\n"

    def test_oversized_quoted_field_exit_2(self, tmp_path, capsys):
        # csv.reader refuses a field past its 131,072-character limit; the
        # one-pass reader leaves the same field without quotes to it
        src = tmp_path / "g.csv"
        for field in ('"' + "9" * 140_000 + '"', "0." + "0" * 140_001):
            src.write_text(f"ts,value\n1,1.5\n2,{field}\n3,2.5\n")
            capsys.readouterr()
            assert main(["compress", str(src), str(tmp_path / "g.nlts"), *self.READING]) == 2
            assert main(["verify", str(src), str(src), "--epsilon", "0", *self.READING]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            compress_err, verify_err = captured.err.splitlines()
            assert compress_err.startswith("error: row 3: field larger than field limit")
            assert verify_err == f"error: {src}: {compress_err.removeprefix('error: ')}"

    def test_huge_exponent_input_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("1\n1e999999\n")
        assert main(["compress", str(src), str(tmp_path / "o.nlts")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "index 1 ('1e999999') overflows" in err

    def test_unparseable_input_exit_2(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("1.0\nhello\n")
        assert main(["compress", str(src), str(tmp_path / "o.nlts")]) == 2

    def test_stats_output(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        write_series(src, n=40)
        packed = tmp_path / "out.nlts"
        main(["compress", str(src), str(packed), "--version", "1",
              "--coder", "static", "--block", "32", "--tau", "4"])
        capsys.readouterr()
        assert main(["stats", str(packed)]) == 0
        out = capsys.readouterr().out
        assert "method_version:  1" in out
        assert "static" in out
        assert "block_len:       32" in out
        assert "sample_count:    40" in out

    @pytest.mark.parametrize("coder", ["static", "adaptive-huffman", "arithmetic"])
    def test_all_coders_cli(self, tmp_path, coder):
        src = tmp_path / "in.txt"
        write_series(src, n=120)
        packed = tmp_path / "out.nlts"
        back = tmp_path / "back.txt"
        assert main(["compress", str(src), str(packed), "--coder", coder]) == 0
        assert main(["decompress", str(packed), str(back)]) == 0
        assert main(["verify", str(src), str(back), "--epsilon", "0.001"]) == 0


class TestBenchCommand:
    def test_bench_synthetic(self, tmp_path, capsys):
        data = tmp_path / "series.csv"
        write_series(data, n=300)
        dspec = tmp_path / "dataset.json"
        dspec.write_text(json.dumps({
            "name": "synth",
            "source_path": "series.csv",
            "column": 0,
            "delimiter": "whitespace",
        }))
        sspec = tmp_path / "sweep.json"
        sspec.write_text(json.dumps({
            "versions": [2], "coders": ["arithmetic"], "block_lens": [16],
            "taus": [5, 9], "digits": [3], "repeats": 1,
        }))
        report = tmp_path / "report.csv"
        rc = main(["bench", str(dspec), str(sspec), "--out", str(report),
                   "--data-dir", str(tmp_path)])
        assert rc == 0
        assert report.exists()
        lines = report.read_text().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert "2 runs" in capsys.readouterr().out

    def test_failed_row_named_by_its_label(self, tmp_path, capsys):
        data = tmp_path / "series.txt"
        data.write_text("1.1234567\n2.5\n")  # 7 fractional digits: lossless fails
        dspec = tmp_path / "dataset.json"
        dspec.write_text(json.dumps({"name": "seven", "source_path": "series.txt"}))
        sspec = tmp_path / "sweep.json"
        sspec.write_text(json.dumps({"digits": ["lossless", 3], "repeats": 1}))
        rc = main(["bench", str(dspec), str(sspec), "--out", str(tmp_path / "r.csv"),
                   "--data-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "  v2-arithmetic-L16-t9-lossless: TooManyDigits: sample at index 0 carries "
            "7 fractional digits; lossless mode supports at most 6"
        ]

    def test_bench_unknown_dataset(self, tmp_path):
        sspec = tmp_path / "sweep.json"
        sspec.write_text("{}")
        rc = main(["bench", "nosuch", str(sspec), "--out",
                   str(tmp_path / "r.csv")])
        assert rc == 3


GOOD_SWEEP = {"versions": [2], "coders": ["arithmetic"], "block_lens": [16],
              "taus": [9], "digits": [3], "repeats": 1}
GOOD_DATASET = {"name": "synth", "source_path": "series.csv", "column": 0,
                "delimiter": "whitespace"}
DATASET_WITHOUT_NAME = {k: v for k, v in GOOD_DATASET.items() if k != "name"}


@pytest.mark.parametrize("sweep, dataset", [
    ({**GOOD_SWEEP, "block_len": [32]}, GOOD_DATASET),  # typo
    (GOOD_SWEEP, {**GOOD_DATASET, "colum": 0}),  # typo
    ({**GOOD_SWEEP, "block_lens": [20]}, GOOD_DATASET),
    ({**GOOD_SWEEP, "block_lens": [65536]}, GOOD_DATASET),
    ({**GOOD_SWEEP, "block_lens": [16.0]}, GOOD_DATASET),
    ({**GOOD_SWEEP, "block_lens": [8], "taus": [5]}, GOOD_DATASET),
    ({**GOOD_SWEEP, "taus": [0]}, GOOD_DATASET),
    ({**GOOD_SWEEP, "digits": [2.5]}, GOOD_DATASET),
    ({**GOOD_SWEEP, "repeats": "3"}, GOOD_DATASET),
    ({**GOOD_SWEEP, "repeats": 0}, GOOD_DATASET),
    ([GOOD_SWEEP], GOOD_DATASET),
    (GOOD_SWEEP, DATASET_WITHOUT_NAME),
    (GOOD_SWEEP, {**GOOD_DATASET, "has_header": False}),  # gone: a named column implies it
], ids=["block_len", "colum", "L20", "L65536", "L16.0", "L8-tau5", "tau0",
        "digits2.5", "repeats-str", "repeats0", "sweep-list", "no-name", "has_header"])
def test_bad_spec_fails_at_load(tmp_path, capsys, sweep, dataset):
    write_series(tmp_path / "series.csv", n=50)
    sspec = tmp_path / "sweep.json"
    sspec.write_text(json.dumps(sweep))
    dspec = tmp_path / "dataset.json"
    dspec.write_text(json.dumps(dataset))
    with pytest.raises(ValueError):  # one spec is bad, the other loads
        SweepSpec.from_json(sspec)
        DatasetSpec.from_json(dspec)
    report = tmp_path / "r.csv"
    rc = main(["bench", str(dspec), str(sspec), "--out", str(report),
               "--data-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not report.exists()


def test_compress_defaults_are_the_config_classes():
    args = _build_parser().parse_args(["compress", "in", "out"])
    assert (args.version, args.coder, args.block, args.tau, args.digits) == (
        2, "arithmetic", 16, 9, 3)
    assert (args.column, args.delimiter, args.missing) == (0, "whitespace", "skip")
    assert _build_parser().parse_args(["compress", "in", "out", "--column", "x"]).column == "x"


class TestParserReuse:
    """The parser is built once per process; no call sees another's options."""

    def test_back_to_back_calls(self, tmp_path):
        src = tmp_path / "in.txt"
        write_series(src, n=100)
        runs = [
            (["--lossless", "--coder", "static"], 4, 0),
            (["--digits", "1"], 1, 2),
            ([], 3, 2),
            (["--lossless"], 4, 2),
        ]
        for i, (options, scale, coder) in enumerate(runs):
            out = tmp_path / f"{i}.nlts"
            assert main(["compress", str(src), str(out), *options]) == 0
            header = StreamHeader.parse(out.read_bytes())
            assert (header.scale_exp, header.entropy_id) == (scale, coder), options
        assert _build_parser() is _build_parser()

    def test_help_and_usage_errors_repeat(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as e:
                main(["compress", "--help"])
            assert e.value.code == 0
            texts.append(capsys.readouterr().out)
            with pytest.raises(SystemExit) as e:
                main(["compress", "a", "b", "--digits", "1", "--lossless"])
            assert e.value.code == 2
            texts.append(capsys.readouterr().err)
        assert texts[:2] == texts[2:]
        assert "--lossless" in texts[0] and "not allowed with" in texts[1]
