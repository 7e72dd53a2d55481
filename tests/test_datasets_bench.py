import concurrent.futures
import csv
import itertools
import json
import pickle
import random
import timeit
import tracemalloc
from decimal import Context, Decimal, localcontext
from importlib import resources
from pathlib import Path

import pytest

from nlts import bench, datasets, quantizer
from nlts.bench import (
    SweepSpec,
    codec_config,
    config_label,
    run_config,
    run_sweep,
    verify_files,
    verify_values,
)
from nlts.container import compress_stream
from nlts.datasets import DatasetSpec, _read_column, ingest, packaged_spec
from nlts.errors import (
    CodecError,
    LengthMismatch,
    MissingColumn,
    MissingValue,
    UnparseableRow,
)
from nlts.quantizer import repeated


class TestIngest:
    def test_three_row_file(self, tmp_text_file):
        p = tmp_text_file("1.0\n2.0\n3.0\n")
        spec = DatasetSpec(name="t", source_path=str(p), column=0,
                           delimiter="whitespace")
        assert ingest(spec) == ["1.0", "2.0", "3.0"]

    def test_named_column_with_header(self, tmp_text_file):
        p = tmp_text_file("a;b;c\n1;2.5;x\n4;5.25;y\n", name="d.csv")
        spec = DatasetSpec(name="t", source_path=str(p), column="b", delimiter=";")
        assert ingest(spec) == ["2.5", "5.25"]

    def test_column_index_beyond_width(self, tmp_text_file):
        p = tmp_text_file("1,2\n3,4\n")
        spec = DatasetSpec(name="t", source_path=str(p), column=5)
        with pytest.raises(MissingColumn):
            ingest(spec)

    def test_field_csv_refuses_names_its_row(self, tmp_text_file):
        # a quoted field past csv.reader's 131,072-character limit, in a row,
        # after a row whose quoted field spans two lines, and in the header;
        # then a quote-free one in a row and in the header
        big, bare = '"' + "9" * 140_000 + '"', "9" * 140_000
        for text, column, row in (
            (f"ts,value\n1,1.5\n2,{big}\n3,2.5\n", "value", 3),
            (f"1,1.5\n2,{big}\n", 1, 2),
            (f'ts,value\n1,"1.5\n"\n2,{big}\n', "value", 3),
            (f"{big},value\n1,1.5\n", "value", 1),
            (f"ts,value\n1,1.5\n2,{bare}\n3,2.5\n", "value", 3),
            (f"{bare},value\n1,1.5\n", "value", 1),
        ):
            p = tmp_text_file(text, name="d.csv")
            spec = DatasetSpec(name="t", source_path=str(p), column=column)
            with pytest.raises(CodecError, match=f"^row {row}: field larger than field limit"):
                ingest(spec)

    def test_negative_column_fixed_by_first_row(self, tmp_text_file):
        # -1 is the last field of the first non-empty row, on every row
        p = tmp_text_file("\n1 10\n2 20 30\n")
        spec = DatasetSpec(name="t", source_path=str(p), column=-1, delimiter="whitespace")
        assert ingest(spec) == ["10", "20"]
        p.write_text("\n1 10\n2\n")
        with pytest.raises(MissingColumn, match="^row 3 has 1 fields, column 1 requested$"):
            ingest(spec)

    def test_named_column_missing(self, tmp_text_file):
        p = tmp_text_file("a,b\n1,2\n")
        spec = DatasetSpec(name="t", source_path=str(p), column="zzz")
        with pytest.raises(MissingColumn):
            ingest(spec)

    def test_missing_markers_skip_policy(self, tmp_text_file):
        # count of dropped rows must match an independent scan
        rng = random.Random(900)
        rows = []
        expected = []
        for i in range(500):
            if rng.random() < 0.1:
                rows.append("?")
            else:
                v = f"{rng.uniform(0, 5):.3f}"
                rows.append(v)
                expected.append(v)
        p = tmp_text_file("\n".join(rows) + "\n")
        n_missing = sum(1 for r in rows if r == "?")
        spec = DatasetSpec(name="t", source_path=str(p), column=0,
                           delimiter="whitespace", missing_policy="skip")
        got = ingest(spec)
        assert got == expected
        assert len(got) == len(rows) - n_missing

    def test_forward_fill(self, tmp_text_file):
        p = tmp_text_file("?\n1.5\n?\n?\n2.5\n")
        spec = DatasetSpec(name="t", source_path=str(p), column=0,
                           delimiter="whitespace", missing_policy="forward-fill")
        # leading missing rows have nothing to fill from and are dropped
        assert ingest(spec) == ["1.5", "1.5", "1.5", "2.5"]

    def test_fail_policy(self, tmp_text_file):
        p = tmp_text_file("1.5\nNaN\n")
        spec = DatasetSpec(name="t", source_path=str(p), column=0,
                           delimiter="whitespace", missing_policy="fail")
        with pytest.raises(MissingValue) as exc:
            ingest(spec)
        assert exc.value.row == 2

    def test_unparseable_row(self, tmp_text_file):
        p = tmp_text_file("1.5\nbogus\n2.5\n")
        spec = DatasetSpec(name="t", source_path=str(p), column=0,
                           delimiter="whitespace")
        with pytest.raises(UnparseableRow) as exc:
            ingest(spec)
        assert exc.value.row == 2 and exc.value.token == "bogus"

    def test_empty_lines_skipped(self, tmp_text_file):
        p = tmp_text_file("1.0\n\n2.0\n")
        spec = DatasetSpec(name="t", source_path=str(p), column=0,
                           delimiter="whitespace")
        assert ingest(spec) == ["1.0", "2.0"]

    def test_packaged_specs_load(self):
        for name in ("bvp", "eda", "acm", "gys", "gas", "gactive"):
            spec = packaged_spec(name)
            assert spec.name.lower() == name
        shipped = resources.files("nlts") / "dataset_specs"
        assert sorted(p.name for p in shipped.iterdir() if p.is_file()) == [
            "acm.json", "bvp.json", "eda.json", "gactive.json", "gas.json", "gys.json",
        ]

    def test_resolve_data_dir(self, tmp_path):
        spec = packaged_spec("bvp").resolve(tmp_path)
        assert str(tmp_path) in spec.source_path


def ingest_outcome(read, spec):
    """The tokens read returns for spec, or the type, message and row of its error."""
    try:
        return read(spec)
    except CodecError as e:
        return type(e), str(e), getattr(e, "row", None)


def checked_loop(spec):
    with open(spec.source_path, encoding="utf-8-sig", newline="") as f:
        return _read_column(spec, f)


# (file text, delimiter, column); each runs under every missing policy
INGEST_FILES = [
    ("1.5\n-2.25\n+.5\n3.\n", "whitespace", 0),
    ("1.5\r\n2.5\r\n", "whitespace", 0),
    ("1.5\r2.5\r", "whitespace", 0),
    ("1.5\n\n2.5\n\n", "whitespace", 0),
    ("1.5 \n2.5\t\n", "whitespace", 0),
    ("1.5 7\n2.5 8\n", "whitespace", 0),
    ("1.5 7\n2.5 8\n", "whitespace", 1),
    ("1.5\n2.5", "whitespace", 0),
    ("\ufeff1.5\n2.5\n", "whitespace", 0),
    ("1.5\x1c9\n2.5\n", "whitespace", 0),
    ("1.5\u20289\n2.5\n", "whitespace", 0),
    ("1\n?\n2\nnan\nNaN\n3\n", "whitespace", 0),
    ("?\n1.5\nnull\n", "whitespace", 0),
    ("1e3\n2\n", "whitespace", 0),
    ("1\n2\nx\n4\n?\n", "whitespace", 0),
    ("1\n2\n?\n4\nx\n", "whitespace", 0),
    ("", "whitespace", 0),
    ("\n", "whitespace", 0),
    ("ts,value\n1,2.5\n2,\n3,?\n4,-1.25\n", ",", "value"),
    ("ts,value\n1,2.5\n2,1e-3\n3,?\n", ",", "value"),
    ("ts,value\n1,2.5\n2\n", ",", "value"),
    ("a;b\n1;2\n", ";", "zzz"),
    # a named column first, in the middle and last
    ("a,b,c\n1,2.5,-3\n4,5.25,6.\n", ",", "a"),
    ("a,b,c\n1,2.5,-3\n4,5.25,6.\n", ",", "b"),
    ("a,b,c\n1,2.5,-3\n4,5.25,6.\n", ",", "c"),
    # duplicate names (the first wins), a header alone, a blank first line
    ("v,v,w\n1,2,3\n4,5,6\n", ",", "v"),
    ("ts,value\n", ",", "value"),
    ("ts,value", ",", "value"),
    ("\nts,value\n1,2.5\n", ",", "value"),
    ("\n1,2.5\n3,4.5\n", ",", 1),
    ("\nR1 R2\n1 2\n", "whitespace", "R2"),
    # negative indices
    ("1,2.5\n3,4.5\n", ",", -1),
    ("1 2.5\n3 4.5\n", "whitespace", -2),
    # short and long ragged rows, and an index past every row
    ("1,2.5\n3\n5,6.5\n", ",", 1),
    ("1,2.5\n3,4.5,7\n5,6.5\n", ",", 1),
    ("1,2.5\n3,4.5,7\n", ",", 0),
    ("a b\n1 2.5\n3 4.5 7\n", "whitespace", "b"),
    ("1,2\n3,4\n", ",", 2),
    # a quoted field
    ('ts,value\n1,"2.5"\n2,3.5\n', ",", "value"),
    ('a,b\n"1,5",2\n3,4\n', ",", 1),
    ('1,"2,3",4\n5,"6,7",8\n', ",", 3),
    # ";", tab and non-ASCII delimiters
    ("a;b\n1;2.5\n2;?\n3;-1\n", ";", "b"),
    ("a\tb\n1\t2.5\n2\t\n3\t-1\n", "\t", "b"),
    ("1\u00b52.5\n2\u00b5?\n", "\u00b5", 1),
    ("a b\n1 2.5\n2 ?\n", " ", "b"),
    # CRLF and lone "\r" line ends
    ("ts,value\r\n1,2.5\r\n2,?\r\n3,-1\r\n", ",", "value"),
    ("ts,value\r1,2.5\r2,3\r", ",", "value"),
    ("ts,value\r\n1,2.5\r3,4.5\n", ",", "value"),
    # gaps, leading ones included, under every policy
    ("ts,value\n1,?\n2,nan\n3,\n4,1.5\n5,?\n6,2.5\n7,NULL\n", ",", "value"),
    ("ts,value\n1,?\n2,na\n", ",", "value"),
    ("?\n\n1.5\n \n2.5\n", ",", 0),
    # spaces inside fields
    ("ts,value\n1, 2.5\n2,3.5 \n3, \n4,\t4.5\n", ",", "value"),
    ("1 2\n", ",", 0),
    ("1.5\n 2.5 \n", ",", 0),
    # a multi-column whitespace file with a header (the GAS shape)
    ("id time R1 R2\n0   -0.99  12.86\t13.1\n1 -0.98 12.9 13.2 \n\n 2 -0.97 ? 13.3\n",
     "whitespace", "R1"),
    ("id time R1 R2\n0 -0.99 12.86 13.1\n1 -0.98 12.9\n", "whitespace", "R2"),
    ("0 -0.99 12.86\n1 -0.98 12.9\u00a07\n", "whitespace", 2),
    # 16 and 17 distinct non-PLAIN tokens, the most the one-pass reader mends
    ("".join(f" {i}.5\n" for i in range(15)) + "?\n", ",", 0),
    ("".join(f" {i}.5\n" for i in range(15)) + "?\n \n", ",", 0),
    # a byte-order mark under a name and under an index
    ("\ufeffts,value\n1,1.5\n2,?\n", ",", "ts"),
    ("\ufeff1.5\n2.5\n", ",", 0),
    ("\ufeffR1 R2\n1 2.5\n", "whitespace", "R2"),
    # a quote-free field past csv.reader's 131,072-character limit
    pytest.param("ts,value\n1,1.5\n2,0." + "0" * 140_001 + "\n3,2.5\n", ",", "value",
                 id="quote-free oversized field, named column"),
    pytest.param("1.5\n0." + "0" * 140_001 + "\n2.5\n", ",", 0,
                 id="quote-free oversized field, column 0"),
]


class TestIngestMatchesCheckedLoop:
    """ingest returns the tokens, or raises the error, of the checked per-row loop."""

    @pytest.mark.parametrize("policy", ["skip", "forward-fill", "fail"])
    @pytest.mark.parametrize("text,delimiter,column", INGEST_FILES)
    def test_file(self, tmp_path, text, delimiter, column, policy):
        p = tmp_path / "in.txt"
        p.write_bytes(text.encode("utf-8"))
        spec = DatasetSpec(name="t", source_path=str(p), column=column,
                           delimiter=delimiter, missing_policy=policy)
        got, want = ingest_outcome(ingest, spec), ingest_outcome(checked_loop, spec)
        assert got == want
        if isinstance(want, list):
            assert type(got) is list

    def test_unparseable_row_before_missing_row(self, tmp_path):
        p = tmp_path / "in.txt"
        p.write_text("1\n2\nx\n4\n?\n", encoding="utf-8")
        spec = DatasetSpec(name="t", source_path=str(p), column=0,
                           delimiter="whitespace", missing_policy="fail")
        with pytest.raises(UnparseableRow) as exc:
            ingest(spec)
        assert exc.value.row == 3

    @pytest.mark.parametrize("policy", ["skip", "forward-fill"])
    def test_unparseable_row_before_short_row(self, tmp_path, policy):
        # the row reader checks the kept tokens together, before a later
        # row's error leaves: row 5's token wins over row 9's missing field,
        # counted past the header, a blank row and a marker
        p = tmp_path / "in.csv"
        p.write_text("ts,value\n1,1.5\n\n3,?\n4,x\n5,1.5\n6,2.5\n7,x\n8\n9,y\n")
        spec = DatasetSpec(name="t", source_path=str(p), column="value",
                           delimiter=",", missing_policy=policy)
        for read in (ingest, checked_loop):
            with pytest.raises(UnparseableRow) as exc:
                read(spec)
            assert (exc.value.row, exc.value.token) == (5, "x")
        p.write_text("ts,value\n1,1.5\n\n3,?\n4,1.5\n5,1e3\n6,2.5\n7,2.5\n8\n9,y\n")
        with pytest.raises(MissingColumn, match="^row 9 has 1 fields, column 1 requested$"):
            ingest(spec)

    def test_line_break_in_quoted_token(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text('ts,value\n1,1.5\n2,"2\n5"\n3,2.5\n')
        spec = DatasetSpec(name="t", source_path=str(p), column="value", delimiter=",")
        with pytest.raises(UnparseableRow) as exc:
            ingest(spec)
        assert (exc.value.row, exc.value.token) == (3, "2\n5")

    def test_bad_utf8_after_unparseable_row(self, tmp_path):
        p = tmp_path / "in.txt"
        p.write_bytes(b"1\nx\n" + b"2\n" * 10_000 + b"\xff\n")
        spec = DatasetSpec(name="t", source_path=str(p), column=0, delimiter="whitespace")
        with pytest.raises(UnparseableRow) as exc:
            ingest(spec)
        assert exc.value.row == 2


#: "", "?" and every case spelling of na, nan and null: the 30 marker tokens.
MARKER_SPELLINGS = ["", "?"] + ["".join(cased) for word in ("na", "nan", "null")
                                for cased in itertools.product(*zip(word, word.upper()))]

# (file text, delimiter, column, {policy: tokens, or (error type, message)}),
# each outcome written by hand rather than taken from either reader
POLICY_FILES = [
    # leading, consecutive and trailing markers, with a blank row inside a run
    ("?\n?\n1.5\n?\n\n?\n2.5\n?\n", "whitespace", 0, {
        "skip": ["1.5", "2.5"],
        "forward-fill": ["1.5", "1.5", "1.5", "2.5", "2.5"],
        "fail": (MissingValue, "row 1: missing value"),
    }),
    ("ts,value\n1,?\n2,1.5\n3,\n4,NA\n5,2.5\n6,?\n", ",", "value", {
        "skip": ["1.5", "2.5"],
        "forward-fill": ["1.5", "1.5", "1.5", "2.5", "2.5"],
        "fail": (MissingValue, "row 2: missing value"),
    }),
    # every marker spelling after a reading
    ("ts,value\n" + "".join(f"{2 * j},{j}.5\n{2 * j + 1},{s}\n"
                            for j, s in enumerate(MARKER_SPELLINGS)), ",", "value", {
        "skip": [f"{j}.5" for j in range(30)],
        "forward-fill": [f"{j}.5" for j in range(30) for _ in (0, 1)],
        "fail": (MissingValue, "row 3: missing value"),
    }),
    # an empty field, a blank row, and a whitespace-only line in a one-column CSV
    ("ts,value\n1,1.5\n2,\n\n3,2.5\n", ",", "value", {
        "skip": ["1.5", "2.5"],
        "forward-fill": ["1.5", "1.5", "2.5"],
        "fail": (MissingValue, "row 3: missing value"),
    }),
    ("1.5\n\n \n2.5\n", ",", 0, {
        "skip": ["1.5", "2.5"],
        "forward-fill": ["1.5", "1.5", "2.5"],
        "fail": (MissingValue, "row 3: missing value"),
    }),
    # a marker under fail before an unparseable token, and after one
    ("1.5\n?\nx\n", "whitespace", 0, {
        "skip": (UnparseableRow, "row 3: cannot parse value 'x'"),
        "forward-fill": (UnparseableRow, "row 3: cannot parse value 'x'"),
        "fail": (MissingValue, "row 2: missing value"),
    }),
    ("1.5\nx\n?\n", "whitespace", 0, {
        policy: (UnparseableRow, "row 2: cannot parse value 'x'")
        for policy in ("skip", "forward-fill", "fail")
    }),
    # a marker under fail before a later short row
    ("ts,value\n1,1.5\n2,?\n3\n", ",", "value", {
        "skip": (MissingColumn, "row 4 has 1 fields, column 1 requested"),
        "forward-fill": (MissingColumn, "row 4 has 1 fields, column 1 requested"),
        "fail": (MissingValue, "row 3: missing value"),
    }),
]


class TestMissingPolicy:
    """Both readers skip, fill or refuse missing markers as written by hand."""

    @pytest.mark.parametrize("policy", ["skip", "forward-fill", "fail"])
    @pytest.mark.parametrize("text,delimiter,column,want", POLICY_FILES)
    def test_file(self, tmp_path, text, delimiter, column, want, policy):
        p = tmp_path / "in.txt"
        p.write_bytes(text.encode("utf-8"))
        spec = DatasetSpec(name="t", source_path=str(p), column=column,
                           delimiter=delimiter, missing_policy=policy)
        for read in (ingest, checked_loop):
            got = ingest_outcome(read, spec)
            assert (got if isinstance(got, list) else got[:2]) == want[policy], read


class TestRowReaderEnd:
    """The row reader stops after the chunk of rows that holds a token _mend
    cannot mend, and names that token's row."""

    @pytest.mark.parametrize("at", [3, datasets.READ_CHUNK + 1, datasets.READ_CHUNK + 2, 50_000])
    @pytest.mark.parametrize("policy,token,error", [
        ("fail", "?", MissingValue),
        ("skip", "x", UnparseableRow),
        ("forward-fill", "x", UnparseableRow),
    ])
    def test_early_fault_ends_the_read(self, at, policy, token, error):
        # 100,000 quoted rows under a header; row `at` holds the fault
        rows = ["ts,value\n"] + [f'{i},"{i}.5"\n' for i in range(1, 100_000)]
        rows[at - 1] = f'{at},"{token}"\n'
        read = []

        def lines():
            for row in rows:
                read.append(row)
                yield row

        spec = DatasetSpec(name="t", source_path="in.csv", column="value",
                           missing_policy=policy)
        with pytest.raises(error) as exc:
            _read_column(spec, lines())
        assert exc.value.row == at and len(read) < 2 * at + datasets.READ_CHUNK


class TestRowReaderChunks:
    """Past its first chunk, the row reader names a fault's row from the
    chunk's first row and blank rows, judges the chunk's tokens before a row
    fault in it, and fills a gap from the chunk before."""

    FAULTS = {"fail": ("?", MissingValue), "skip": ("x", UnparseableRow),
              "forward-fill": ("x", UnparseableRow)}

    @staticmethod
    def read(tmp_path, last, policy, rows):
        # quoted rows 2 to last under a header, with rows[r] in place of row r;
        # the quotes send the file to the row reader
        p = tmp_path / "in.csv"
        p.write_text("ts,value\n" + "".join(rows.get(r, f'{r},"{r}.5"\n')
                                            for r in range(2, last + 1)))
        spec = DatasetSpec(name="t", source_path=str(p), column="value",
                           delimiter=",", missing_policy=policy)
        return ingest_outcome(ingest, spec)

    @pytest.mark.parametrize("policy", list(FAULTS))
    def test_fault_row_past_the_header_and_blank_rows(self, tmp_path, policy):
        token, error = self.FAULTS[policy]
        at = datasets.READ_CHUNK + 1000  # in the second chunk
        blank = dict.fromkeys([10, 11, at - 500, at - 1, at + 1, at + 2000], "\n")
        got = self.read(tmp_path, at + 3000, policy, {**blank, at: f'{at},"{token}"\n'})
        assert (got[0], got[2]) == (error, at)

    @pytest.mark.parametrize("policy", list(FAULTS))
    def test_fault_before_a_short_row_in_its_chunk(self, tmp_path, policy):
        token, error = self.FAULTS[policy]
        at = datasets.READ_CHUNK + 1000
        got = self.read(tmp_path, at + 3000, policy,
                        {at: f'{at},"{token}"\n', at + 500: f"{at + 500}\n"})
        assert (got[0], got[2]) == (error, at)

    @pytest.mark.parametrize("policy", list(FAULTS))
    def test_gap_first_in_the_second_chunk(self, tmp_path, policy):
        # the header and the first chunk come before row at
        at, last = datasets.READ_CHUNK + 2, datasets.READ_CHUNK + 100
        got = self.read(tmp_path, last, policy, {at: f'{at},"?"\n'})
        before = [f"{r}.5" for r in range(2, at)]
        after = [f"{r}.5" for r in range(at + 1, last + 1)]
        assert got == {
            "skip": before + after,
            "forward-fill": before + [f"{at - 1}.5"] + after,
            "fail": (MissingValue, f"row {at}: missing value", at),
        }[policy]


# headerless single-column whitespace files: ingest splits those that end in
# "\n" and hold no "\r" at their newlines, and reads the rest row by row
SPLIT_FILES = {
    "lf": "1.5\n-2.25\n1.5\n1.5\n",
    "crlf": "1.5\r\n-2.25\r\n1.5\r\n1.5\r\n",
    "no final newline": "1.5\n-2.25\n1.5",
    "leading space": "1.5\n -2.25\n1.5\n",
    "trailing space": "1.5\n-2.25 \n1.5\n",
    "tab": "1.5\n\t-2.25\n1.5\n",
    "blank line": "1.5\n\n-2.25\n1.5\n",
    "final blank line": "1.5\n-2.25\n1.5\n\n",
    "form feed": "1.5\n-2.25\x0c7\n1.5\n",
    "next line": "1.5\n-2.25\x857\n1.5\n",
    "line separator": "1.5\n-2.25\u20287\n1.5\n",
    "no-break space": "1.5\n-2.25\xa0\n1.5\n",
    "lone cr": "1.5\r-2.25\n1.5\n",
    "nan": "1.5\nnan\n-2.25\n1.5\n",
    "question mark": "1.5\n?\n-2.25\n1.5\n",
    "not a number": "1.5\nx\n-2.25\n",
    "exponent": "1.5\n1e3\n",
    "empty": "",
    "only newline": "\n",
}


class TestSingleSplit:
    """A file split whole reads as the checked per-row loop reads it, to a
    plain list that compresses as a fresh list of its tokens does."""

    @pytest.mark.parametrize("policy", ["skip", "forward-fill", "fail"])
    @pytest.mark.parametrize("name", list(SPLIT_FILES))
    def test_file(self, tmp_path, name, policy):
        p = tmp_path / "in.txt"
        p.write_bytes(SPLIT_FILES[name].encode("utf-8"))
        spec = DatasetSpec(name="t", source_path=str(p), delimiter="whitespace",
                           missing_policy=policy)
        got = ingest_outcome(ingest, spec)
        want = ingest_outcome(checked_loop, spec)
        assert got == want
        if not isinstance(want, list):
            return
        assert type(got) is list
        for digits in (3, "lossless"):
            assert compress_outcome(got, digits) == compress_outcome(list(got), digits)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_repeated_counts_the_column_once(self, tmp_path, monkeypatch, newline):
        # a single-column whitespace file and a CSV read by header name: ingest
        # counts the column once to find its odd tokens, compress once to quantize
        tokens = [f"{i // 40 % 5}.{i % 3}5" for i in range(3000)]
        files = {
            "whitespace": "".join(t + newline for t in tokens),
            ",": f"ts,value{newline}" + "".join(f"{i},{t}{newline}" for i, t in enumerate(tokens)),
        }
        real = quantizer.repeated
        for delimiter, text in files.items():
            p = tmp_path / "in.txt"
            p.write_bytes(text.encode("utf-8"))
            counted = []

            def counting(items, count):
                counted.append(count)
                return real(items, count)

            monkeypatch.setattr(quantizer, "repeated", counting)
            column = 0 if delimiter == "whitespace" else "value"
            col = ingest(DatasetSpec(name="t", source_path=str(p), column=column,
                                     delimiter=delimiter))
            assert col == tokens and counted == [len(tokens)]
            counted.clear()
            compress_stream(col)
            assert counted == [len(tokens)]


class TestOnePassShapes:
    """The shapes the gateway windows and the single-column benchmark specs
    take are read without the row reader, to the row reader's tokens."""

    SHAPES = {
        # (file text, delimiter, column, policy)
        "gateway window": ("ts,value\n" + "".join(
            f"{1_600_000_000 + 60 * i},{'?' if i % 97 in (5, 6) else f'{i % 13}.{i % 7}5'}\n"
            for i in range(1024)), ",", "value", "forward-fill"),
        "gateway window, CRLF": ("ts,value\r\n" + "".join(
            f"{60 * i},{f'-{i % 5}.125' if i % 50 else '?'}\r\n" for i in range(1, 1025)),
            ",", "value", "forward-fill"),
        "BVP": ("".join(f"{i % 17 - 8}.{i % 10}\n" for i in range(2000)), ",", 0, "skip"),
        "BVP, a gap, a space and a blank line": (
            "1.5\n?\n2.5 \n\n" + "".join(f"{i % 9}.25\n" for i in range(2000)), ",", 0, "skip"),
        "Gactive": ("Date;Time;Global_active_power;Voltage\n" + "".join(
            f"16/12/2006;17:{i % 60:02d}:00;{f'{i % 11}.{i % 7}16' if i % 10 - 3 else '?'};234.8\n"
            for i in range(1000)), ";", "Global_active_power", "skip"),
        "two columns by index, blank lines": ("\n\n" + "".join(
            f"{i},{i % 4}.5\n" + "\n" * (i % 3 == 0) for i in range(500)), ",", 1, "skip"),
        "16 distinct odd tokens": (
            "".join(f"{' ' * (1 + i % 16)}{i % 16}.5\n" for i in range(2000)), ",", 0, "fail"),
        # an exponent reading stays in place, as the row reader keeps it
        "gateway window, an exponent reading": ("ts,value\n" + "".join(
            f"{60 * i},{'1e-3' if i == 500 else '?' if i % 97 in (5, 6) else f'{i % 13}.25'}\n"
            for i in range(1024)), ",", "value", "forward-fill"),
        # the bound counts distinct tokens, not the rows that hold them
        "no repeats, one marker on 40 rows": ("ts,value\n" + "".join(
            f"{60 * i},{'?' if i % 25 == 3 else f'{i}.{i % 7}5'}\n" for i in range(1000)),
            ",", "value", "forward-fill"),
    }

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_shape(self, tmp_path, monkeypatch, shape):
        text, delimiter, column, policy = self.SHAPES[shape]
        p = tmp_path / "in.txt"
        p.write_bytes(text.encode("utf-8"))
        spec = DatasetSpec(name="t", source_path=str(p), column=column,
                           delimiter=delimiter, missing_policy=policy)
        want = checked_loop(spec)

        def row_reader(*args):
            raise AssertionError(f"{shape} was read row by row")

        monkeypatch.setattr(datasets, "_read_column", row_reader)
        got = ingest(spec)
        assert type(got) is list and got == want


class TestRowReaderShapes:
    """Files whose column the one-pass reader does not take are read row by
    row, in time linear in the rows."""

    SHAPES = {
        # (file text, delimiter, column)
        "GAS": ("id time R1 R2\n" + "".join(
            f"{i}  -0.{i:05d}\t{12 + i % 3}.{i % 1000:03d} 13.1\n" for i in range(1000)),
            "whitespace", "R1"),
        "17 distinct odd tokens": ("".join(f" {i % 17}.5\n" for i in range(1000)), ",", 0),
        "a space after every delimiter": (
            "ts,value\n" + "".join(f"{i}, {i}.25\n" for i in range(1000)), ",", "value"),
        "two whitespace columns at column 0": (
            "".join(f"{i}.5 -0.{i:05d}\n" for i in range(1000)), "whitespace", 0),
    }

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_shape(self, tmp_path, monkeypatch, shape):
        text, delimiter, column = self.SHAPES[shape]
        p = tmp_path / "in.txt"
        p.write_text(text)
        spec = DatasetSpec(name="t", source_path=str(p), column=column,
                           delimiter=delimiter, missing_policy="skip")
        want = checked_loop(spec)
        rows = []

        def row_reader(*args):
            rows.append(True)
            return _read_column(*args)

        monkeypatch.setattr(datasets, "_read_column", row_reader)
        assert ingest(spec) == want and rows

    @pytest.mark.parametrize("row", ["{i}, {i}.25", "{i}.5 -0.{i:05d}"])
    def test_every_row_odd_is_linear(self, tmp_path, row):
        # one distinct odd token a row; a search per token would take minutes
        p = tmp_path / "in.txt"
        p.write_text("".join(row.format(i=i) + "\n" for i in range(50_000)))
        spec = DatasetSpec(name="t", source_path=str(p), column=1 if "," in row else 0,
                           delimiter="," if "," in row else "whitespace")

        def row_reader():
            with open(p, newline="") as f:
                return _read_column(spec, f)

        def best(read):
            return min(timeit.repeat(read, number=1, repeat=3))

        assert best(lambda: ingest(spec)) < 5 * best(row_reader) + 0.05

    def test_every_marker_spelling_is_linear(self, tmp_path):
        # quoted fields send both files to the row reader; _mend makes one
        # list.index pass for each of the 30 marker spellings it rewrites
        def spec(name, marker):
            p = tmp_path / name
            p.write_text("".join(f'{i},"{marker(i) if i % 2 else f"{i}.5"}"\n'
                                 for i in range(50_000)))
            return DatasetSpec(name="t", source_path=str(p), column=1,
                               missing_policy="forward-fill")

        gaps = spec("gaps.csv", lambda i: MARKER_SPELLINGS[i // 2 % 30])
        plain = spec("plain.csv", lambda i: f"{i}.5")

        def best(s):
            return min(timeit.repeat(lambda: ingest(s), number=1, repeat=3))

        assert ingest(gaps)[:4] == ["0.5", "0.5", "2.5", "2.5"]
        assert best(gaps) < 5 * best(plain) + 0.05


def replace_at(i, token):
    def change(col):
        col[i] = token
    return change


def newline_in_token(col):
    col[3] = col[3][:1] + "\n" + col[3][1:]


def newline_joins_tokens(col):
    # the joined text is unchanged; only the token count tells
    col[3:5] = ["\n".join(col[3:5])]


# edits to a column after ingest validated it
COLUMN_EDITS = {
    "none": lambda col: None,
    "abc": replace_at(3, "abc"),
    "exponent": replace_at(3, "1e5"),
    "plain": replace_at(3, "2.5"),
    "not text": replace_at(3, 2.5),
    "newline in token": newline_in_token,
    "newline joins tokens": newline_joins_tokens,
    "append plain": lambda col: col.append("7.25"),
    "append exponent": lambda col: col.append("-1E-2"),
    "append abc": lambda col: col.append("abc"),
    "clear": list.clear,
    "new token": replace_at(3, "123.456"),
    "remove only copy": lambda col: col.pop(5),  # each fixture holds col[5] once
    "widen lossless scale": replace_at(3, "0.123456"),
}


def compress_outcome(samples, digits):
    """The container compress_stream returns, or the type and message of its error."""
    try:
        return compress_stream(samples, codec_config(2, "arithmetic", 16, 9, digits))[0]
    except (CodecError, ValueError) as e:
        return type(e), str(e)


class TestValidatedColumn:
    """A column ingest validated compresses as a fresh list of its current tokens does."""

    @pytest.fixture
    def column(self, tmp_path):
        p = tmp_path / "in.txt"
        p.write_text("".join(f"{i % 7 - 3}.{i * 37 % 1000:0{1 + i % 3}d}\n" for i in range(40)))
        col = ingest(DatasetSpec(name="t", source_path=str(p), delimiter="whitespace"))
        assert type(col) is list
        assert col.count(col[5]) == 1
        return col

    @pytest.mark.parametrize("digits", [3, "lossless"])
    @pytest.mark.parametrize("edit", list(COLUMN_EDITS))
    def test_edited(self, column, edit, digits):
        COLUMN_EDITS[edit](column)
        assert compress_outcome(column, digits) == compress_outcome(list(column), digits)

    @pytest.mark.parametrize("edit", list(COLUMN_EDITS))
    def test_pickled(self, column, edit):
        # as bench --jobs sends the column to its workers
        before = pickle.loads(pickle.dumps(column))
        COLUMN_EDITS[edit](before)
        after = column
        COLUMN_EDITS[edit](after)
        after = pickle.loads(pickle.dumps(after))
        for col in (before, after):
            assert compress_outcome(col, 3) == compress_outcome(list(col), 3)


class TestValidatedRepeatingColumn(TestValidatedColumn):
    """The same edits on a column that repeats, so quantize_stream searches its distinct tokens."""

    @pytest.fixture
    def column(self, tmp_path):
        pool = [f"{v % 9 - 4}.{v * 37 % 100:0{1 + v % 3}d}" for v in range(40)]
        tokens = [pool[i * 7 % 39] for i in range(3000)]
        tokens[5] = pool[39]  # the one copy of a value
        p = tmp_path / "in.txt"
        p.write_text("".join(t + "\n" for t in tokens))
        col = ingest(DatasetSpec(name="t", source_path=str(p), delimiter="whitespace"))
        assert type(col) is list and col == tokens
        assert sorted(repeated(col, len(col))) == sorted(pool)
        assert col.count(col[5]) == 1
        return col


class TestVerify:
    def test_identical(self):
        r = verify_values(["1.5", "2.5"], ["1.5", "2.5"], 0)
        assert r.ok and r.max_abs_error == 0

    def test_within_epsilon(self):
        r = verify_values(["1.500"], ["1.499"], "0.001")
        assert r.ok and r.max_abs_error == Decimal("0.001")

    def test_failure_reports_argmax(self):
        r = verify_values([1.0, 2.0, 3.0], [1.0, 2.5, 3.1], 0.2)
        assert not r.ok
        assert r.argmax_index == 1
        assert r.max_abs_error == Decimal("0.5")

    @pytest.mark.parametrize("original, decoded, first", [
        (["1", "2", "3"], ["1.5", "2", "3.5"], 0),
        (["0", "1", "1"], ["0", "2", "2"], 1),
    ])
    def test_argmax_is_first_of_equal_errors(self, original, decoded, first):
        r = verify_values(original, decoded, "0.1")
        assert not r.ok
        assert r.argmax_index == first

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            verify_values([1.0], [1.0, 2.0], 0.1)

    def test_length_mismatch_is_value_error(self):
        # callers that handle bad values with `except ValueError` see it too
        with pytest.raises(ValueError):
            verify_values(["1.0"], ["1.0", "2.0"], "0.001")

    def test_not_a_number(self):
        with pytest.raises(ValueError, match="epsilon"):
            verify_values(["1.0"], ["1.0"], "abc")
        with pytest.raises(ValueError, match="sample 2"):
            verify_values(["1.0", "2.0"], ["1.0", "x"], "0.1")
        with pytest.raises(ValueError, match="sample 1"):
            verify_values(["nan"], ["1.0"], "0.1")

    def test_negative_epsilon(self):
        # no pair can pass a negative bound; it is a bad argument, not a failure
        for eps in ("-1", -1, "-0.0005", Decimal("-1e-30")):
            with pytest.raises(ValueError, match="epsilon"):
                verify_values(["1.0"], ["1.0"], eps)
        assert verify_values(["1.0"], ["1.0"], "-0").ok

    def test_files(self, tmp_text_file):
        a = tmp_text_file("1.0\n2.0\n", name="a.txt")
        b = tmp_text_file("1.0\n2.0\n", name="b.txt")
        assert verify_files(a, b, 0).ok

    def test_files_original_spec(self, tmp_text_file):
        # the original read with its compress options, the decoded one with the defaults
        a = tmp_text_file("ts,value\n1,1.5\n2,?\n3,2.5\n", name="a.csv")
        b = tmp_text_file("1.5\n1.5\n2.5\n", name="b.txt")
        spec = DatasetSpec("a.csv", str(a), column="value", delimiter=",",
                           missing_policy="forward-fill")
        r = verify_files(original_path=spec, decoded_path=b, epsilon=0)
        assert (r.ok, r.max_abs_error) == (True, 0)
        with pytest.raises(ValueError, match="a.csv: row 1"):
            verify_files(original_path=a, decoded_path=b, epsilon=0)


def naive_verify(original, decoded):
    """(max |a - b|, first index of it), one pair at a time."""
    errors = [abs(Decimal(a) - Decimal(b)) for a, b in zip(original, decoded)]
    worst = max(errors, default=Decimal(0))
    return worst, errors.index(worst) if worst else 0


class TestVerifyRepeating:
    """Repeating pairs are compared once each; the answer is the pairwise one."""

    def test_matches_pairwise(self):
        rng = random.Random(920)
        pool = [("1.5", "1.5"), ("1.5", "1.501"), ("2.25", "2.249"), ("-3", "-3.0005"),
                ("0.125", "0.124"), ("7", "7.001")]
        for size in (10, 400, 3000):
            for _ in range(20):
                pairs = rng.choices(pool, k=size)
                original, decoded = map(list, zip(*pairs))
                r = verify_values(original, decoded, "0.001")
                assert (r.max_abs_error, r.argmax_index) == naive_verify(original, decoded)
                assert r.ok == (r.max_abs_error <= Decimal("0.001"))

    def test_first_index_of_equal_errors(self):
        # two distinct pairs share the largest error; the index is the first of either
        original = ["1"] * 2000 + ["5", "3"] + ["1"] * 500 + ["3", "5"]
        decoded = ["1"] * 2000 + ["5.5", "2.5"] + ["1"] * 500 + ["2.5", "5.5"]
        r = verify_values(original, decoded, "0.1")
        assert (r.max_abs_error, r.argmax_index, r.ok) == (Decimal("0.5"), 2000, False)
        r = verify_values(original[::-1], decoded[::-1], "0.1")
        assert r.argmax_index == 0

    def test_not_a_number_in_a_repeating_column(self):
        original = ["1.0"] * 3000
        decoded = ["1.0"] * 2999 + ["nan"]
        with pytest.raises(ValueError, match="sample 3000"):
            verify_values(original, decoded, "0.1")


class TestVerifyExact:
    """The decision is exact and bounded, whatever the caller's context."""

    def test_difference_past_the_default_precision_fails(self):
        r = verify_values(["0.00050000000000000000000000000000000000001"], ["0"], "0.0005")
        assert not r.ok
        assert r.max_abs_error == Decimal("0.00050000000000000000000000000000000000001")

    def test_difference_keeps_every_digit(self):
        r = verify_values(["0." + "1" * 37], ["0"], "0.1")
        assert r.max_abs_error == Decimal("0." + "1" * 37) and not r.ok

    def test_ignores_the_callers_context(self):
        with localcontext(Context(prec=3)):
            r = verify_values(["0.1234564", "1"], ["0.1230000", "1"], "0.0004564")
            assert r.ok and r.max_abs_error == Decimal("0.0004564")
            assert not verify_values(["0.1234565"], ["0.123"], "0.0004564").ok

    def test_huge_difference_fails(self):
        r = verify_values(["1", "1e9999999"], ["1", "0"], "0.0005")
        assert not r.ok and r.argmax_index == 1
        assert r.max_abs_error == Decimal("1e9999999")

    def test_long_difference_rounds_away_from_zero_in_bounded_memory(self):
        tracemalloc.start()
        try:
            r = verify_values(["1e-99999999"], ["1"], 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the true difference, 1 - 1e-99999999, rounds up to 1, never down
        assert r.ok and r.max_abs_error == 1
        assert peak < 1 << 20
        assert not verify_values(["1e-99999999"], ["1"], "0.9999999999").ok


class TestSweep:
    def _dataset(self, tmp_path, n=400):
        rng = random.Random(910)
        p = tmp_path / "series.csv"
        with open(p, "w") as f:
            v = 3.0
            for _ in range(n):
                v += rng.gauss(0, 0.05)
                f.write(f"{v:.4f}\n")
        return DatasetSpec(name="synth", source_path=str(p), column=0,
                           delimiter="whitespace")

    def test_single_config_row(self, tmp_path):
        spec = self._dataset(tmp_path)
        tokens = ingest(spec)
        row = run_config(tokens, 2, "arithmetic", 16, 9, 3, repeats=1)
        assert row["eps_ok"] and not row["error"]
        assert row["cr"] > 0
        assert row["cr"] == row["input_bytes"] / row["output_bytes"]

    def test_ten_sample_file_single_config(self, tmp_path):
        p = tmp_path / "ten.csv"
        p.write_text("".join(f"{i}.{i}\n" for i in range(10)))
        spec = DatasetSpec(name="ten", source_path=str(p), column=0,
                           delimiter="whitespace")
        rows = run_sweep(spec, SweepSpec(repeats=1))
        assert len(rows) == 1
        assert rows[0]["cr"] >= 0 and rows[0]["eps_ok"]

    def test_bad_delimiter_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(name="x", source_path="x", delimiter="; ")

    def test_sweep_writes_reports(self, tmp_path):
        spec = self._dataset(tmp_path)
        sweep = SweepSpec(versions=(1, 2), coders=("arithmetic", "static"),
                          block_lens=(16,), taus=(9,), digits=(3, "lossless"),
                          repeats=1)
        out = tmp_path / "report.csv"
        rows = run_sweep(spec, sweep, out_path=out)
        assert len(rows) == 8
        assert all(r["eps_ok"] for r in rows)
        with open(out) as f:
            parsed = list(csv.DictReader(f))
        assert len(parsed) == 8
        # CR recomputable from the logged sizes
        for r in parsed:
            assert float(r["cr"]) == pytest.approx(
                int(r["input_bytes"]) / int(r["output_bytes"])
            )
        plot = (tmp_path / "report.csv.plot.csv").read_text().splitlines()
        assert plot[0] == "config,cr" and len(plot) == 9
        meta = json.loads((tmp_path / "report.csv.meta.json").read_text())
        assert meta["dataset"] == "synth" and len(meta["sha256"]) == 64

    def test_failed_rows_recorded_and_sweep_continues(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("0.1234567\n0.2\n")  # 7 digits: lossless must fail
        spec = DatasetSpec(name="t", source_path=str(p), column=0,
                           delimiter="whitespace")
        sweep = SweepSpec(digits=("lossless", 3), repeats=1)
        rows = run_sweep(spec, sweep)
        assert len(rows) == 2
        by_digits = {r["digits"]: r for r in rows}
        assert "TooManyDigits" in by_digits["lossless"]["error"]
        assert by_digits[3]["eps_ok"] and not by_digits[3]["error"]

    def test_parallel_jobs_match_serial(self, tmp_path):
        spec = self._dataset(tmp_path, n=200)
        sweep = SweepSpec(versions=(1, 2), coders=("static",), block_lens=(16, 32),
                          taus=(5,), digits=(2,), repeats=1)
        serial = run_sweep(spec, sweep)
        parallel = run_sweep(spec, sweep, jobs=2)
        strip = lambda rows: [
            {k: v for k, v in r.items() if "rate" not in k} for r in rows
        ]
        assert strip(serial) == strip(parallel)

    def test_jobs_capped_at_config_count(self, tmp_path, monkeypatch):
        # the pool forks all its workers at its first task; this stand-in
        # records how many were asked for and runs the tasks in this process
        asked = []

        class Pool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def map(self, fn, tasks):
                return map(fn, tasks)

        # run_sweep imports the pool from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(bench, "_WORKER_TOKENS", None)
        spec = self._dataset(tmp_path, n=100)
        sweep = SweepSpec(taus=(3, 5, 9), repeats=1)
        assert len(run_sweep(spec, sweep, jobs=64)) == 3
        run_sweep(spec, sweep, jobs=2)
        assert asked == [3, 2]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(taus=(17,), block_lens=(16,))
        with pytest.raises(ValueError):
            SweepSpec(coders=("zpaq",))
        with pytest.raises(ValueError):
            SweepSpec(digits=(9,))
        with pytest.raises(ValueError):
            SweepSpec(versions=())

    def test_spec_from_json(self, tmp_path):
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps({
            "versions": [2], "coders": ["arithmetic"], "block_lens": [16, 32],
            "taus": [5, 9], "digits": [3, "lossless"], "repeats": 2,
        }))
        sweep = SweepSpec.from_json(p)
        assert len(list(sweep.configs())) == 8
        assert sweep.repeats == 2

    def test_defaults_are_the_config_classes(self):
        sweep = SweepSpec()
        assert (sweep.versions, sweep.coders, sweep.block_lens, sweep.taus,
                sweep.digits, sweep.repeats) == ((2,), ("arithmetic",), (16,), (9,), (3,), 3)

    def test_unknown_coder_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown coder 'zpaq'"):
            codec_config(2, "zpaq", 16, 9, 3)

    @pytest.mark.parametrize("settings", [
        (2, "arithmetic", 16.0, 9, 3),
        (2, "arithmetic", 16, 9.0, 3),
        (True, "arithmetic", 16, 9, 3),
        (2, "arithmetic", 16, 9, 2.5),
        (2, "arithmetic", 16, 9, True),
        (2, ["arithmetic"], 16, 9, 3),
    ])
    def test_wrong_typed_setting_is_a_value_error(self, settings):
        with pytest.raises(ValueError):
            codec_config(*settings)

    def test_config_label(self):
        assert config_label(2, "arithmetic", 16, 9, 3) == "v2-arithmetic-L16-t9-d3"
        assert config_label(1, "static", 32, 5, "lossless") == "v1-static-L32-t5-lossless"


# Each shipped spec as the loader before the config classes owned the
# defaults read it: a key left out took these values.
SWEEP_AXES = {"versions": (2,), "coders": ("arithmetic",), "block_lens": (16,),
              "taus": (9,), "digits": (3,)}
SHIPPED = Path(__file__).parent.parent


@pytest.mark.parametrize("path", sorted((SHIPPED / "sweeps").glob("*.json")), ids=str)
def test_shipped_sweep_configs_unchanged(path):
    raw = json.loads(path.read_text())
    sweep = SweepSpec.from_json(path)
    expected = itertools.product(*(raw.get(k, default) for k, default in SWEEP_AXES.items()))
    assert list(sweep.configs()) == list(expected)
    assert sweep.repeats == raw.get("repeats", 3)


# The shipped datasets whose files open with a header row; the spec of
# each (and only these) names its column, which is what implies the header.
HEADERED = {"acm", "gactive", "gas", "gys"}


@pytest.mark.parametrize("name", ["acm", "bvp", "eda", "gactive", "gas", "gys"])
def test_shipped_dataset_specs_unchanged(name):
    raw = json.loads((SHIPPED / "src/nlts/dataset_specs" / f"{name}.json").read_text())
    spec = packaged_spec(name)
    assert spec == DatasetSpec(
        name=raw["name"],
        source_path=raw["source_path"],
        column=raw.get("column", 0),
        delimiter=raw.get("delimiter", ","),
        missing_policy=raw.get("missing_policy", "skip"),
    )
    assert isinstance(spec.column, str) == (name in HEADERED)


@pytest.mark.parametrize("fields", [
    {"name": None},
    {"source_path": 3},
    {"column": 1.5},
    {"column": None},
    {"delimiter": 5},
    {"missing_policy": "drop"},
])
def test_dataset_spec_rejects_bad_fields(fields):
    with pytest.raises(ValueError):
        DatasetSpec(**{"name": "t", "source_path": "t.csv", **fields})
