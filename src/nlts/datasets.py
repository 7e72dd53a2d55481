"""Dataset ingestion: pull one numeric column out of a delimited text file.

Values are returned as the text tokens found in the file, not as floats, so
the quantizer can parse digits exactly and lossless runs stay lossless.

The packaged spec files under dataset_specs/ describe the benchmark
datasets (column, delimiter, missing-value policy); the data files
themselves are fetched by the user (see README) and located via a data
directory.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import MISSING, dataclass, fields, replace
from decimal import Decimal, InvalidOperation
from importlib import resources
from pathlib import Path

from .errors import CodecError, MissingColumn, MissingValue, UnparseableRow
from .quantizer import PlainColumn, join_plain

SKIP = "skip"
FORWARD_FILL = "forward-fill"
FAIL = "fail"
MISSING_POLICIES = (SKIP, FORWARD_FILL, FAIL)

#: Tokens treated as absent values (case-insensitive).
MISSING_TOKENS = {"", "?", "na", "nan", "null"}

#: Delimiter value selecting str.split() whitespace behaviour.
WHITESPACE = "whitespace"


def load_spec(cls, path):
    """The dataclass cls built from the JSON object in path, arrays as tuples.

    A file holding anything but an object, or an object that lacks a field
    without a default or names an unknown one, raises ValueError; so does
    any value cls refuses.  Only cls holds the defaults.
    """
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    known = {field.name: field.default is MISSING for field in fields(cls)}  # name: required
    bad = [f"unknown key {key!r}" for key in raw if key not in known]
    bad += [f"missing key {key!r}" for key, needed in known.items() if needed and key not in raw]
    if bad:
        raise ValueError(f"{path}: {'; '.join(bad)} (keys: {', '.join(known)})")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


@dataclass(frozen=True)
class DatasetSpec:
    """Where a dataset's column lives; a field of the wrong type or value raises ValueError."""

    name: str
    source_path: str
    column: int | str = 0  # index, or the name in a header row
    delimiter: str = ","  # one character, or WHITESPACE
    missing_policy: str = SKIP

    def __post_init__(self):
        for key in ("name", "source_path"):
            if type(getattr(self, key)) is not str:
                raise ValueError(f"{key} must be a string, got {getattr(self, key)!r}")
        if type(self.column) not in (int, str):
            raise ValueError(f"column must be an index or a header name, got {self.column!r}")
        if self.missing_policy not in MISSING_POLICIES:
            raise ValueError(f"unknown missing policy {self.missing_policy!r}")
        d = self.delimiter
        if type(d) is not str or (d != WHITESPACE and len(d) != 1):
            raise ValueError(f"delimiter must be one character or {WHITESPACE!r}, got {d!r}")

    @classmethod
    def from_json(cls, path) -> "DatasetSpec":
        return load_spec(cls, path)

    def resolve(self, data_dir=None) -> "DatasetSpec":
        """Anchor a relative source path at the data directory."""
        p = Path(self.source_path)
        if not p.is_absolute() and data_dir is not None:
            p = Path(data_dir) / p
        return replace(self, source_path=str(p))


def packaged_spec(name: str) -> DatasetSpec:
    """Load one of the shipped benchmark dataset specs by name."""
    ref = resources.files(__package__) / "dataset_specs" / f"{name.lower()}.json"
    with resources.as_file(ref) as path:
        if not path.exists():
            raise FileNotFoundError(f"no packaged dataset spec named {name!r}")
        return DatasetSpec.from_json(path)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def is_numeric(token: str) -> bool:
    try:
        return Decimal(token).is_finite()
    except InvalidOperation:
        return False


def _read_column(spec: DatasetSpec, lines, checked: bool) -> list:
    """The spec's column read row by row from lines, after its missing-value policy.

    lines reads as the file opened with newline="" would (see _lines).
    With checked, a kept token that is not a finite number raises
    UnparseableRow with its 1-based row number; without, tokens are kept
    as read.  A negative column index counts from the end of the first
    non-empty row read; a later row without that field raises MissingColumn.
    """
    if spec.delimiter == WHITESPACE:
        rows = map(str.split, lines)
    else:
        rows = csv.reader(lines, delimiter=spec.delimiter)
    col = spec.column
    row_no = 0

    if isinstance(col, str):  # a named column: the first row is the header
        header = next(rows, None)
        row_no = 1
        if header is None:
            raise MissingColumn(f"{spec.source_path} is empty")
        try:
            col = header.index(col)
        except ValueError:
            raise MissingColumn(f"column {spec.column!r} not in header {header!r}") from None

    out = []
    last = None
    for row in rows:
        row_no += 1
        if not row:
            continue
        if col < 0 and len(row) + col >= 0:
            col += len(row)
        try:
            token = row[col]
        except IndexError:
            raise MissingColumn(
                f"row {row_no} has {len(row)} fields, column {col} requested"
            ) from None
        token = token.strip()
        if token.lower() in MISSING_TOKENS:
            if spec.missing_policy == SKIP:
                continue
            if spec.missing_policy == FORWARD_FILL:
                if last is not None:
                    out.append(last)
                continue
            raise MissingValue(row_no)
        if checked and not is_numeric(token):
            raise UnparseableRow(row_no, token)
        out.append(token)
        last = token
    return out


def _lines(data: bytes):
    """The lines of a file's bytes, as the file opened with newline="" reads them."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def _whole_file_tokens(spec: DatasetSpec, data: bytes):
    """The candidate tokens of a headerless single-column whitespace file and
    their "\n"-joined text, or None.

    A text that ends in "\n" and holds no "\r" is split at its newlines in
    C: its text up to the final "\n" is then the joined text.  The tokens
    are the file's exactly when each is one PLAIN decimal, which join_plain
    checks; a blank line, extra whitespace or any other spelling fails that
    check.  A text whose lines all end in "\r\n" is split on whitespace and
    kept when it is exactly its tokens, each on its own line.  Any other
    file returns None.
    """
    if spec.delimiter != WHITESPACE or spec.column != 0:
        return None
    text = data.decode("utf-8")
    if text[-1:] == "\n" and "\r" not in text:
        joined = text[:-1]
        return joined.split("\n"), joined
    tokens = text.split()
    if "\r\n".join(tokens) + "\r\n" == text:
        return tokens, "\n".join(tokens)
    return None


def ingest(spec: DatasetSpec) -> list:
    """Extract the spec's column as a list of decimal text tokens.

    Missing values follow the spec's policy; anything else non-numeric
    raises UnparseableRow with its 1-based row number.

    The file is read once.  A headerless single-column whitespace file is
    first split whole (_whole_file_tokens); any other file, and one whose
    split tokens join_plain refuses, has its column collected row by row,
    unchecked.  quantizer.join_plain checks the column in one pass: it
    decides whether the column repeats (quantizer.repeated) and then
    searches only its distinct tokens.  A column of plain decimals
    (quantizer.PLAIN) is returned as a PlainColumn carrying its joined text
    and distinct tokens, which quantize_stream neither searches nor counts
    again.  Any other column, and any error on the way, is read again from
    the same bytes row by row with every token checked, which raises the
    first fault with its row.
    """
    with open(spec.source_path, "rb") as f:
        data = f.read()
    try:
        whole = _whole_file_tokens(spec, data)
        plain = whole and join_plain(*whole)
        if plain:
            tokens = whole[0]
        else:
            tokens = _read_column(spec, _lines(data), checked=False)
            plain = join_plain(tokens)
        if plain is not None:
            return PlainColumn(tokens, *plain)
    except (CodecError, ValueError, csv.Error):  # ValueError: bad UTF-8
        pass
    return _read_column(spec, _lines(data), checked=True)
