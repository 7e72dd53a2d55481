"""Dataset ingestion: pull one numeric column out of a delimited text file.

Values are returned as the text tokens found in the file, not as floats, so
the quantizer can parse digits exactly and lossless runs stay lossless.  A
whitespace file at column 0, or a quote-free delimited file with one field
count per row, is read in a few C-level passes over its bytes; any other
goes through csv.reader or str.split row by row.  Either way ingest returns
a plain list: the quantizer checks and counts the tokens itself.

The packaged spec files under dataset_specs/ describe the benchmark datasets
(column, delimiter, missing-value policy); the data files are fetched by the
user (see README) and located via a data directory.
"""

from __future__ import annotations

import csv
import io
import re
from contextlib import suppress
from dataclasses import MISSING, dataclass, fields, replace
from decimal import Decimal, InvalidOperation

from .errors import CodecError, MissingColumn, MissingValue, UnparseableRow
from .quantizer import PLAIN, plain_survey

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
    import json  # only a spec file is JSON; the codec commands read none
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
        from pathlib import Path  # only `nlts bench` resolves a spec
        p = Path(self.source_path)
        if not p.is_absolute() and data_dir is not None:
            p = Path(data_dir) / p
        return replace(self, source_path=str(p))


def packaged_spec(name: str) -> DatasetSpec:
    """Load one of the shipped benchmark dataset specs by name."""
    from importlib import resources  # only `nlts bench` loads a packaged spec
    ref = resources.files(__package__) / "dataset_specs" / f"{name.lower()}.json"
    with resources.as_file(ref) as path:
        if not path.exists():
            raise FileNotFoundError(f"no packaged dataset spec named {name!r}")
        return DatasetSpec.from_json(path)


def file_sha256(path) -> str:
    import hashlib  # only a bench report records a checksum
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


def _read_column(spec: DatasetSpec, lines) -> list:
    """The spec's column read row by row from lines, after its missing-value policy.

    lines reads as the file opened with newline="" would.  A kept token that
    is not a finite number raises UnparseableRow with its 1-based row number.
    A negative column index counts from the end of the first non-empty row
    read; a later row without that field raises MissingColumn.  A row
    csv.reader refuses (a field past its size limit, say) raises CodecError
    with its row number.  The kept tokens are checked together, by
    _check_numeric, at the end or before any other error leaves: an
    unparseable token still wins over every error of a later row.
    """
    if spec.delimiter == WHITESPACE:
        rows = map(str.split, lines)
    else:
        rows = csv.reader(lines, delimiter=spec.delimiter)
    col = spec.column
    row_no = 0
    out = []
    idle = []  # the rows that add no token to out, in order
    try:
        if isinstance(col, str):  # a named column: the first row is the header
            header = next(rows, None)
            row_no = 1
            idle.append(1)
            if header is None:
                raise MissingColumn(f"{spec.source_path} is empty")
            try:
                col = header.index(col)
            except ValueError:
                raise MissingColumn(f"column {spec.column!r} not in header {header!r}") from None

        last = None
        for row in rows:
            row_no += 1
            if not row:
                idle.append(row_no)
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
                    idle.append(row_no)
                    continue
                if spec.missing_policy == FORWARD_FILL:
                    if last is not None:
                        out.append(last)
                    else:
                        idle.append(row_no)
                    continue
                raise MissingValue(row_no)
            out.append(token)
            last = token
    except csv.Error as e:
        _check_numeric(out, idle)
        raise CodecError(f"row {row_no + 1}: {e}") from None
    except (CodecError, ValueError):  # a later row's fault, or bad UTF-8
        _check_numeric(out, idle)
        raise
    _check_numeric(out, idle)
    return out


def _check_numeric(tokens: list, idle: list) -> None:
    """Raise UnparseableRow for the first of tokens that is not a finite number.

    Only the distinct tokens plain_survey finds not PLAIN go through
    is_numeric.  tokens[i] came from the (i + 1)-th row not listed in idle.
    """
    text = "\n".join(tokens)
    if text.count("\n") < len(tokens):
        odd = plain_survey(tokens, text, len(tokens) + 1)[1]
    else:  # a quoted field holds a line break, or there are no tokens
        odd = set(tokens)
    bad = {t for t in odd if not is_numeric(t)}
    if bad:
        i = next(i for i, t in enumerate(tokens) if t in bad)
        row = i + 1
        for r in idle:
            if r > row:
                break
            row += 1
        raise UnparseableRow(row, tokens[i])


def _uniform_column(spec: DatasetSpec, data: bytes):
    """The spec's column as a list of tokens read in C-level passes, or None.

    On the bytes: no NUL, no quote under a delimiter, "\r\n" or "\r" ends a
    line; a header row names the fields as str.split reads it.  Whitespace
    column 0 is each line's first field; a delimited column is every
    (m + 1)-th field of one split once every non-blank row shows m of a
    one-byte delimiter.  _mend reads up to MEND_MAX distinct non-PLAIN
    tokens.  Any doubt, a negative index or a whitespace column past the
    first included, gives None; so does a delimited file with a line that
    might hold a field past csv.field_size_limit (str.split has no limit).
    """
    ws, delim, k = spec.delimiter == WHITESPACE, spec.delimiter, spec.column
    data = data.removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark
    if b"\0" in data or not ws and (delim in '\r\n"' or b'"' in data):
        return None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    half = (csv.field_size_limit() + 1) // 2  # a longer field fills one whole window
    if not ws and any(data.find(b"\n", i, i + half) < 0
                      for i in range(0, len(data) - half + 1, half)):
        return None
    if isinstance(k, str):
        header, _, data = data.partition(b"\n")
        names = header.decode().split(None if ws else delim)
        k = names.index(k) if header and k in names else -1  # -1 gives None below
    if ws and k:
        return None
    data = data.lstrip(b"\n").removesuffix(b"\n")
    m = 0
    if not ws:
        d = delim.encode()
        m = data.partition(b"\n")[0].count(d)
        while m and b"\n\n" in data:
            data = data.replace(b"\n\n", b"\n")
        uniform = (data.translate(None, bytes(range(256)).replace(d, b"").replace(b"\n", b""))
                   + b"\n" == (d * m + b"\n") * (data.count(b"\n") + 1)) if m else d not in data
        if len(d) != 1 or not 0 <= k <= m or not uniform:
            return None
    text = data.decode()
    tokens = text.replace(delim, "\n").split("\n")[k :: m + 1] if m else text.split("\n")
    text = "\n".join(tokens) if m else text
    odd = plain_survey(tokens, text, MEND_MAX + 1)[1]
    if len(odd) > MEND_MAX:
        return None
    return _mend(tokens, odd, spec.missing_policy, ws, m) if odd else tokens


#: The most distinct non-PLAIN tokens _mend looks for, one list.index pass each.
MEND_MAX = 16


def _mend(tokens: list, odd: list, policy: str, ws: bool, m: int):
    """The column, each odd token read as its row's (whitespace: the first field,
    else stripped), blank rows dropped and missing markers skipped or filled
    where they stand; None on other odd tokens or none left."""
    fix = {}
    for v in odd:
        t = (v.split() or [None])[0] if ws else v.strip() if v or m else None
        if t is not None and t.lower() in MISSING_TOKENS and policy != FAIL:
            t = None if policy == SKIP else FORWARD_FILL
        elif t is not None and not re.fullmatch(PLAIN, t):  # a marker under FAIL too
            return None
        fix[v] = t
    at = []
    for v in fix:
        i = -1
        with suppress(ValueError):
            while True:
                i = tokens.index(v, i + 1)
                at.append(i)
    last, p = None, -1
    for i in sorted(at):
        last = tokens[i - 1] if i > p + 1 else last  # a row with no odd token
        t = fix[tokens[i]]
        tokens[i] = t = last if t == FORWARD_FILL else t
        last, p = t or last, i
    if None in map(tokens.__getitem__, at):  # a dropped row
        tokens = list(filter(None, tokens))
    return tokens or None


def ingest(spec: DatasetSpec) -> list:
    """Extract the spec's column as a list of decimal text tokens.

    Missing values follow the spec's policy; anything else non-numeric
    raises UnparseableRow with its 1-based row number.  The file is read
    once, as UTF-8 after an optional byte-order mark, by _uniform_column or,
    failing that, row by row by _read_column, the one reader that reports
    errors.
    """
    with open(spec.source_path, "rb") as f:
        data = f.read()
    with suppress(ValueError):  # bad UTF-8 is reported by row
        if column := _uniform_column(spec, data):
            return column
    return _read_column(spec, io.TextIOWrapper(io.BytesIO(data), "utf-8-sig", newline=""))
