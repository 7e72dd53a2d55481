"""Dataset ingestion: pull one numeric column out of a delimited text file.

Values are returned as the text tokens found in the file, not as floats, so
the quantizer can parse digits exactly and lossless runs stay lossless.  A
whitespace file at column 0, or a quote-free delimited file with one field
count per row, is read in a few C-level passes over its bytes; any other
goes through csv.reader or str.split row by row.  Either way _mend applies
the missing-value policy, and ingest returns a plain list: the quantizer
checks and counts the tokens itself.

The packaged spec files under dataset_specs/ describe the benchmark datasets
(column, delimiter, missing-value policy); the data files are fetched by the
user (see README) and located via a data directory.
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple
from contextlib import suppress
from decimal import Decimal, InvalidOperation
from itertools import islice

from .errors import CodecError, MissingColumn, MissingValue, UnparseableRow
from .quantizer import plain_survey

SKIP = "skip"
FORWARD_FILL = "forward-fill"
FAIL = "fail"
MISSING_POLICIES = (SKIP, FORWARD_FILL, FAIL)

#: Tokens treated as absent values (case-insensitive).
MISSING_TOKENS = {"", "?", "na", "nan", "null"}

#: Delimiter value selecting str.split() whitespace behaviour.
WHITESPACE = "whitespace"


def load_spec(cls, path):
    """The record cls (a named tuple) built from the JSON object in path, arrays as tuples.

    A file holding anything but an object, or an object that lacks a field
    without a default or names an unknown one, raises ValueError; so does
    any value cls refuses.  Only cls holds the defaults.
    """
    import json  # only a spec file is JSON; the codec commands read none
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    known = {name: name not in cls._field_defaults for name in cls._fields}  # name: required
    bad = [f"unknown key {key!r}" for key in raw if key not in known]
    bad += [f"missing key {key!r}" for key, needed in known.items() if needed and key not in raw]
    if bad:
        raise ValueError(f"{path}: {'; '.join(bad)} (keys: {', '.join(known)})")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


class DatasetSpec(namedtuple(
        "DatasetSpec", "name source_path column delimiter missing_policy",
        defaults=(0, ",", SKIP))):
    """Where a dataset's column lives: its index or the name in a header row,
    and a delimiter of one character or WHITESPACE.  A field of the wrong type
    or value raises ValueError."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks its values

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @classmethod
    def from_json(cls, path) -> "DatasetSpec":
        return load_spec(cls, path)

    def resolve(self, data_dir=None) -> "DatasetSpec":
        """Anchor a relative source path at the data directory."""
        from pathlib import Path  # only `nlts bench` resolves a spec
        p = Path(self.source_path)
        if not p.is_absolute() and data_dir is not None:
            p = Path(data_dir) / p
        return self._replace(source_path=str(p))


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

    lines reads as the file opened with newline="" would.  Every non-blank
    row's stripped token is kept, markers too, and _mend mends them together
    at the end.  Rows are read in chunks, READ_CHUNK and then twice the
    last, and each chunk is judged once read: its first token that is not a
    finite number, nor a marker the policy skips or fills, raises
    MissingValue (a marker under fail) or UnparseableRow with its 1-based
    row number, so the read reads fewer than twice the rows up to it plus
    READ_CHUNK.
    A negative column index counts from the end of the first non-empty row
    read; a later row without that field raises MissingColumn.  A row
    csv.reader refuses (a field past its size limit, say) raises CodecError
    with its row number.  Such a fault, or bad UTF-8, ends the read after
    its chunk's tokens are judged: a fault in an earlier row's token wins.
    """
    if spec.delimiter == WHITESPACE:
        rows = map(str.split, lines)
    else:
        rows = csv.reader(lines, delimiter=spec.delimiter)
    col, row_no, size = spec.column, 0, READ_CHUNK
    out, fix, fault = [], {}, None
    while not fault:
        start, first, blank = row_no, len(out), []  # blank: the chunk's rows without a token
        try:
            if isinstance(col, str):  # a named column: the first row is the header
                header = next(rows, None)
                start = row_no = 1
                if header is None:
                    raise MissingColumn(f"{spec.source_path} is empty")
                if col not in header:
                    raise MissingColumn(f"column {col!r} not in header {header!r}")
                col = header.index(col)
            for row in islice(rows, size):
                row_no += 1
                if not row:
                    blank.append(row_no)
                    continue
                if col < 0 and len(row) + col >= 0:
                    col += len(row)
                try:
                    out.append(row[col].strip())
                except IndexError:
                    raise MissingColumn(
                        f"row {row_no} has {len(row)} fields, column {col} requested"
                    ) from None
        except csv.Error as e:
            fault = CodecError(f"row {row_no + 1}: {e}")
        except (CodecError, ValueError) as e:  # a row without the field, or bad UTF-8
            fault = e
        chunk = out[first:]
        odd = plain_survey(chunk, "\n".join(chunk), len(chunk))[1]
        new = _fixes(odd, spec.missing_policy, False)
        if _FAULT in new.values():
            i = next(i for i in range(first, len(out)) if new.get(out[i]) is _FAULT)
            row = start + 1 + i - first  # and one more for each blank row up to it
            for r in blank:
                if r > row:
                    break
                row += 1
            if out[i].lower() in MISSING_TOKENS:  # a marker under fail
                raise MissingValue(row)
            raise UnparseableRow(row, out[i])
        fix.update(new)
        if row_no == start:
            break
        size *= 2
    if fault:
        raise fault
    return _mend(out, fix)


def _uniform_column(spec: DatasetSpec, data: bytes):
    """The spec's column as a list of tokens read in C-level passes, or None.

    On the bytes: no NUL, no quote under a delimiter, "\r\n" or "\r" ends a
    line; a header row names the fields as str.split reads it.  Whitespace
    column 0 is each line's first field; a delimited column is every
    (m + 1)-th field of one split once blank lines are dropped and every row
    shows m of a one-byte delimiter.  Up to MEND_MAX distinct non-PLAIN
    tokens go through _mend.  Any doubt, a negative index, a whitespace
    column past the first or a token _fixes finds at fault included, gives
    None, and so does a delimited file with a line that might hold a field
    past csv.field_size_limit (str.split has no limit).
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
    data = data.strip(b"\n")
    m = 0
    if not ws:
        d = delim.encode()
        while b"\n\n" in data:
            data = data.replace(b"\n\n", b"\n")
        m = data.partition(b"\n")[0].count(d)
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
    fix = _fixes(odd, spec.missing_policy, ws)
    return None if _FAULT in fix.values() else _mend(tokens, fix)  # the row reader reports a fault


#: The most distinct non-PLAIN tokens the one-pass reader hands to _mend.
MEND_MAX = 16
#: The rows in the row reader's first chunk; each chunk read is judged for a
#: token _mend cannot mend before the next, twice as long, is read.
READ_CHUNK = 4096
_FAULT = object()  # _fixes' mark for a token _mend cannot mend


def _fixes(odd, policy: str, ws: bool) -> dict:
    """What _mend puts in place of each odd token that reads as another: the
    token read as its row's first field (ws) or stripped, None to drop it (a
    marker under skip or a blank row), FORWARD_FILL, or _FAULT for a token
    neither a finite number nor a marker the policy skips or fills."""
    fix = {}
    for v in odd:
        t = (v.split() or [None])[0] if ws else v.strip()
        if t is not None and t.lower() in MISSING_TOKENS:
            t = _FAULT if policy == FAIL else None if policy == SKIP else FORWARD_FILL
        elif t is not None and not is_numeric(t):
            t = _FAULT
        if t != v:
            fix[v] = t
    return fix


def _mend(tokens: list, fix: dict) -> list:
    """The column with its markers skipped or filled where they stand.  fix
    is the _fixes of its odd tokens (every distinct non-PLAIN one, at least),
    none of them _FAULT; each token it rewrites costs a list.index pass."""
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
    return tokens


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
        if (column := _uniform_column(spec, data)) is not None:
            return column
    return _read_column(spec, io.TextIOWrapper(io.BytesIO(data), "utf-8-sig", newline=""))
