"""Benchmark harness: parameter sweeps, error-bound verification, reports.

A sweep runs the cartesian product of a SweepSpec over one ingested
dataset.  Every run is verified against the error bound before its row is
written; rates are medians over the configured number of repeats.  Reports
are plain CSV plus a flat (config, cr) plot-data file, and a JSON sidecar
records the dataset checksum the numbers were produced from.
"""

from __future__ import annotations

import csv
import json
import statistics
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, ROUND_UP, Context, Decimal, InvalidOperation, localcontext
from itertools import chain, product
from operator import indexOf, sub
from pathlib import Path

from .container import CodecConfig, compress_stream, decompress_to_tokens
from .datasets import WHITESPACE, DatasetSpec, file_sha256, ingest, is_numeric, load_spec
from .entropy import CODER_IDS, CODER_NAMES
from .errors import CodecError, LengthMismatch
from .quantizer import LOSSLESS, repeated

#: The settings of one configuration: CodecConfig's fields, in order.
CONFIG_FIELDS = CodecConfig._fields
_DEFAULT = CodecConfig()  # a sweep's axes default to its settings

REPORT_FIELDS = [
    "dataset",
    *CONFIG_FIELDS,
    "raw_input_bytes",
    "input_bytes",
    "output_bytes",
    "cr",
    "encode_rate",
    "decode_rate",
    "max_abs_error",
    "eps_ok",
    "error",
]


class SweepSpec(namedtuple(
        "SweepSpec", "versions coders block_lens taus digits repeats",
        defaults=((_DEFAULT.method_version,), (CODER_NAMES[_DEFAULT.coder],),
                  (_DEFAULT.block_len,), (_DEFAULT.tau,), (_DEFAULT.digits,), 3))):
    """The settings a sweep crosses, each axis a non-empty tuple of values
    (digits 0..6 or "lossless"), and the repeats of each run.

    A combination codec_config refuses raises ValueError: every run can start.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks its values

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        axes = (self.versions, self.coders, self.block_lens, self.taus, self.digits)
        if not all(isinstance(axis, (tuple, list)) and axis for axis in axes):
            raise ValueError("sweep axes must all be non-empty lists")
        if type(self.repeats) is not int or self.repeats < 1:
            raise ValueError(f"repeats must be an integer >= 1, got {self.repeats!r}")
        for config in self.configs():
            codec_config(*config)
        return self

    @classmethod
    def from_json(cls, path) -> "SweepSpec":
        return load_spec(cls, path)

    def configs(self):
        """(version, coder, L, tau, digits) for every combination, in order."""
        return product(self.versions, self.coders, self.block_lens, self.taus, self.digits)


#: verify_values's verdict, the largest error as a Decimal, and its first index.
VerifyResult = namedtuple("VerifyResult", "ok max_abs_error argmax_index")


def verify_values(original, decoded, epsilon) -> VerifyResult:
    """Check |a_i - b_i| <= epsilon pairwise; values may be tokens or numbers.

    A value that is not a number, or an epsilon that is not a number >= 0,
    raises ValueError.  The decision is exact in any caller context:
    differences keep twice the longest value's text plus epsilon's digits;
    a longer one rounds away from zero, to a multiple of a unit no coarser
    than epsilon's last digit while it is within epsilon, so it passes
    exactly when the true difference does.  When the (original, decoded)
    text pairs repeat (quantizer.repeated), each distinct pair is converted
    and compared once, and the index reported is still the first in the
    columns with the largest error.
    """
    if len(original) != len(decoded):
        raise LengthMismatch(f"sample counts differ: {len(original)} vs {len(decoded)}")
    if not is_numeric(str(epsilon)) or Decimal(str(epsilon)) < 0:
        raise ValueError(f"epsilon {epsilon!r} is not a finite number >= 0")
    eps = Decimal(str(epsilon))
    texts = [list(map(str, original)), list(map(str, decoded))]
    prec = 2 * max(map(len, chain(*texts)), default=0) + len(str(eps))
    distinct = repeated(zip(*texts), len(texts[0]))
    sides = texts if distinct is None else [[a for a, _ in distinct], [b for _, b in distinct]]
    # a difference past Emax is Infinity, which fails
    ctx = Context(prec, ROUND_UP, MIN_EMIN, MAX_EMAX, traps=[InvalidOperation])
    def errors():  # lazily, so memory does not grow with the column
        return map(abs, map(sub, *(map(Decimal, side) for side in sides)))
    try:
        with localcontext(ctx):
            worst = max(chain([Decimal(0)], errors()))  # compares every error: a NaN raises
            if not worst:
                at = 0
            elif distinct is None:
                at = indexOf(errors(), worst)
            else:  # the first pair in the columns among those with the largest error
                tops = {pair for pair, error in zip(distinct, errors()) if error == worst}
                at = indexOf(map(tops.__contains__, zip(*texts)), True)
    except InvalidOperation:
        i = next(i for i, pair in enumerate(zip(*texts)) if not all(map(is_numeric, pair)))
        a, b = original[i], decoded[i]
        raise ValueError(f"sample {i + 1}: cannot compare {a!r} with {b!r}") from None
    return VerifyResult(worst <= eps, worst, at)


def verify_files(original_path, decoded_path, epsilon) -> VerifyResult:
    """verify_values over two files, each read as nlts compress reads it by default.

    original_path may instead be the DatasetSpec the original was compressed
    with, which reads it with those options; the decoded file is canonical
    and always read with the defaults.  A value that is not a number raises
    ValueError naming its file and row.
    """
    def default(path):
        return DatasetSpec(Path(path).name, str(path), delimiter=WHITESPACE)

    original = original_path
    if not isinstance(original, DatasetSpec):
        original = default(original_path)
    columns = []
    for spec in (original, default(decoded_path)):
        try:
            columns.append(ingest(spec))
        except (CodecError, ValueError) as e:
            raise ValueError(f"{spec.source_path}: {e}") from None
    return verify_values(*columns, epsilon)


def codec_config(version, coder, L, tau, digits) -> CodecConfig:
    """The CodecConfig of one configuration, its coder given by name.

    An unknown coder name, or a setting CodecConfig refuses, raises ValueError.
    """
    if coder not in CODER_NAMES.values():
        raise ValueError(f"unknown coder {coder!r}; known: {', '.join(sorted(CODER_IDS))}")
    return CodecConfig(version, CODER_IDS[coder], L, tau, digits)


def config_label(version, coder, L, tau, digits) -> str:
    d = "lossless" if digits == LOSSLESS else f"d{digits}"
    return f"v{version}-{coder}-L{L}-t{tau}-{d}"


def run_config(tokens, version, coder, L, tau, digits, repeats: int = 3) -> dict:
    """Run one configuration; returns a report row (medians over repeats)."""
    config = (version, coder, L, tau, digits)
    row = dict.fromkeys(REPORT_FIELDS, "")  # a failed run leaves its measurements blank
    row.update(zip(CONFIG_FIELDS, config), eps_ok=False)
    try:
        cfg = codec_config(*config)
        enc_rates = []
        for _ in range(max(1, repeats)):
            blob, metrics = compress_stream(tokens, cfg)
            enc_rates.append(metrics.rate)
        dec_rates = []
        for _ in range(max(1, repeats)):
            decoded, dmetrics = decompress_to_tokens(blob)
            dec_rates.append(dmetrics.rate)
        eps = 0 if digits == LOSSLESS else Decimal(1).scaleb(-digits)
        check = verify_values(tokens, decoded, eps)
        row.update(
            input_bytes=metrics.input_bytes,
            output_bytes=metrics.output_bytes,
            cr=metrics.cr,
            encode_rate=statistics.median(enc_rates),
            decode_rate=statistics.median(dec_rates),
            max_abs_error=float(check.max_abs_error),
            eps_ok=check.ok,
        )
        if not check.ok:
            row["error"] = (
                f"error bound violated: |err|={check.max_abs_error} "
                f"at index {check.argmax_index}"
            )
    except (CodecError, ValueError) as e:
        row["error"] = f"{type(e).__name__}: {e}"
    return row


_WORKER_TOKENS = None


def _init_worker(tokens):
    global _WORKER_TOKENS
    _WORKER_TOKENS = tokens


def _run_config_worker(task):
    return run_config(_WORKER_TOKENS, *task)


def run_sweep(
    dataset: DatasetSpec,
    sweep: SweepSpec,
    out_path=None,
    data_dir=None,
    jobs: int = 1,
) -> list:
    """Run a sweep over one dataset; returns (and optionally writes) rows."""
    spec = dataset.resolve(data_dir)
    tokens = ingest(spec)
    raw_bytes = Path(spec.source_path).stat().st_size

    tasks = [(*config, sweep.repeats) for config in sweep.configs()]
    if jobs > 1:
        # imported here: concurrent.futures pulls in multiprocessing, which a
        # CLI call that never runs a pool should not pay for
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers at once: no more than there are tasks
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), initializer=_init_worker, initargs=(tokens,)
        ) as pool:
            rows = list(pool.map(_run_config_worker, tasks))
    else:
        rows = [run_config(tokens, *task) for task in tasks]
    for row in rows:
        row["dataset"] = spec.name
        row["raw_input_bytes"] = raw_bytes

    if out_path is not None:
        write_report(rows, out_path)
        meta = {
            "dataset": spec.name,
            "source_path": str(spec.source_path),
            "sha256": file_sha256(spec.source_path),
            "samples": len(tokens),
            "raw_input_bytes": raw_bytes,
        }
        Path(str(out_path) + ".meta.json").write_text(
            json.dumps(meta, indent=2) + "\n", encoding="utf-8"
        )
    return rows


def write_report(rows, out_path) -> None:
    """Write the CSV report and the flat (config, cr) plot-data file."""
    out_path = Path(out_path)
    with open(out_path, "w", newline="", encoding="utf-8") as f:
        w = csv.DictWriter(f, fieldnames=REPORT_FIELDS)
        w.writeheader()
        w.writerows(rows)
    plot_path = out_path.with_suffix(out_path.suffix + ".plot.csv")
    with open(plot_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["config", "cr"])
        for row in rows:
            w.writerow([config_label(*map(row.__getitem__, CONFIG_FIELDS)), row["cr"]])


__all__ = [
    "REPORT_FIELDS",
    "SweepSpec",
    "VerifyResult",
    "config_label",
    "run_config",
    "run_sweep",
    "verify_files",
    "verify_values",
    "write_report",
]
