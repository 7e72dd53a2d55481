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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from itertools import product
from pathlib import Path

from .container import CodecConfig, compress_stream, decompress_to_tokens
from .datasets import DatasetSpec, file_sha256, ingest, is_numeric
from .entropy import CODER_IDS, CODER_NAMES
from .errors import CodecError, LengthMismatch
from .quantizer import LOSSLESS, QuantizerConfig
from .transform import TransformConfig

REPORT_FIELDS = [
    "dataset",
    "method_version",
    "coder",
    "block_len",
    "tau",
    "digits",
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


@dataclass(frozen=True)
class SweepSpec:
    versions: tuple = (2,)
    coders: tuple = ("arithmetic",)
    block_lens: tuple = (16,)
    taus: tuple = (9,)
    digits: tuple = (3,)  # 0..6 or "lossless"
    repeats: int = 3

    def __post_init__(self):
        if not (self.versions and self.coders and self.block_lens and self.taus and self.digits):
            raise ValueError("sweep axes must all be non-empty")
        for v in self.versions:
            if v not in (1, 2):
                raise ValueError(f"bad method version {v}")
        for c in self.coders:
            if c not in CODER_IDS:
                raise ValueError(f"bad coder name {c!r}; known: {sorted(CODER_IDS)}")
        for tau in self.taus:
            for L in self.block_lens:
                if tau > L:
                    raise ValueError(f"tau {tau} exceeds block length {L}")
        for d in self.digits:
            if d != LOSSLESS and (not isinstance(d, int) or not 0 <= d <= 6):
                raise ValueError(f"bad digits entry {d!r}")

    @classmethod
    def from_json(cls, path) -> "SweepSpec":
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
        return cls(
            versions=tuple(raw.get("versions", (2,))),
            coders=tuple(raw.get("coders", ("arithmetic",))),
            block_lens=tuple(raw.get("block_lens", (16,))),
            taus=tuple(raw.get("taus", (9,))),
            digits=tuple(raw.get("digits", (3,))),
            repeats=int(raw.get("repeats", 3)),
        )

    def configs(self):
        for version, coder, L, tau, d in product(
            self.versions, self.coders, self.block_lens, self.taus, self.digits
        ):
            yield version, coder, L, tau, d


@dataclass
class VerifyResult:
    ok: bool
    max_abs_error: Decimal
    argmax_index: int


def verify_values(original, decoded, epsilon) -> VerifyResult:
    """Check |a_i - b_i| <= epsilon pairwise; values may be tokens or numbers.

    A value or epsilon that is not a number raises ValueError.
    """
    if len(original) != len(decoded):
        raise LengthMismatch(
            f"sample counts differ: {len(original)} vs {len(decoded)}"
        )
    if not is_numeric(str(epsilon)):
        raise ValueError(f"epsilon {epsilon!r} is not a finite number")
    eps = Decimal(str(epsilon))
    worst = Decimal(0)
    at = 0
    for i, (a, b) in enumerate(zip(original, decoded)):
        try:
            err = abs(Decimal(str(a)) - Decimal(str(b)))
            if err > worst:
                worst = err
                at = i
        except InvalidOperation:
            raise ValueError(
                f"sample {i + 1}: cannot compare {a!r} with {b!r}"
            ) from None
    return VerifyResult(ok=worst <= eps, max_abs_error=worst, argmax_index=at)


def _read_tokens(path) -> list:
    """The numeric token on each non-blank line; ValueError names a bad line."""
    tokens = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            token = line.strip()
            if token:
                if not is_numeric(token):
                    raise ValueError(f"{path} line {line_no}: {token!r} is not a number")
                tokens.append(token)
    return tokens


def verify_files(original_path, decoded_path, epsilon) -> VerifyResult:
    """File variant of verify_values: one numeric token per line."""
    return verify_values(_read_tokens(original_path), _read_tokens(decoded_path), epsilon)


def codec_config(version, coder, L, tau, digits) -> CodecConfig:
    """Codec settings for one configuration; digits is 0..6 or "lossless"."""
    if digits == LOSSLESS:
        q = QuantizerConfig.lossless()
    else:
        q = QuantizerConfig(mode="rounding", decimal_digits=digits)
    return CodecConfig(
        transform=TransformConfig(method_version=version, block_len=L, tau=tau),
        quantizer=q,
        coder=CODER_IDS[coder],
    )


def config_label(version, coder, L, tau, digits) -> str:
    d = "lossless" if digits == LOSSLESS else f"d{digits}"
    return f"v{version}-{coder}-L{L}-t{tau}-{d}"


def run_config(tokens, version, coder, L, tau, digits, repeats: int = 3) -> dict:
    """Run one configuration; returns a report row (medians over repeats)."""
    row = {
        "method_version": version,
        "coder": coder,
        "block_len": L,
        "tau": tau,
        "digits": digits,
        "error": "",
    }
    try:
        cfg = codec_config(version, coder, L, tau, digits)
        enc_rates = []
        blob = metrics = None
        for _ in range(max(1, repeats)):
            blob, metrics = compress_stream(tokens, cfg)
            enc_rates.append(metrics.encode_rate)
        dec_rates = []
        decoded = None
        for _ in range(max(1, repeats)):
            decoded, dmetrics = decompress_to_tokens(blob)
            dec_rates.append(dmetrics.decode_rate)
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
        row.update(
            input_bytes="", output_bytes="", cr="", encode_rate="",
            decode_rate="", max_abs_error="", eps_ok=False,
        )
        row["error"] = f"{type(e).__name__}: {e}"
    return row


_WORKER_TOKENS = None


def _init_worker(tokens):
    global _WORKER_TOKENS
    _WORKER_TOKENS = tokens


def _run_config_worker(args):
    version, coder, L, tau, digits, repeats = args
    return run_config(_WORKER_TOKENS, version, coder, L, tau, digits, repeats)


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

    configs = list(sweep.configs())
    if jobs > 1:
        tasks = [(v, c, L, t, d, sweep.repeats) for v, c, L, t, d in configs]
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(tokens,)
        ) as pool:
            rows = list(pool.map(_run_config_worker, tasks))
    else:
        rows = [
            run_config(tokens, v, c, L, t, d, sweep.repeats)
            for v, c, L, t, d in configs
        ]
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
        for row in rows:
            w.writerow(row)
    plot_path = out_path.with_suffix(out_path.suffix + ".plot.csv")
    with open(plot_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["config", "cr"])
        for row in rows:
            label = config_label(
                row["method_version"], row["coder"], row["block_len"],
                row["tau"], row["digits"],
            )
            w.writerow([label, row["cr"]])


__all__ = [
    "CODER_NAMES",
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
