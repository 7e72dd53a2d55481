#!/usr/bin/env python3
"""nlts benchmark: file-to-file compress and decompress through the CLI.

    python3 perfbench/run.py --workload plateau-long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the codec is imported from its
``src/``.  One process and one client drive a closed loop: each corpus file
is compressed with ``nlts.cli.main(["compress", ...])``, then decompressed
with ``nlts.cli.main(["decompress", ...])``, then verified outside the timed
region.  Files are generated from ``--seed`` (see synth.py, workloads.py).

The loop passes over the corpus again and again until ``--seconds`` have
gone by, at least ``MIN_PASSES`` times.  About every ``CAL_EVERY_S`` it runs
a fixed calibration kernel (calibrate.py), and every time it reports is an
op's or set-up's wall time scaled to the kernel's reference speed, so that a
swing in the speed of a shared host does not read as a change of the codec.
The unscaled wall-time figures are printed too, for information.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures half
the time untraced, replays the same files with span wrappers installed
(tracing.py) and reports the per-layer metrics, including the overhead of
tracing.  Human-readable lines come first; the last line of standard output
is one JSON object with the metrics named in BENCHMARK.json.  Details, and
the spans of a traced run, go to ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 7
CAL_EVERY_S = 0.25  # wall seconds of files between two calibration samples
MIN_PASSES = 3
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
WARM_SAMPLES = 1_024
CRITERION_8_MBPS = 0.5  # paper criterion #8: encode and decode >= 0.5 MB/s

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_codec():
    """Import the codec afresh from the checkout's src/, never an installed copy."""
    for name in [m for m in sys.modules if m == "nlts" or m.startswith("nlts.")]:
        del sys.modules[name]
    cli = importlib.import_module("nlts.cli")
    bench = importlib.import_module("nlts.bench")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        fail(f"nlts was imported from {cli.__file__}, not from {SRC}")
    return cli, bench


@dataclass
class FileResult:
    job: object
    compress_s: float
    decompress_s: float
    canonical_bytes: int
    container: bytes
    ops: tuple  # (compress op id, decompress op id)
    failed: int  # failed ops among the two
    scale: float = 1.0  # wall seconds to reference seconds (calibrate.scale)


class Runner:
    """Runs files through the CLI and checks what comes back."""

    def __init__(self, cli, bench, corpus: Path, out: Path):
        self.cli = cli
        self.bench = bench
        self.corpus = corpus
        self.out = out
        self.tracer = None
        self.next_op = 0
        self.sink = io.StringIO()
        self.failures = []
        self.first_container = {}

    def call(self, span: str, argv: list):
        """One timed CLI call; returns (op id, seconds, ok)."""
        op = self.next_op
        self.next_op += 1
        main = self.cli.main
        sink = self.sink
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                if self.tracer is None:
                    rc = main(argv)
                else:
                    rc = self.tracer.root(span, op, lambda: main(argv))
            except (Exception, SystemExit) as e:  # an op failure, not a benchmark failure
                rc = f"{type(e).__name__}: {e}"
            seconds = time.perf_counter() - t0
        if rc != 0:
            self.failures.append(f"{span} {argv[1]}: {rc} {sink.getvalue().strip()}")
        return op, seconds, rc == 0

    def run_file(self, job) -> FileResult:
        src = self.corpus / job.name
        blob_path = self.out / (job.name + ".nlts")
        dec_path = self.out / (job.name + ".out")
        c_op, c_s, c_ok = self.call(
            "cli.compress", ["compress", str(src), str(blob_path), *job.options]
        )
        d_op, d_s, d_ok = self.call("cli.decompress", ["decompress", str(blob_path), str(dec_path)])
        # untimed from here on
        failed = (not c_ok) + (not d_ok)
        container = blob_path.read_bytes() if c_ok else b""
        canonical = dec_path.stat().st_size if d_ok else 0
        first = self.first_container.setdefault(job.name, container)
        if c_ok and container != first:
            self.failures.append(f"{job.name}: container differs from the first pass")
            failed += 1
        if d_ok and not self.verify(job, dec_path):
            self.failures.append(f"{job.name}: decoded values fail verification")
            failed += 1
        if self.tracer is not None:
            self.tracer.drain_counts()
        return FileResult(job, c_s, d_s, canonical, container, (c_op, d_op), failed)

    def verify(self, job, dec_path: Path) -> bool:
        tokens = dec_path.read_text(encoding="utf-8").split("\n")
        if tokens and tokens[-1] == "":
            tokens.pop()
        if job.digits is None:
            return tokens == job.expected
        try:
            eps = Decimal(1).scaleb(-job.digits)
            return self.bench.verify_values(job.expected, tokens, eps).ok
        except ValueError:  # LengthMismatch
            return False


def write_corpus(jobs, directory: Path, digest=None) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        data = job.content.encode("utf-8")
        (directory / job.name).write_bytes(data)
        if digest is not None:
            digest.update(job.name.encode("utf-8"))
            digest.update(data)


def set_up(workload, seed: int, run_dir: Path):
    """Import, generate and write the corpus, warm up; returns (seconds, state)."""
    t0 = time.perf_counter()
    cli, bench = load_codec()
    jobs = workload.jobs(random.Random(seed), workload.files, workload.samples)
    digest = hashlib.sha256()
    write_corpus(jobs, run_dir / "corpus", digest)
    # one small file per rotation entry, so every code path has run once
    warm = workload.jobs(random.Random(f"warm-{seed}"), len(workload.rotation), WARM_SAMPLES)
    write_corpus(warm, run_dir / "warm")
    runner = Runner(cli, bench, run_dir / "warm", run_dir / "out")
    runner.out.mkdir(parents=True, exist_ok=True)
    warm_failed = sum(runner.run_file(job).failed for job in warm)
    runner.corpus = run_dir / "corpus"
    runner.next_op = 0
    runner.first_container.clear()
    seconds = time.perf_counter() - t0
    return seconds, runner, jobs, digest.hexdigest(), warm_failed


def measure(runner, jobs, seconds: float, passes: int | None = None) -> list:
    """Closed loop over the corpus, one whole pass at a time.

    Stops after ``passes`` passes, or else once ``seconds`` have gone by and
    at least ``MIN_PASSES`` passes are done.  A calibration sample is taken
    first, last and whenever ``CAL_EVERY_S`` have gone by since the previous
    one; each result carries the scale of the samples around it.
    """
    results = []
    cal_index = []
    cals = [calibrate.sample()]
    last_cal = start = time.perf_counter()
    done = 0
    while True:
        if passes is None:
            if done >= MIN_PASSES and time.perf_counter() - start >= seconds:
                break
        elif done >= passes:
            break
        for job in jobs:
            results.append(runner.run_file(job))
            cal_index.append(len(cals) - 1)
            if time.perf_counter() - last_cal >= CAL_EVERY_S:
                cals.append(calibrate.sample())
                last_cal = time.perf_counter()
        done += 1
    cals.append(calibrate.sample())
    for r, k in zip(results, cal_index):
        r.scale = calibrate.scale(cals, k)
    return results


def tail(values):
    """Highest percentile of TAIL_LADDER with at least 10 samples beyond it.

    Returns (percentile, value, samples beyond), or None for too few samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in reversed(TAIL_LADDER):
        rank = max(1, math.ceil(n * pct / 100))
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return None


def end_to_end(results, n_jobs: int, setup_s: float, notes: list) -> dict:
    canonical = sum(r.canonical_bytes for r in results)
    out = {}
    for side in ("compress", "decompress"):
        wall = [getattr(r, f"{side}_s") for r in results]
        times = [s * r.scale for s, r in zip(wall, results)]
        out[f"{side}_mbps"] = canonical / sum(times) / 1e6
        out[f"{side}_ms_p50"] = statistics.median(times) * 1e3
        t = tail(times)
        if t is not None:
            notes.append(
                f"{side}_ms_tail = {t[1] * 1e3:.6g} ms "
                f"(p{t[0]:g} of {len(times)} files, {t[2]} beyond it; not gated)"
            )
        notes.append(
            f"unscaled wall time: {side}_mbps = {canonical / sum(wall) / 1e6:.6g} MB/s, "
            f"{side}_ms_p50 = {statistics.median(wall) * 1e3:.6g} ms (not gated)"
        )
    first_pass = results[:n_jobs]
    container_bytes = sum(len(r.container) for r in first_pass)
    out["compression_ratio"] = (
        sum(r.canonical_bytes for r in first_pass) / container_bytes if container_bytes else 0.0
    )
    attempted = 2 * len(results)
    failed = sum(r.failed for r in results)
    out["verified_ops_share"] = (attempted - failed) / attempted
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["setup_s"] = setup_s
    return out


def _op_seconds(results) -> float:
    return sum((r.compress_s + r.decompress_s) * r.scale for r in results)


def per_layer(runner, jobs, seconds: float):
    """Untraced half, traced replay of the same passes; returns (results, metrics, tracer)."""
    untraced = measure(runner, jobs, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        traced = measure(runner, jobs, seconds, passes=len(untraced) // len(jobs))
    finally:
        tracer.uninstall()
        runner.tracer = None
    overhead = _op_seconds(traced) / _op_seconds(untraced) - 1
    op_bytes = {}
    for r in traced:
        for op in r.ops:
            op_bytes[op] = r.canonical_bytes
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, op_bytes, overhead)
    return untraced + traced, metrics, tracer


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "nlts" / "cli.py").is_file() or not spec_path.is_file():
        fail(f"run from the root of an nlts checkout: {SRC / 'nlts'} or {spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        calibrate.kernel()  # warm the kernel itself
        setups = []
        cals = [calibrate.sample()]
        for _ in range(1 if args.trace else SETUP_REPEATS):
            seconds, runner, jobs, corpus_sha, warm_failed = set_up(workload, args.seed, run_dir)
            setups.append(seconds)
            cals.append(calibrate.sample())
        # each set-up is scaled by the calibration samples just before and after it
        ref = calibrate.REFERENCE_S
        scaled = [s * ref / statistics.median(cals[k : k + 2]) for k, s in enumerate(setups)]
        setup_s = statistics.median(scaled)

        notes = []
        if args.trace:
            results, values, tracer = per_layer(runner, jobs, args.seconds)
            notes += [f"trace target missing: {t}" for t in tracer.skipped]
        else:
            results = measure(runner, jobs, args.seconds)
            values = end_to_end(results, len(jobs), setup_s, notes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = 2 * len(results) + 2 * len(workload.rotation)
    failed = sum(r.failed for r in results) + warm_failed
    stream_sha = hashlib.sha256(b"".join(r.container for r in results[: len(jobs)])).hexdigest()
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "corpus_sha256": corpus_sha,
        "stream_sha256": stream_sha,
        "files": len(results),
        "setup_runs_s": setups,
    }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for key, value in env.items():
        print(f"{key}: {value}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ops_share = {failed / attempted:.6g} share ({failed} of {attempted} ops)")
    if not args.trace:
        holds = min(values["compress_mbps"], values["decompress_mbps"]) >= CRITERION_8_MBPS
        notes.append(
            f"paper criterion #8 (>= {CRITERION_8_MBPS} MB/s encode and decode) "
            f"{'holds' if holds else 'does not hold'} on this synthetic workload (not gated)"
        )
    for line in notes + runner.failures[:10]:
        print(line)

    WORK.mkdir(parents=True, exist_ok=True)
    detail = {
        "environment": env,
        "metrics": metrics,
        "notes": notes,
        "failures": runner.failures,
        "files": [
            [r.job.name, r.compress_s, r.decompress_s, r.canonical_bytes, r.scale] for r in results
        ],
    }
    if args.trace:
        names = sorted({span[0] for span in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        detail["spans"] = {
            "names": names,
            "fields": ["name_index", "start_ns", "end_ns", "parent", "op"],
            "rows": [[index[n], *rest] for n, *rest in tracer.spans],
        }
    out_path = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail) + "\n", encoding="utf-8")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
