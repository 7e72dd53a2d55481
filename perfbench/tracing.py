"""Span tracing around the codec's layers, installed from outside ``src/``.

The codec imports its stage functions by name (``from .transform import
transform_block``), so a wrapper must rebind the name inside the module that
calls it: ``nlts.container.transform_block``, ``nlts.cli.ingest`` and so on.
``Tracer.install`` does that for every target in ``TARGETS`` and
``Tracer.uninstall`` restores the originals.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index
of the enclosing span (-1 for an op's root) and ``op`` the id of the CLI call
it belongs to.  Spans stay in memory until the run ends.  Wrappers also queue
their arguments and results; ``drain_counts`` turns them into block and coder
counts between ops, so that arithmetic is never inside a timed span.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter

# (module, attribute, span name); entropy spans get the coder name appended.
TARGETS = [
    ("nlts.cli", "ingest", "datasets.ingest"),
    ("nlts.cli", "compress_stream", "container.compress_stream"),
    ("nlts.cli", "decompress_to_tokens", "container.decompress_to_tokens"),
    ("nlts.container", "detect_digits", "quantizer.detect_digits"),
    ("nlts.container", "quantize_stream", "quantizer.quantize_stream"),
    ("nlts.container", "transform_block", "transform.transform_block"),
    ("nlts.container", "serialize_block", "transform.serialize_block"),
    ("nlts.container", "decode_codes", "container.decode_codes"),
    ("nlts.container", "parse_block", "transform.parse_block"),
    ("nlts.container", "inverse_transform", "transform.inverse_transform"),
    ("nlts.entropy", "encode", "entropy.encode"),
    ("nlts.entropy", "decode", "entropy.decode"),
]

CODERS = ("static", "adaptive-huffman", "arithmetic")

SPANS = [
    "cli.compress",
    "cli.decompress",
    "datasets.ingest",
    "quantizer.detect_digits",
    "quantizer.quantize_stream",
    "transform.transform_block",
    "transform.serialize_block",
    "transform.parse_block",
    "transform.inverse_transform",
    *(f"entropy.{side}.{c}" for side in ("encode", "decode") for c in CODERS),
    "container.compress_stream",
    "container.decode_codes",
    "container.decompress_to_tokens",
]

# Calls whose arguments and results feed the counts.
_OBSERVED = {"transform.transform_block", "entropy.encode"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = [-1]
        self._pending = []
        self._saved = []
        self.skipped = []
        self._coder_names = {}
        self.counts = Counter()

    def install(self) -> None:
        from nlts.entropy import CODER_NAMES

        self._coder_names = CODER_NAMES
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, span, fn):
        spans = self.spans
        stack = self._stack
        pending = self._pending
        clock = time.perf_counter_ns
        by_coder = span.startswith("entropy.")
        observed = span in _OBSERVED
        names = self._coder_names

        def wrapper(*args, **kwargs):
            name = f"{span}.{names.get(args[1], args[1])}" if by_coder else span
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if observed:
                pending.append((span, args, result))
            return result

        return wrapper

    def root(self, name: str, op: int, call):
        """Run ``call()`` as the root span of op ``op``; returns its result."""
        self.op = op
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return call()
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (name, start, end, -1, op)

    def drain_counts(self) -> None:
        """Fold queued call arguments and results into ``self.counts``."""
        from nlts.core import MODE
        from nlts.transform import compute_mode

        c = self.counts
        for span, args, result in self._pending:
            if span == "transform.transform_block":
                block, cfg = args[0], args[1]
                c["blocks"] += 1
                c["samples"] += len(block.codes)
                c["mode_blocks"] += result.branch == MODE
                if cfg.method_version == 2:
                    c["v2_blocks"] += 1
                    freq = compute_mode(block.codes).frequency
                    c["v2_fallbacks"] += (freq >= cfg.tau) != (result.branch == MODE)
            else:
                payload, coder = args[0], self._coder_names[args[1]]
                c["symbol_bytes"] += len(payload)
                c[f"{coder}.symbols"] += len(payload)
                c[f"{coder}.bits"] += 8 * len(result.data)
                c[f"{coder}.order0_bits"] += order0_bits(payload)
        self._pending.clear()


def order0_bits(payload: bytes) -> float:
    """Order-0 entropy of ``payload`` in bits (a lower bound for any coder)."""
    n = len(payload)
    return -sum(k * math.log2(k / n) for k in Counter(payload).values())


def self_times(spans) -> list:
    """Per span: duration minus the time its child spans cover, in ns."""
    child = [0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, counts, op_bytes: dict, overhead_share: float) -> dict:
    """Per-layer metric values, keyed by the names BENCHMARK.json declares.

    ``op_bytes`` maps an op id to the canonical text bytes of its file; a
    span's MB/s divides the bytes of the ops it ran in by its self time.
    A layer that did not run on the workload reads 0.
    """
    selfs = self_times(spans)
    total_ns = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    self_ns = Counter()
    ops = {}
    for (name, _, _, _, op), s in zip(spans, selfs):
        self_ns[name] += s
        ops.setdefault(name, set()).add(op)

    out = {}
    for name in SPANS:
        ns = self_ns.get(name, 0)
        mb = sum(op_bytes.get(op, 0) for op in ops.get(name, ())) / 1e6
        out[f"{name}.share"] = ns / total_ns if total_ns else 0.0
        out[f"{name}.mbps"] = mb / (ns / 1e9) if ns > 0 else 0.0
    out["cli.share"] = out["cli.compress.share"] + out["cli.decompress.share"]
    out["entropy.share"] = sum(
        v for k, v in out.items() if k.startswith("entropy.") and k.endswith(".share")
    )

    c = counts
    out["transform.blocks"] = c["blocks"]
    out["transform.mode_share"] = c["mode_blocks"] / c["blocks"] if c["blocks"] else 0.0
    out["transform.v2_fallback_share"] = (
        c["v2_fallbacks"] / c["v2_blocks"] if c["v2_blocks"] else 0.0
    )
    out["transform.symbol_bytes_per_sample"] = (
        c["symbol_bytes"] / c["samples"] if c["samples"] else 0.0
    )
    for coder in CODERS:
        bits = c[f"{coder}.bits"]
        symbols = c[f"{coder}.symbols"]
        out[f"entropy.{coder}.bits_per_symbol"] = bits / symbols if symbols else 0.0
        out[f"entropy.{coder}.order0_efficiency"] = (
            c[f"{coder}.order0_bits"] / bits if bits else 0.0
        )
    out["trace.overhead_share"] = overhead_share
    return out
