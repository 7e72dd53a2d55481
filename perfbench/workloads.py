"""The benchmark's workloads: seeded corpora of input files plus CLI options.

Each workload builds a list of ``FileJob``s from a ``random.Random``.  Jobs
cycle through a fixed rotation of (signal shape, options) pairs, and a run
makes whole passes over the corpus, so every pair runs equally often.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import synth

GATEWAY_OPTIONS = ["--column", "value", "--delimiter", ",", "--missing", "forward-fill"]


@dataclass(frozen=True)
class FileJob:
    name: str
    content: str      # the input file's text
    expected: list    # tokens the codec must reproduce (within 10^-digits)
    options: tuple    # compress options after the two paths
    digits: int | None  # None: lossless, decoded tokens must match exactly


@dataclass(frozen=True)
class Workload:
    name: str
    files: int        # corpus size, a multiple of len(rotation)
    samples: int      # samples per file
    rotation: tuple   # (shape, options, digits) cycled over the files
    csv: bool = False

    def jobs(self, rng: random.Random, files: int, samples: int) -> list:
        out = []
        for i in range(files):
            shape, options, digits = self.rotation[i % len(self.rotation)]
            tokens = synth.SHAPES[shape](rng, samples)
            if self.csv:
                cells = synth.with_gaps(rng, tokens)
                t0 = rng.randrange(1_600_000_000, 1_700_000_000)
                rows = [f"{t0 + 60 * k},{v}" for k, v in enumerate(cells)]
                content = "ts,value\n" + "\n".join(rows) + "\n"
                expected = synth.forward_fill(cells)
            else:
                content = "\n".join(tokens) + "\n"
                expected = tokens
            name = f"{i:03d}-{shape}.{'csv' if self.csv else 'txt'}"
            out.append(FileJob(name, content, expected, tuple(options), digits))
        return out


def _coder_rotation():
    # the six (version x coder) pairs of sweeps/coders-L16-t9-d3.json, with
    # the default pair (v2, arithmetic) once more: an odd number of equally
    # common pairs puts the median latency inside one pair's cluster, not
    # on the edge between two
    pairs = [(v, c) for v in (1, 2) for c in ("static", "adaptive-huffman", "arithmetic")]
    return tuple(
        ("motion",
         ["--version", str(v), "--coder", c, "--block", "16", "--tau", "9", "--digits", "3"],
         3)
        for v, c in pairs + [(2, "arithmetic")]
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="plateau-long",
            files=8,
            samples=50_000,
            rotation=(("drift_plateau", [], 3),),
        ),
        Workload(
            name="motion-coders",
            files=7,
            samples=12_000,
            rotation=_coder_rotation(),
        ),
        Workload(
            name="gateway-chunks",
            files=30,
            samples=1_024,
            # half --digits 3, half --lossless; pulse windows take about twice
            # as long, so they are a third of the files and the median latency
            # falls inside the stepwise cluster, not on its edge
            rotation=(
                ("stepwise", GATEWAY_OPTIONS + ["--digits", "3"], 3),
                ("pulse", GATEWAY_OPTIONS + ["--lossless"], None),
                ("stepwise", GATEWAY_OPTIONS + ["--lossless"], None),
                ("stepwise", GATEWAY_OPTIONS + ["--digits", "3"], 3),
                ("pulse", GATEWAY_OPTIONS + ["--digits", "3"], 3),
                ("stepwise", GATEWAY_OPTIONS + ["--lossless"], None),
            ),
            csv=True,
        ),
    )
}
