"""A fixed calibration kernel that tracks the speed of the machine.

A shared host runs this benchmark at speeds that swing by up to about 1.7x
for seconds to minutes at a time, and the swing moves every pure-Python
workload alike.  The run times a fixed kernel between files and reports
each op's time scaled to the speed at which the kernel takes
``REFERENCE_S``: ``op seconds * REFERENCE_S / kernel seconds nearby``.

The kernel is stdlib only and never touches the codec, so a change to the
codec moves the scaled times exactly as much as it moves the wall times.
It does the kinds of work the codec does on a file: it reads a CSV column
of decimal text, turns it into integer codes, packs block differences into
a ``bytearray`` and renders the codes as text again; and it parses tokens
picked at random from a pool of several MB, whose cache misses follow the
host's memory contention as the codec's large lists do.  Changing the
kernel or ``REFERENCE_S`` changes every timing metric; both are part of
the benchmark's definition.
"""

from __future__ import annotations

import csv
import io
import random
import statistics
import time

REFERENCE_S = 0.040  # kernel time at reference speed (a typical 2-vCPU cloud VM)
ROWS = 8_000  # CSV rows of the pipeline part
POOL = 100_000  # tokens in the pool of the random-access part
PICKS = 15_000  # tokens parsed from the pool per run
WINDOW = 4  # kernel samples around an op that give its speed

_pool = []
_picks = []


def _pipeline() -> int:
    rng = random.Random(20_220_929)
    level = 30_000
    rows = []
    for k in range(ROWS):
        level += rng.choice((-2, -1, 0, 0, 1, 2))
        rows.append(f"{1_600_000_000 + 60 * k},{level // 10_000}.{level % 10_000:04d}")
    reader = csv.reader(io.StringIO("ts,value\n" + "\n".join(rows) + "\n"))
    next(reader)
    codes = [round(int(row[1].strip().replace(".", "")) / 10) for row in reader if row]
    buf = bytearray()
    for i in range(0, len(codes), 16):
        base = codes[i]
        for c in codes[i : i + 16]:
            buf.append((((c - base) << 1) ^ ((c - base) >> 63)) & 0xFF)
    text = "\n".join(f"{c // 1000}.{c % 1000:03d}" for c in codes)
    return len(buf) + len(text)


def _random_access() -> int:
    if not _pool:
        _pool.extend(f"{i * 7919 % 1_000_003 / 1000:.3f}" for i in range(POOL))
        order = list(range(POOL))
        random.Random(3).shuffle(order)
        _picks.extend(order[:PICKS])
    counts = {}
    for i in _picks:
        v = int(_pool[i].replace(".", ""))
        counts[v & 255] = counts.get(v & 255, 0) + 1
    return len(counts)


def kernel() -> int:
    return _pipeline() + _random_access()


def sample() -> float:
    """Wall seconds of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(samples: list, k: int) -> float:
    """Factor from wall time to reference time for work between samples k and k+1.

    Uses the median of the ``WINDOW`` samples around that interval, so one
    preempted kernel run does not skew it but a change of speed that lasts
    a few seconds does move it.
    """
    lo = max(0, k + 1 - WINDOW // 2)
    return REFERENCE_S / statistics.median(samples[lo : k + 1 + WINDOW // 2])
