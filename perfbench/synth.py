"""Seeded synthetic signals shaped after the paper's benchmark datasets.

Four shapes, each emitted as decimal text tokens at its native digit count:

- ``drift_plateau``: slow drift broken by long flat plateaus (EDA, GAS).
- ``motion``: noisy tri-axial acceleration, 6 native digits (ACM, GYS).
- ``pulse``: a periodic blood-volume pulse with beat-to-beat jitter (BVP).
- ``stepwise``: stepwise household load with small flicker (Gactive).

Every generator takes a ``random.Random`` and a sample count and is pure
stdlib, so the same seed gives the same tokens on every platform.  Values
are built as integers at the native scale and rendered with ``render``,
which spells them exactly as the codec's canonical text does (no "-0.000",
always the full digit count), so a lossless round trip is byte-identical.
"""

from __future__ import annotations

import math
import random


def render(code: int, digits: int) -> str:
    """Canonical text of ``code / 10**digits`` with exactly ``digits`` decimals."""
    if digits == 0:
        return str(code)
    sign = "-" if code < 0 else ""
    whole, frac = divmod(abs(code), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def drift_plateau(rng: random.Random, n: int) -> list:
    """Skin-conductance-like level: plateaus at rest, slow drifts between.

    Native 4 digits.  Plateaus hold one reading exactly; drift segments
    move by at most a few 1e-4 steps per sample, so at d=3 most blocks are
    constant or nearly so and take the mode branch.
    """
    digits = 4
    level = rng.randrange(20_000, 40_000)  # 2.0 .. 4.0 microsiemens
    out = []
    while len(out) < n:
        if rng.random() < 0.6:
            out.extend([render(level, digits)] * rng.randrange(20, 200))
        else:
            slope = rng.choice((-3, -2, -1, 1, 2, 3))
            for _ in range(rng.randrange(10, 80)):
                level += slope + rng.choice((-1, 0, 0, 0, 1))
                out.append(render(level, digits))
    return out[:n]


def motion(rng: random.Random, n: int) -> list:
    """Tri-axial wrist acceleration in m/s^2, one axis after another.

    Each axis is a gravity share plus two slow sinusoids (arm swing) plus
    Gaussian sensor noise, at 6 native digits; the file holds the x, y and
    z axes of the same recording back to back (n // 3 samples each).
    Amplitudes and noise vary little between seeds, so files of one seed
    cost about as much to code as files of another.
    """
    digits = 6
    scale = 10**digits
    gravity = [g + rng.uniform(-0.3, 0.3) for g in (0.4, -3.1, 9.2)]
    out = []
    for axis in range(3):
        count = n // 3 + (1 if axis < n % 3 else 0)
        a1, a2 = rng.uniform(1.5, 2.0), rng.uniform(0.4, 0.6)
        f1, f2 = rng.uniform(0.01, 0.015), rng.uniform(0.04, 0.06)
        p1, p2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        sigma = 0.05
        g = gravity[axis]
        for i in range(count):
            v = (g + a1 * math.sin(f1 * i + p1) + a2 * math.sin(f2 * i + p2)
                 + rng.gauss(0.0, sigma))
            out.append(render(round(v * scale), digits))
    return out


def pulse(rng: random.Random, n: int) -> list:
    """Blood volume pulse at 64 Hz: one beat every ~0.6-1.0 s, 2 native digits."""
    digits = 2
    out = []
    period = rng.uniform(45, 55)
    amp = rng.uniform(60, 90)
    baseline = rng.uniform(-10, 10)
    phase = 0.0
    for _ in range(n):
        phase += 1.0 / period
        if phase >= 1.0:
            phase -= 1.0
            period = min(64.0, max(38.0, period + rng.gauss(0.0, 1.5)))
            amp = min(150.0, max(20.0, amp + rng.gauss(0.0, 4.0)))
        # systolic upstroke then a slower decay with a dicrotic notch
        if phase < 0.15:
            shape = math.sin(phase / 0.15 * math.pi / 2)
        else:
            t = (phase - 0.15) / 0.85
            shape = math.exp(-3.0 * t) + 0.15 * math.sin(t * math.pi * 3) * (1 - t)
        baseline += rng.gauss(0.0, 0.05)
        v = baseline + amp * (shape - 0.3) + rng.gauss(0.0, 0.4)
        out.append(render(round(v * 100), digits))
    return out


def stepwise(rng: random.Random, n: int) -> list:
    """Household active power in kW, 3 native digits: steps with flicker."""
    digits = 3
    out = []
    level = rng.randrange(100, 3_000)
    while len(out) < n:
        for _ in range(rng.randrange(5, 90)):
            flicker = rng.choice((0, 0, 0, 0, 2, -2)) if level > 10 else 0
            out.append(render(level + flicker, digits))
        if rng.random() < 0.3:
            level = rng.randrange(76, 400)  # back to standby load
        else:
            level = max(76, level + rng.randrange(-1_500, 2_500))
    return out[:n]


def with_gaps(rng: random.Random, tokens: list, rate: float = 0.004) -> list:
    """Replace short runs of tokens by ``?``; the first row is never missing."""
    out = list(tokens)
    i = 1
    while i < len(out):
        if rng.random() < rate:
            run = rng.randrange(1, 12)
            out[i : i + run] = ["?"] * len(out[i : i + run])
            i += run
        i += 1
    return out


def forward_fill(tokens: list) -> list:
    """What ``--missing forward-fill`` ingests from ``tokens``."""
    out = []
    last = None
    for t in tokens:
        if t == "?":
            if last is not None:
                out.append(last)
        else:
            out.append(t)
            last = t
    return out


SHAPES = {
    "drift_plateau": drift_plateau,
    "motion": motion,
    "pulse": pulse,
    "stepwise": stepwise,
}
