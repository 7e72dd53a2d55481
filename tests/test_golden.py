"""Pinned golden streams: the container format is frozen and bit-exact.

For every configuration of a fixed grid (4 signals x v1/v2 x 3 coders x 3
(L, tau) pairs x d in {1, 3, lossless} = 216), golden.json holds the sha256
of the compressed container and of the decoded text.  Any change to the
quantizer, the transform, the serialization or a coder that alters a single
bit of either shows up here.

The signals draw only on ``random.Random(seed).randrange``, which yields the
same integers on every Python version, and are written as fixed-point text.

To regenerate after a deliberate format change (never for a refactor):
``PYTHONPATH=src python tests/test_golden.py --write``.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from nlts.container import CodecConfig, compress_stream, decompress_to_tokens
from nlts.entropy import CODER_IDS

GOLDEN_PATH = Path(__file__).with_name("golden.json")

N = 1000
VERSIONS = (1, 2)
CODERS = ("static", "adaptive-huffman", "arithmetic")
BLOCKS = ((16, 9), (64, 40), (256, 1))
DIGITS = (1, 3, "lossless")


def _fixed(units: int, digits: int = 4) -> str:
    """Text of units * 10**-digits with exactly `digits` fractional digits."""
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def random_walk(rng):
    v, out = 0, []
    for _ in range(N):
        v += rng.randrange(-40, 41)
        out.append(_fixed(v))
    return out


def plateaus(rng):
    level, out = rng.randrange(-20000, 20000), []
    while len(out) < N:
        for _ in range(rng.randrange(20, 200)):
            jitter = rng.randrange(-1, 2) if rng.randrange(10) == 0 else 0
            out.append(_fixed(level + jitter))
        level += rng.randrange(-5000, 5001)
    return out[:N]


def noisy_motion(rng):
    return [
        _fixed(400 * abs(i % 100 - 50) - 10000 + rng.randrange(-300, 301))
        for i in range(N)
    ]


def integer_valued(rng):
    level, out = 100, []
    for _ in range(N):
        if rng.randrange(25) == 0:
            level = rng.randrange(0, 3000)
        out.append(str(level + rng.randrange(-2, 3)))
    return out


SIGNALS = {
    "random-walk": (random_walk, 11),
    "plateaus": (plateaus, 12),
    "noisy-motion": (noisy_motion, 13),
    "integer-valued": (integer_valued, 14),
}


def signal(name):
    make, seed = SIGNALS[name]
    return make(random.Random(seed))


def grid():
    for name in SIGNALS:
        for version in VERSIONS:
            for coder in CODERS:
                for L, tau in BLOCKS:
                    for d in DIGITS:
                        yield name, version, coder, L, tau, d


def key(name, version, coder, L, tau, d) -> str:
    return f"{name}/v{version}/{coder}/L{L}-t{tau}/{d if d == 'lossless' else f'd{d}'}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(tokens, version, coder, L, tau, d) -> dict:
    cfg = CodecConfig(version, CODER_IDS[coder], L, tau, d)
    blob, _ = compress_stream(tokens, cfg)
    decoded, _ = decompress_to_tokens(blob)
    text = "".join(t + "\n" for t in decoded).encode()
    return {"container": sha256(blob), "decoded": sha256(text)}


def compute_golden() -> dict:
    signals = {name: signal(name) for name in SIGNALS}
    return {
        "signals": {
            name: sha256("".join(t + "\n" for t in tokens).encode())
            for name, tokens in signals.items()
        },
        "streams": {
            key(*cfg): digests(signals[cfg[0]], *cfg[1:]) for cfg in grid()
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_grid_is_complete(golden):
    assert len(list(grid())) == 216
    assert sorted(golden["streams"]) == sorted(key(*cfg) for cfg in grid())


@pytest.mark.parametrize("name", list(SIGNALS))
def test_signals_are_pinned(golden, name):
    tokens = signal(name)
    assert len(tokens) == N
    assert sha256("".join(t + "\n" for t in tokens).encode()) == golden["signals"][name]


@pytest.mark.parametrize("name", list(SIGNALS))
def test_streams_match_golden(golden, name):
    tokens = signal(name)
    mismatched = [
        key(*cfg)
        for cfg in grid()
        if cfg[0] == name and digests(tokens, *cfg[1:]) != golden["streams"][key(*cfg)]
    ]
    assert not mismatched, mismatched


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
