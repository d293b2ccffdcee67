"""Deterministic seed derivation.

All simulation randomness flows through numpy's Philox4x64-10 counter-based
generator, keyed directly with a 64-bit seed, so identical seeds give
bit-identical streams on every platform.  Derived seeds (per trial, per
restart) are produced with the SplitMix64 finalizer so that any subset of a
seeded experiment can be reproduced independently.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import require_int

_MASK = (1 << 64) - 1


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed 64-bit bijective hash of x modulo 2**64."""
    x = (operator.index(x) + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(master_seed: int, *parts: int) -> int:
    """Mix a master seed with integer coordinates (e.g. n, trial index).

    derive_seed(s, n, t) = mix64(mix64(mix64(s) ^ n) ^ t), with Python or
    numpy integer coordinates taken modulo 2**64; stable across runs,
    platforms and worker counts.  The master seed is an integer in
    [0, 2**64), like every seed from outside.
    """
    s = mix64(require_int("seed", master_seed, low=0, high=_MASK))
    for p in parts:
        s = mix64(s ^ (operator.index(p) & _MASK))
    return s


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed, an integer in [0, 2**64)."""
    return np.random.Generator(np.random.Philox(key=require_int("seed", seed, low=0, high=_MASK)))
