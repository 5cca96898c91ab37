"""Seeded random number streams, reproducible per numpy version.

All randomness in the package flows through Philox, a counter-based
generator whose raw bits depend only on its 128-bit key, on every
platform. The values that `Generator` methods draw from those bits
(`standard_normal`, `choice`, `permutation`, `integers`) are fixed only
per numpy version (NEP 19 lets a release change them). That version is
recorded in run.json's `environment`, and the golden digest test fails
if a numpy release moves them. Independent stages (projection,
clustering init, pair sampling, baseline shuffles) derive separate keys
by hashing a context label into the seed, which keeps them from sharing
state when a user reuses one seed everywhere.
"""

from __future__ import annotations

import hashlib

import numpy as np


def subseed(seed: int, *context) -> int:
    """Derive a stable 128-bit key from a seed and a context tuple."""
    digest = hashlib.sha256(repr((int(seed),) + context).encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def generator(seed: int, *context) -> np.random.Generator:
    """Philox generator keyed by `seed`, stream-separated by `context`."""
    key = subseed(seed, *context) if context else int(seed)
    return np.random.Generator(np.random.Philox(key=key))
