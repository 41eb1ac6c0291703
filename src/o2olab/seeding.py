"""Deterministic seed derivation.

Every stochastic component in the pipeline draws its seed through
``stable_seed`` so that reruns (and parallel runs) of the same
configuration are bit-identical. Python's built-in ``hash`` is salted per
process and must not be used for this.
"""

# the annotations stay strings, so defining ``rng_for`` does not load
# numpy.random: a stage that never draws (classify, report) never loads it
from __future__ import annotations

import hashlib

import numpy as np


def stable_seed(*parts) -> int:
    """63-bit seed derived from the given parts, stable across processes."""
    key = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def rng_for(*parts) -> np.random.Generator:
    """Fresh generator seeded from the given parts."""
    return np.random.default_rng(stable_seed(*parts))
