"""Counter-based, splittable random streams.

Every chain, trial and tie-break draw in this package pulls from its own
Philox stream, derived from a user seed plus an integer path. Streams are
independent of execution order and batch size, so parallel and sequential
runs of the same plan draw the same numbers (chains says what batching can
still change in the samples).
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["seed_sequence", "derive_rng"]


def seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    """SeedSequence for the stream addressed by (seed, *path)."""
    seed = operator.index(seed)  # no silent float truncation
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit non-negative integer, got {seed}")
    return np.random.SeedSequence(entropy=seed,
                                  spawn_key=tuple(operator.index(p) for p in path))


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent Philox generator for the stream addressed by (seed, *path)."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *path)))
