"""Seed-substream plumbing.

Every random draw in the package goes through PCG64 seeded with a
SeedSequence built from a 64-bit master seed plus an integer path
(for example the trial index, or the probed matrix size).  Substreams
for distinct paths are statistically independent, so aggregated results
do not depend on iteration order or on how trials are split across
workers.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, _whole

__all__ = ["substream", "derive_seed", "check_seed", "as_generator"]


def check_seed(seed) -> int:
    """Validate and normalize a master seed to a non-negative int."""
    seed = _whole(seed, "seed")
    if seed < 0:
        raise ParameterError("seed must be non-negative")
    return seed


def as_generator(seed) -> np.random.Generator:
    """Accept an int seed or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(check_seed(seed))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by (seed, *path)."""
    ss = np.random.SeedSequence(entropy=check_seed(seed),
                                spawn_key=tuple(int(k) for k in path))
    return np.random.default_rng(ss)


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, *path) into a fresh 64-bit master seed.

    Used when a sub-computation (e.g. one probe of a bisection search)
    needs its own master seed whose value depends only on the arguments,
    never on when the probe runs.
    """
    ss = np.random.SeedSequence(entropy=check_seed(seed),
                                spawn_key=tuple(int(k) for k in path))
    return int(ss.generate_state(1, np.uint64)[0])
