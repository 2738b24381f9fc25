"""Seed-substream plumbing.

Every random draw in the package goes through PCG64 seeded with a
SeedSequence built from a master seed plus an integer path (for example
the trial index, or the probed matrix size).  Substreams for distinct
paths are statistically independent, so aggregated results do not
depend on iteration order or on how trials are split across workers.

substream and derive_seed build numpy's SeedSequence for each call.
substreams yields the generators of a range of trial indices, each the
one substream(seed, t) gives: it hashes the seed into SeedSequence's
pool once, in Python ints, then the index words of a block of trials
at a time as uint32 arrays, and hands each trial's four seed words to
PCG64, which seeds itself from them.  substream is its oracle
(tests/test_rng.py).
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError, _whole

__all__ = ["substream", "substreams", "derive_seed", "check_seed",
           "as_generator"]

# SeedSequence's hash constants (numpy/random/bit_generator.pyx): its
# pool holds 4 words, the entropy is hashed in with INIT_A/MULT_A and
# the output words drawn with INIT_B/MULT_B; mix(x, y) is
# MIX_L * x - MIX_R * y; every hash ends with v ^= v >> 16
_M32 = 0xFFFF_FFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MIX_R32 = np.uint32(_MIX_R)

# trials seeded per vectorised pass; its arrays take about 50 kB
_BLOCK = 1024


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


class _SeedWords(ISeedSequence):
    """One trial's PCG64 seed words, already generated.

    PCG64 asks its seed sequence for generate_state(4, np.uint64) once;
    this answers with the words SeedSequence would have given.
    """

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hash_consts(const: int, mult: int, count: int) -> tuple:
    """(xor, mul): a hash constant over count hashes.

    Hash i xors in xor[i] = const, steps const *= mult, and multiplies
    by mul[i], the new const."""
    xor = []
    for _ in range(count):
        xor.append(const)
        const = const * mult & _M32
    return xor, xor[1:] + [const]


# generate_state(4, np.uint64) hashes the pool twice round into 8 words;
# shaped (2, 4), these broadcast onto the pool of each trial
_OUT_XOR, _OUT_MUL = (np.array(a, np.uint32).reshape(2, _POOL)
                      for a in _hash_consts(_INIT_B, _MULT_B, 2 * _POOL))


def _seed_pool(seed: int) -> np.ndarray:
    """What the spawn word t meets in SeedSequence(seed, spawn_key=(t,)).

    A spawn key pads the seed's 32-bit words with zeros to the pool
    size.  The first four are hashed into the pool, the pool words are
    mixed into each other, and every later word, t last, is mixed into
    every pool word.  Rows: t's hash constants (xor, mul) against each
    pool word, and MIX_L times the pool word.
    """
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    words += [0] * (_POOL - len(words))
    const = _INIT_A
    for i in range(_POOL):
        v = words[i] ^ const
        const = const * _MULT_A & _M32
        v = v * const & _M32
        words[i] = v ^ v >> 16
    for src in range(len(words)):
        for dst in range(_POOL):
            if src != dst:
                v = words[src] ^ const
                const = const * _MULT_A & _M32
                v = v * const & _M32
                r = (_MIX_L * words[dst] - _MIX_R * (v ^ v >> 16)) & _M32
                words[dst] = r ^ r >> 16
    xor, mul = _hash_consts(const, _MULT_A, _POOL)
    left = [_MIX_L * w & _M32 for w in words[:_POOL]]
    return np.array([xor, mul, left], np.uint32)


def substreams(seed: int, start: int, stop: int):
    """Yield substream(seed, t) for t in range(start, stop), in order.

    Each generator's stream is exactly substream(seed, t)'s.  The seed
    words of up to _BLOCK trials are hashed in one pass; an index
    t >= 2**32, two words in a spawn key, goes through substream.
    """
    seed, start, stop = (check_seed(seed), _whole(start, "start"),
                         _whole(stop, "stop"))
    if start < 0:
        raise ParameterError("start must be non-negative")
    split = min(stop, 1 << 32)
    if start < split:
        xor, mul, left = _seed_pool(seed)
        for lo in range(start, split, _BLOCK):
            t = np.arange(lo, min(lo + _BLOCK, split), dtype=np.uint32)
            # t's hash against each pool word, mixed into that word
            h = (t[:, None] ^ xor) * mul
            h ^= h >> 16
            h = left - _MIX_R32 * h
            h ^= h >> 16
            # the output hash; SeedSequence pairs the 8 words little-endian
            out = (h[:, None, :] ^ _OUT_XOR) * _OUT_MUL
            out ^= out >> 16
            rows = out.reshape(-1, 2 * _POOL).astype("<u4", copy=False)
            for row in rows.view("<u8").astype(np.uint64, copy=False):
                yield Generator(PCG64(_SeedWords(row)))
    for t in range(max(start, split), stop):
        yield substream(seed, t)
