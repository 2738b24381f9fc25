"""substreams against its oracle, substream.

substreams hashes the seed words of a block of trials at once in place
of numpy's SeedSequence; each generator it yields must be the one
substream(seed, t) builds, state and draws alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpool import rng
from gtpool.errors import ParameterError
from gtpool.rng import substream, substreams

# from one 32-bit word to ten, and on both sides of the 4-word pool
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 7, 2**128 - 1,
         2**128 + 5, 2**299 + 12345]
RANGES = [
    (0, 0),
    (5, 5),
    (0, 3),
    (7, 5000),  # crosses blocks
    (2**32 - 3, 2**32 + 2),  # t >= 2**32 takes two spawn-key words
]


def _check(seed, start, stop):
    gens = list(substreams(seed, start, stop))
    assert len(gens) == max(0, stop - start)
    for t, gen in zip(range(start, stop), gens):
        ref = substream(seed, t)
        assert gen.bit_generator.state == ref.bit_generator.state, (seed, t)
        assert gen.random(2).tolist() == ref.random(2).tolist(), (seed, t)
        assert gen.integers(0, 2**63, 2).tolist() == ref.integers(
            0, 2**63, 2).tolist(), (seed, t)


def test_block_is_smaller_than_the_long_range():
    assert 5000 - 7 > rng._BLOCK


@pytest.mark.parametrize("start, stop", RANGES)
@pytest.mark.parametrize("seed", SEEDS,
                         ids=[f"{s.bit_length()}-bit" for s in SEEDS])
def test_matches_substream(seed, start, stop):
    _check(seed, start, stop)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**300),
       start=st.one_of(st.integers(0, 3000),
                       st.integers(2**32 - 50, 2**32 + 50),
                       st.integers(0, 2**40)),
       count=st.integers(0, 40))
def test_matches_substream_anywhere(seed, start, count):
    _check(seed, start, start + count)


def test_stop_below_start_is_empty():
    assert list(substreams(3, 10, 4)) == []


@pytest.mark.parametrize("seed, start, stop", [
    (-1, 0, 3), (1.5, 0, 3), (3, -1, 2), (3, 0.5, 2), (3, 0, 2.5)])
def test_arguments_validated(seed, start, stop):
    with pytest.raises(ParameterError):
        next(substreams(seed, start, stop))


@pytest.mark.parametrize("seed, start, stop",
                         [(np.uint64(9), np.int64(2), 4), (9.0, 2.0, 4.0)])
def test_whole_arguments_kept(seed, start, stop):
    assert [g.random() for g in substreams(seed, start, stop)] == [
        substream(9, t).random() for t in (2, 3)]
