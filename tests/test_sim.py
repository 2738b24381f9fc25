import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gtpool import designs, rng, sim, theory
from gtpool.decoding import is_separable
from gtpool.designs import (
    DesignSpec,
    gen_utdq,
    generate,
    optimal_param,
    spec_at,
    trial_disjunct,
    upper_bound_m,
)
from gtpool.errors import InfeasibleError, ParameterError
from gtpool.matrices import BitMatrix
from gtpool.rng import check_seed, derive_seed, substream
from gtpool.sim import (
    SweepPoint,
    find_min_m,
    reference_trial,
    run_sweep,
    run_trials,
    slope_fit,
    wilson_interval,
)

from lemmas import (
    rid_success_probability,
    rrsd_success_probability,
    rssd_success_probability,
    search_law,
    transversal_prob_check,
    utdq_success_probability,
    variance_probe,
)


class TestWilson:
    def test_frozen_values(self):
        low, high = wilson_interval(50, 50)
        assert low == pytest.approx(0.9286524008666412, abs=1e-12)
        assert high == 1.0
        low, high = wilson_interval(45, 50)
        assert low == pytest.approx(0.7863976856252034, abs=1e-12)
        assert high == pytest.approx(0.9565242350681095, abs=1e-12)

    def test_zero_successes(self):
        low, high = wilson_interval(0, 20)
        assert low == 0.0
        assert 0 < high < 0.2

    def test_interval_orders(self):
        low, high = wilson_interval(7, 30)
        assert 0 <= low <= 7 / 30 <= high <= 1

    def test_pinned_bits(self):
        # wilson_pins.json holds the intervals scipy's binomtest(k, n)
        # .proportion_ci(method="wilson") gave, for every k at n in
        # {1, 2, 7, 50, 200} and a few k at n in {10^3, 10^5}
        pins = json.loads(
            Path(__file__).with_name("wilson_pins.json").read_text())
        few = pins.pop("few")
        for n, intervals in pins.items():
            for k, pin in enumerate(intervals):
                assert list(wilson_interval(k, int(n))) == pin, (k, n)
        for key, pin in few.items():
            k, n = map(int, key.split("/"))
            assert list(wilson_interval(k, n)) == pin, key


@pytest.fixture
def inline_pool(monkeypatch):
    """Swap the process pool for an in-process stand-in (fork would start
    all max_workers up front); returns each started pool's max_workers."""
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return seen


class TestRunTrials:
    SPEC = DesignSpec("rid", 60, 45, math.exp(-0.5))

    def test_report_is_consistent(self):
        rep = run_trials(self.SPEC, 2, 50, 424242)
        assert rep.trials == 50
        assert rep.decode_successes == rep.disjunct_successes
        assert rep.frequency == rep.decode_successes / 50
        assert 0 <= rep.wilson_low <= rep.frequency <= rep.wilson_high <= 1
        assert rep.master_seed == 424242

    def test_jobs_do_not_change_the_answer(self):
        solo = run_trials(self.SPEC, 2, 40, 99, jobs=1)
        team = run_trials(self.SPEC, 2, 40, 99, jobs=3)
        assert solo == team

    def test_pool_gets_one_worker_per_chunk(self, inline_pool):
        # outside a search each call starts a pool of its own
        teams = [run_trials(self.SPEC, 2, 3, 99, jobs=64) for _ in range(2)]
        assert inline_pool == [3, 3]
        assert teams == [run_trials(self.SPEC, 2, 3, 99, jobs=1)] * 2

    # (spec, d) per model where some of 40 trials at seed 5 fail
    CONTRACT = [
        (DesignSpec("rid", 200, 41, math.exp(-0.5)), 2),
        (DesignSpec("rrsd", 200, 32, 78), 2),
        (DesignSpec("rssd", 200, 30, 9), 2),
        (DesignSpec("utdq", 200, 24, 4), 2),
    ]

    @pytest.mark.parametrize("seed", [5, 2**128 + 5])
    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("spec, d", CONTRACT)
    def test_trial_t_draws_from_substream_t(self, inline_pool, spec, d,
                                            jobs, seed):
        # at jobs = 3 the 40 trials run in chunks from t = 0, 14 and 28
        oracle = sum(trial_disjunct(spec, d, substream(seed, t))
                     for t in range(40))
        if seed == 5:
            assert 0 < oracle < 40
        rep = run_trials(spec, d, 40, seed, jobs=jobs)
        assert rep.disjunct_successes == oracle

    def test_seeds_a_block_at_a_time(self, monkeypatch):
        built = []

        class Counted(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("spawn_key"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", Counted)
        rep = run_trials(self.SPEC, 2, 200, 77)
        assert len(built) <= math.ceil(200 / rng._BLOCK), len(built)
        monkeypatch.undo()
        assert rep.disjunct_successes == sum(
            trial_disjunct(self.SPEC, 2, substream(77, t))
            for t in range(200))

    def test_record_keys_ordered(self):
        rec = run_trials(self.SPEC, 2, 10, 1).as_record()
        assert list(rec) == [
            "model", "n", "m", "param", "d", "delta", "trials",
            "disjunct_successes", "decode_successes", "frequency",
            "wilson_low", "wilson_high", "master_seed"]

    def test_argument_validation(self):
        with pytest.raises(ParameterError):
            run_trials(self.SPEC, 60, 10, 1)
        with pytest.raises(ParameterError):
            run_trials(self.SPEC, 2, 0, 1)


def _kernel_cases(model):
    """(spec, d) over small shapes, parameter edges and failing sizes."""
    ns = [2, 3, 4, 5, 7, 40, 250]
    if model == "rid":  # both sides of the row-length switch
        ns += [designs._RID_SKIP_MIN_N - 1, designs._RID_SKIP_MIN_N + 37]
    for n in ns:
        for d in range(1, min(3, n) + 1):
            for k in (0, 1, 2, 5, 12, 30, 60):
                if model == "rid":
                    for p in (math.exp(-1.0 / d), 0.3):
                        yield DesignSpec("rid", n, k, p), d
                elif model == "rrsd":
                    for r in sorted({0, 1, optimal_param("rrsd", n, d),
                                     n - 1, n}):
                        yield DesignSpec("rrsd", n, k, r), d
                elif model == "rssd":
                    for s in sorted({0, 1, k // 3, k}):
                        yield DesignSpec("rssd", n, k, min(s, k)), d
                else:
                    for q in (2, 3, 5):
                        yield DesignSpec("utdq", n, q * (k // 2), q), d


class Coarse(np.random.Generator):
    """PCG64 doubles rounded down to a grid of `levels` values, so keys
    tie at the selection boundary, where argpartition alone decides.
    Its bit_generator rounds the words the kernels read onto the same
    grid (_CoarseBits)."""

    def __init__(self, seed, levels=4):
        super().__init__(np.random.PCG64(seed))
        self.levels = levels
        self.bits = _CoarseBits(super().bit_generator, levels)

    @property
    def bit_generator(self):
        return self.bits

    def random(self, size=None, out=None):
        keys = super().random(size, out=out)
        if isinstance(keys, float):  # a scalar draw
            return math.floor(keys * self.levels) / self.levels
        keys[...] = np.floor(keys * self.levels) / self.levels
        return keys


class _CoarseBits:
    """Coarse's bit generator: random_raw rounds each 64-bit word down to
    a multiple of 2^64 / levels (levels a power of two), so the word's
    double (w >> 11) * 2^-53 is the one Coarse.random gives there; state,
    advance and the rest are the real PCG64's.  words logs each word a
    kernel reads, the last of an array draw, with the name of the
    function that drew it."""

    def __init__(self, bits, levels):
        top = levels.bit_length() - 1
        vars(self).update(_bits=bits, _levels=levels, words=[],
                          _mask=((1 << top) - 1) << (64 - top))

    def random_raw(self, size=None):
        assert self._levels & (self._levels - 1) == 0, self._levels
        words = self._bits.random_raw(size)
        if size is None:
            words &= self._mask
            last = words
        else:
            words &= np.uint64(self._mask)
            last = int(words.flat[-1])
        self.words.append((sys._getframe(1).f_code.co_name, last))
        return words

    def __getattr__(self, name):
        return getattr(self._bits, name)

    def __setattr__(self, name, value):
        setattr(self._bits, name, value)


_ARGPARTITION = np.argpartition


class TestSupportMasks:
    """_rrsd_mask and _rssd_mask against the mask of the positions
    argpartition puts first, the rule among tied keys in the pinned
    matrices, on keys that tie at the k-th smallest (Coarse) and on keys
    that do not."""

    # (lanes, lane length, k): k = 1 and k = length - 1 included
    SHAPES = [(40, 2, 1), (40, 5, 1), (40, 5, 4), (40, 30, 1), (40, 30, 7),
              (40, 30, 29), (6, 1000, 283)]

    @pytest.fixture
    def argpartition_calls(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return _ARGPARTITION(*args, **kwargs)

        monkeypatch.setattr(np, "argpartition", spy)
        return calls

    @staticmethod
    def _rrsd_want(keys, r):
        want = np.zeros(keys.shape, dtype=bool)
        rows = np.arange(len(keys))[:, None]
        want[rows, _ARGPARTITION(keys, r - 1, axis=1)[:, :r]] = True
        return want

    @staticmethod
    def _rssd_want(keys, s):
        want = np.zeros(keys.shape, dtype=bool)
        cols = np.arange(keys.shape[1])[None, :]
        want[_ARGPARTITION(keys, s - 1, axis=0)[:s], cols] = True
        return want

    def _check(self, calls, keys, k) -> int:
        """Both masks, with keys' rows as the lanes, against argpartition;
        the tie branch gets the lanes with more than k keys <= the k-th
        smallest, and no other.  Returns how many lanes tie."""
        kth = np.sort(keys, axis=1)[:, k - 1:k]
        tied = int(np.count_nonzero(
            np.count_nonzero(keys <= kth, axis=1) > k))
        for mask, want, lanes in ((designs._rrsd_mask, self._rrsd_want, keys),
                                  (designs._rssd_mask, self._rssd_want,
                                   keys.T)):
            calls.clear()
            assert np.array_equal(mask(lanes, k), want(lanes, k)), (
                keys.shape, k)
            assert calls == ([(tied, keys.shape[1])] if tied else [])
        return tied

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_match_argpartition_on_tied_keys(self, argpartition_calls,
                                             levels):
        tied = [self._check(argpartition_calls,
                            Coarse(c, levels).random(shape[:2]), shape[2])
                for c, shape in enumerate(self.SHAPES)]
        assert all(tied)
        # with more than one level, some lanes of 2 or 5 keys do not tie
        assert levels == 1 or any(
            t < lanes for t, (lanes, _, _) in zip(tied, self.SHAPES))

    def test_match_argpartition_without_ties(self, argpartition_calls):
        rng = np.random.default_rng(31)
        for lanes, length, k in self.SHAPES:
            assert self._check(argpartition_calls,
                               rng.random((lanes, length)), k) == 0


# m at n = 10^4, d = 3: the mc benchmark's sized m, two thirds of it, and
# half of it, where many trials fail
BENCH_M = {"rssd": (133, 88, 66), "rrsd": (149, 99, 74)}

# (n, m) of rssd blocks narrower than the benchmark's, at d = 3: the sized
# m at n = 1000 and 3000, and half of it, where some trials fail
NARROW_RSSD = [(1000, 113), (1000, 56), (3000, 123), (3000, 61)]


def _small_blocks(monkeypatch, entries):
    """Shrink the generator blocks and kernel chunks to entries, which
    splits rows and columns over several draws; an rssd block of 1 or 2
    columns (most m at 1, 10 and 64 entries) is narrower than d = 3."""
    if entries is not None:
        monkeypatch.setattr(designs, "_BLOCK_ENTRIES", entries)
        monkeypatch.setattr(designs, "_CHUNK_ENTRIES", entries)


def _check_kernel_cases(model):
    outcomes = set()
    for c, (spec, d) in enumerate(_kernel_cases(model)):
        for t in range(3):
            disjunct, decoded = reference_trial(spec, d, substream(c, t))
            assert disjunct == decoded, (spec, d, t)
            assert trial_disjunct(spec, d, substream(c, t)) == disjunct, (
                spec, d, c, t)
            outcomes.add(disjunct)
    assert outcomes == {True, False}


def _check_tied_keys(model, rid_ps=(0.25, 0.5, 0.75)) -> set:
    # keys on a grid of four values tie at the selection boundary in
    # most rows and columns, and rid's p is drawn from rid_ps, by default
    # on that grid, so a key equals p in about a quarter of the entries;
    # the last 100 cases have m >= 256 rows.  Returns, for rid, the
    # functions that read a word equal to floor(p * 2^53) << 11, the
    # word of the largest draw <= p (draws are multiples of 2^-53): high
    # (designs._trial_rid) when p is on that grid, 2^11 below it if not
    rs = np.random.default_rng(7)
    outcomes, met = set(), set()
    for c in range(500):
        n = int(rs.integers(2, 30))
        d = int(rs.integers(1, min(3, n) + 1))
        m = int(rs.integers(0, 30) if c < 400 else rs.integers(256, 700))
        if model == "rid":
            param = rid_ps[int(rs.integers(0, len(rid_ps)))]
        else:
            param = int(rs.integers(0, (n if model == "rrsd" else m) + 1))
        spec = DesignSpec(model, n, m, param)
        disjunct, decoded = reference_trial(spec, d, Coarse(c))
        assert disjunct == decoded
        rng = Coarse(c)
        got = trial_disjunct(spec, d, rng)
        assert got == disjunct, (spec, d, c)
        outcomes.add(disjunct)
        if model == "rid":
            below = math.floor(param * 2.0 ** 53) << 11
            met |= {name for name, w in rng.bits.words if w == below}
    assert outcomes == {True, False}
    return met


class TestTrialKernel:
    """trial_disjunct against the full-matrix path, trial by trial."""

    @pytest.mark.parametrize("block_entries", [None, 1, 10, 64])
    @pytest.mark.parametrize("model", designs.MODELS)
    def test_matches_full_matrix_path(self, monkeypatch, model, block_entries):
        _small_blocks(monkeypatch, block_entries)
        _check_kernel_cases(model)

    @pytest.mark.parametrize("model", ["rrsd", "rssd"])
    def test_matches_at_benchmark_shapes(self, model):
        shapes = [(10 ** 4, m) for m in BENCH_M[model]]
        if model == "rssd":
            shapes += NARROW_RSSD
        outcomes = {}  # the verdicts at each n
        for n, m in shapes:
            spec = DesignSpec(model, n, m,
                              optimal_param(model, n, 3, m_hint=m))
            for t in range(12):
                disjunct, _ = reference_trial(spec, 3, substream(m, t))
                assert trial_disjunct(spec, 3, substream(m, t)) == disjunct, (
                    spec, t)
                outcomes.setdefault(n, set()).add(disjunct)
        assert all(seen == {True, False} for seen in outcomes.values())

    @pytest.mark.parametrize("block_entries", [None, 5])
    @pytest.mark.parametrize("model", ["rid", "rrsd", "rssd"])
    def test_matches_on_tied_keys(self, monkeypatch, model, block_entries):
        _small_blocks(monkeypatch, block_entries)
        _check_tied_keys(model)

    @pytest.mark.parametrize("m", [300, 70_000])
    def test_rssd_counts_past_the_narrow_dtypes(self, m):
        # every key ties, so the defective column's argpartition leaves
        # out the same row as every other column's: s = m - 1 bad keys,
        # past 255 or 65,535, reach the one good key, and no column is
        # covered
        spec = DesignSpec("rssd", 3, m, m - 1)
        disjunct, decoded = reference_trial(spec, 1, Coarse(m, levels=1))
        assert not disjunct and not decoded
        assert trial_disjunct(spec, 1, Coarse(m, levels=1)) is False

    def test_utdq_trial_memory_is_one_chunk(self):
        # a trial draws its q-ary rows in chunks, here of one row each, so
        # it holds far less than the m' x n int64 entries of one draw
        spec = DesignSpec("utdq", 10 ** 5, 100, 5)
        tracemalloc.start()
        try:
            for t in range(3):
                trial_disjunct(spec, 3, substream(1, t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < spec.m // 5 * spec.n * 8 / 4

    def test_defective_count_validated(self):
        spec = DesignSpec("rid", 5, 4, 0.5)
        assert trial_disjunct(spec, 5, 0) is True
        for d in (0, 6):
            with pytest.raises(ParameterError):
                trial_disjunct(spec, d, 0)


def _rssd_bench_spec(m, n=10 ** 4):
    return DesignSpec("rssd", n, m, optimal_param("rssd", n, 3, m_hint=m))


def _rssd_ends(spec, d, rng, first) -> set:
    """How the rssd row read settles each block of a trial, read off the
    whole key blocks: "count" where the first read (the bad rows and
    `first` good rows) covers every column, "later" where a later good
    row covers the last column left, and "argpartition" where a column
    is left after every good row.  Stops at a block not covered."""
    m, s = spec.m, int(spec.param)
    if s in (0, m):
        return set()
    good, ends = np.ones(m, dtype=bool), set()
    for start, w in designs._column_blocks(m, spec.n):
        keys = rng.random((m, w))
        h = min(max(d - start, 0), w)
        if h:
            good[np.argpartition(keys[:, :h], s - 1, axis=0)[:s]] = False
        rest, rows = keys[:, h:], np.flatnonzero(good)
        if not rows.size:
            return ends
        if not rest.size:
            continue

        def left(k):  # the columns the first k good rows leave uncertified
            low = rest[rows[:k]].min(axis=0)
            return np.count_nonzero(rest[~good] <= low, axis=0) >= s

        if not left(first).any():
            ends.add("count")
        elif not left(len(rows)).any():
            ends.add("later")
        else:
            ends.add("argpartition")
            sel = np.argpartition(rest, s - 1, axis=0)[:s]
            if not good[sel].any(axis=0).all():
                return ends
    return ends


class Tally(np.random.Generator):
    """A generator that counts the doubles random() returns."""

    def __init__(self, rng):
        super().__init__(rng.bit_generator)
        self.doubles = 0

    def random(self, size=None, out=None):
        keys = super().random(size, out=out)
        self.doubles += np.size(keys)
        return keys


class TestRssdRowRead:
    """The rssd kernel's row read, which draws a block's bad rows and
    only the good rows that decide it, with one good row in the first
    read or the default count, against the full-matrix path."""

    @pytest.fixture(params=[1, designs._RSSD_FIRST_GOOD],
                    ids=["one-good-row", "default"])
    def first(self, request, monkeypatch):
        monkeypatch.setattr(designs, "_RSSD_FIRST_GOOD", request.param)
        return request.param

    # at the default count these two are TestTrialKernel's rssd cases
    ONE_GOOD_ROW = pytest.mark.parametrize("first", [1], indirect=True,
                                           ids=["one-good-row"])

    @pytest.mark.parametrize("block_entries", [None, 1, 10, 64])
    @ONE_GOOD_ROW
    def test_matches_full_matrix_path(self, first, monkeypatch,
                                      block_entries):
        _small_blocks(monkeypatch, block_entries)
        _check_kernel_cases("rssd")

    @pytest.mark.parametrize("block_entries", [None, 5])
    @ONE_GOOD_ROW
    def test_matches_on_tied_keys(self, first, monkeypatch, block_entries):
        _small_blocks(monkeypatch, block_entries)
        _check_tied_keys("rssd")

    def test_every_end_is_reached(self, first):
        # the verdicts of the same trials are checked above and in
        # TestTrialKernel.test_matches_at_benchmark_shapes
        ends = set()
        for c, (spec, d) in enumerate(_kernel_cases("rssd")):
            for t in range(3):
                ends |= _rssd_ends(spec, d, substream(c, t), first)
        for m in BENCH_M["rssd"]:
            for t in range(12):
                ends |= _rssd_ends(_rssd_bench_spec(m), 3, substream(m, t),
                                   first)
        assert ends == {"count", "later", "argpartition"}

    def test_matches_at_benchmark_shapes(self, first):
        outcomes = set()
        for m in BENCH_M["rssd"]:
            spec = _rssd_bench_spec(m)
            for t in range(4):
                disjunct, _ = reference_trial(spec, 3, substream(m, t, first))
                assert trial_disjunct(spec, 3, substream(m, t, first)) == (
                    disjunct), (spec, t)
                outcomes.add(disjunct)
        assert outcomes == {True, False}

    def test_matches_over_two_blocks(self, first):
        # at the real block size, 133 rows make blocks of 30,075 columns
        spec = _rssd_bench_spec(133, n=4 * 10 ** 4)
        assert len(list(designs._column_blocks(133, spec.n))) == 2
        for t in range(4):
            disjunct, _ = reference_trial(spec, 3, substream(spec.n, t))
            assert trial_disjunct(spec, 3, substream(spec.n, t)) == disjunct

    def test_covered_trial_ends_at_row_m(self, first, monkeypatch):
        # each block leaves the stream where the full matrix's draws do,
        # so the next block reads its own keys
        _small_blocks(monkeypatch, 64)
        covered = 0
        for c, (spec, d) in enumerate(_kernel_cases("rssd")):
            for t in range(3):
                rng = substream(c, t)
                if d == spec.n or not trial_disjunct(spec, d, rng):
                    continue
                fresh = substream(c, t)
                fresh.bit_generator.advance(spec.m * spec.n)
                assert rng.bit_generator.state == fresh.bit_generator.state, (
                    spec, d, t)
                covered += 1
        assert covered > 200


def test_rssd_reads_at_most_three_quarters_of_the_keys():
    # at the mc benchmark's shape; about 64% are drawn
    spec = _rssd_bench_spec(133)
    doubles = 0
    for t in range(12):
        rng = Tally(substream(133, t))
        disjunct, _ = reference_trial(spec, 3, substream(133, t))
        assert trial_disjunct(spec, 3, rng) == disjunct, t
        doubles += rng.doubles
    assert doubles <= 0.75 * 12 * spec.m * spec.n


def _rrsd_bench_spec(m, n=10 ** 4):
    return DesignSpec("rrsd", n, m, optimal_param("rrsd", n, 3))


def test_rrsd_failing_trial_ends_at_row_m():
    # the generator stands where the full matrix's m*n draws leave it,
    # whichever row the head-first read took last (at r = 0 and r = n
    # neither draws)
    failed = 0
    cases = [(spec, d, (c, t))
             for c, (spec, d) in enumerate(_kernel_cases("rrsd"))
             for t in range(3)]
    cases += [(_rrsd_bench_spec(m), 3, (m, t))
              for m in BENCH_M["rrsd"] for t in range(12)]
    for spec, d, path in cases:
        rng = substream(*path)
        if (d == spec.n or spec.param in (0, spec.n)
                or trial_disjunct(spec, d, rng)):
            continue
        fresh = substream(*path)
        fresh.bit_generator.advance(spec.m * spec.n)
        assert rng.bit_generator.state == fresh.bit_generator.state, (
            spec, d, path)
        failed += 1
    assert failed > 100


def test_rrsd_reads_at_most_a_quarter_of_the_keys():
    # at the mc benchmark's shape; about 21% are drawn, 31 of 149 rows
    # and the heads of the others
    spec = _rrsd_bench_spec(149)
    doubles = 0
    for t in range(12):
        rng = Tally(substream(149, t))
        disjunct, _ = reference_trial(spec, 3, substream(149, t))
        assert trial_disjunct(spec, 3, rng) == disjunct, t
        doubles += rng.doubles
    assert doubles <= 0.25 * 12 * spec.m * spec.n


def _rssd_by_enumeration(n, m, s, d) -> float:
    """The share of all rssd matrices that are disjunct for their first
    d columns, counted one matrix at a time."""
    columns = [set(c) for c in itertools.combinations(range(m), s)]
    disjunct = 0
    for picks in itertools.product(columns, repeat=n):
        bad = set().union(*picks[:d])
        disjunct += all(not c <= bad for c in picks[d:])
    return disjunct / len(columns) ** n


def _binomial_two_sided(k, trials, p) -> float:
    """The two-sided p-value of k successes in trials with success
    probability p: the mass of every count no likelier than k."""
    def ln_pmf(i):
        return (math.lgamma(trials + 1) - math.lgamma(i + 1)
                - math.lgamma(trials - i + 1)
                + i * math.log(p) + (trials - i) * math.log1p(-p))

    at = ln_pmf(k) + 1e-7  # rounding slack, as scipy's binomtest has
    return min(1.0, math.fsum(math.exp(x) for i in range(trials + 1)
                              if (x := ln_pmf(i)) <= at))


def _check_run_trials(points, seed):
    """run_trials at each (model, n, d, m) point, 1,000 trials at a
    fixed seed, against the exact success probability, by a two-sided
    binomial test at a family-wise level of 10^-6: a kernel that draws
    from the model fails it about once in a million seeds."""
    for model, n, d, m in points:
        spec = spec_at(model, n, d, m)
        exact = EXACT[model](spec, d)
        assert 0.3 < exact < 0.9
        rep = run_trials(spec, d, 1000, seed)
        p_value = _binomial_two_sided(rep.disjunct_successes, 1000, exact)
        assert p_value > 1e-6 / len(points), (spec, d, rep.frequency, exact)


def _rid_exact(spec, d):
    return rid_success_probability(spec.n, spec.m, spec.param, d)


def _utdq_exact(spec, d):
    q = int(spec.param)
    return utdq_success_probability(spec.n, spec.m // q, q, d)


def _rssd_exact(spec, d):
    return rssd_success_probability(spec.n, spec.m, int(spec.param), d)


def _rrsd_exact(spec, d):
    return rrsd_success_probability(spec.n, spec.m, int(spec.param), d)


EXACT = {"rid": _rid_exact, "rrsd": _rrsd_exact, "rssd": _rssd_exact,
         "utdq": _utdq_exact}


class TestRssdSuccessProbability:
    """lemmas.rssd_success_probability, the exact chance that an rssd
    design is disjunct, against enumeration and the Monte Carlo."""

    @pytest.mark.parametrize("n, m, s, d", [
        (3, 4, 2, 1), (4, 4, 1, 2), (4, 5, 2, 2), (5, 4, 2, 2), (5, 5, 2, 3),
        (4, 4, 0, 1), (4, 4, 4, 1), (3, 3, 1, 3)])
    def test_matches_enumeration(self, n, m, s, d):
        assert rssd_success_probability(n, m, s, d) == pytest.approx(
            _rssd_by_enumeration(n, m, s, d), abs=1e-12)

    def test_matches_run_trials_on_the_row_read(self):
        # three points with P in 0.64-0.78
        _check_run_trials([("rssd", 1000, 2, 31), ("rssd", 1000, 3, 47),
                           ("rssd", 2000, 2, 36)], 2027)


def _rid_by_enumeration(n, m, p, d) -> float:
    """The probability mass of the rid matrices that are disjunct for
    their first d columns, summed one matrix at a time."""
    rows = [(row, math.prod(p if x == 0 else 1.0 - p for x in row))
            for row in itertools.product((0, 1), repeat=n)]
    disjunct = 0.0
    for picks in itertools.product(rows, repeat=m):
        good = [row for row, _ in picks if not any(row[:d])]
        if all(any(row[j] for row in good) for j in range(d, n)):
            disjunct += math.prod(w for _, w in picks)
    return disjunct


def _utdq_by_enumeration(n, m_prime, q, d) -> float:
    """The share of all q-ary utdq matrices whose expansion is disjunct
    for its first d columns, counted one matrix at a time: column j is
    covered by a row whose entry there is none of its defective ones."""
    rows = list(itertools.product(range(q), repeat=n))
    disjunct = 0
    for picks in itertools.product(rows, repeat=m_prime):
        disjunct += all(any(row[j] not in row[:d] for row in picks)
                        for j in range(d, n))
    return disjunct / len(rows) ** m_prime


class TestRidSuccessProbability:
    """lemmas.rid_success_probability against enumeration and the
    Monte Carlo."""

    @pytest.mark.parametrize("n, m, p, d", [
        (3, 3, 0.5, 1), (4, 3, 0.3, 2), (3, 4, 0.7, 1), (4, 2, 0.6, 3),
        (4, 3, 0.8, 1), (3, 0, 0.5, 1), (3, 2, 0.4, 3)])
    def test_matches_enumeration(self, n, m, p, d):
        assert rid_success_probability(n, m, p, d) == pytest.approx(
            _rid_by_enumeration(n, m, p, d), abs=1e-12)

    def test_matches_run_trials(self):
        # both points read rows head first (n = _RID_SKIP_MIN_N)
        _check_run_trials([("rid", 1000, 2, 44), ("rid", 1000, 3, 64)],
                          2028)


def _rrsd_by_enumeration(n, m, r, d) -> float:
    """The share of all rrsd matrices (m rows, each one of the C(n, r)
    weight-r rows) that are disjunct for their first d columns, counted
    one matrix at a time."""
    rows = list(itertools.combinations(range(n), r))
    disjunct = 0
    for picks in itertools.product(rows, repeat=m):
        good = set().union(*(row for row in picks if min(row, default=n) >= d))
        disjunct += len(good) == n - d
    return disjunct / len(rows) ** m


class TestRrsdSuccessProbability:
    """lemmas.rrsd_success_probability against enumeration and the
    Monte Carlo."""

    @pytest.mark.parametrize("n, m, r, d", [
        (3, 2, 1, 1), (4, 3, 2, 1), (4, 3, 1, 2), (5, 3, 2, 2), (5, 4, 2, 1),
        (6, 3, 3, 2), (4, 2, 0, 1), (4, 2, 4, 1), (4, 2, 3, 2), (3, 0, 1, 1)])
    def test_matches_enumeration(self, n, m, r, d):
        assert rrsd_success_probability(n, m, r, d) == pytest.approx(
            _rrsd_by_enumeration(n, m, r, d), abs=1e-12)

    def test_matches_run_trials(self):
        _check_run_trials([("rrsd", 1000, 2, 43), ("rrsd", 1000, 3, 60)],
                          2029)


class TestUtdqSuccessProbability:
    """lemmas.utdq_success_probability against enumeration and the
    Monte Carlo."""

    @pytest.mark.parametrize("n, m_prime, q, d", [
        (3, 2, 2, 1), (4, 3, 2, 2), (3, 2, 3, 1), (4, 2, 3, 2),
        (4, 1, 3, 3), (3, 0, 2, 1), (4, 2, 2, 3)])
    def test_matches_enumeration(self, n, m_prime, q, d):
        assert utdq_success_probability(n, m_prime, q, d) == pytest.approx(
            _utdq_by_enumeration(n, m_prime, q, d), abs=1e-12)

    def test_matches_run_trials(self):
        _check_run_trials([("utdq", 1000, 2, 36), ("utdq", 1000, 3, 55)],
                          2028)


@pytest.mark.parametrize("model, n, d, delta", [
    (model, n, d, delta) for model in ("rid", "rssd", "utdq")
    for n, d, delta in ((1000, 2, 0.1), (10 ** 4, 3, 0.05))
] + [("rrsd", 1000, 2, 0.1)])
def test_upper_bound_m_meets_its_delta(model, n, d, delta):
    # the exact success probability at the sized m and rate-optimal
    # parameter, where criterion 05 checks the claim by Monte Carlo; rrsd
    # only at n = 10^3, since its chain's step matrix has (n - d)^2 entries
    spec = spec_at(model, n, d, upper_bound_m(model, n, d, delta).m)
    exact = EXACT[model](spec, d)
    assert exact >= 1.0 - delta, (spec, exact)


def test_words_at_reads_the_stream_by_position():
    # from mid-row, gaps on both sides of _DRAW_GAP and past it, each
    # long gap next to a short one
    gaps = [0, 1, designs._DRAW_GAP, designs._DRAW_GAP + 1, 10 ** 4]
    start = at = 37
    positions = []
    for gap in gaps + gaps[::-1]:
        positions.append(at + gap)
        at += gap + 1
    rng = substream(28, 0)
    rng.bit_generator.advance(start)
    words = list(designs._words_at(rng.bit_generator, start, positions))
    end = positions[-1] + 1
    assert all(type(w) is int for w in words)  # compared as Python ints
    assert words == substream(28, 0).bit_generator.random_raw(end)[
        positions].tolist()
    assert [(w >> 11) * 2.0 ** -53 for w in words] == substream(
        28, 0).random(end)[positions].tolist()
    fresh = substream(28, 0)
    fresh.bit_generator.advance(end)
    assert rng.bit_generator.state == fresh.bit_generator.state


class TestWordLayout:
    """The PCG64 layout the rid kernel reads words by: Generator.random's
    double is (random_raw() >> 11) * 2^-53 of the same word, so a word w
    is >= high = ceil(p * 2^53) << 11 exactly when its double is >= p.
    Under every numpy the package supports; a numpy that changes
    PCG64's next_double fails here first."""

    def test_random_is_a_word_shifted(self):
        # scalar and then bulk draws of each kind from one state
        raw = np.random.PCG64(41)
        words = [raw.random_raw() for _ in range(1000)]
        words += raw.random_raw(1000).tolist()
        doubles = np.random.Generator(np.random.PCG64(41))
        values = [doubles.random() for _ in range(1000)]
        values += doubles.random(1000).tolist()
        assert values == [(w >> 11) * 2.0 ** -53 for w in words]
        assert doubles.bit_generator.state == raw.state

    def test_threshold_matches_the_double_compare(self):
        grid = [1, 3, 2 ** 51, 2 ** 52 + 1, 2 ** 53 - 1]  # p * 2^53
        ps = [k * 2.0 ** -53 for k in grid]
        ps += [math.nextafter(p, x) for p in ps for x in (0.0, 1.0)]
        ps += [2.0 ** -60, 1.0 - 2.0 ** -53]
        ps += [math.exp(-1.0 / d) for d in range(1, 6)]
        rs = np.random.default_rng(43)
        for p in (p for p in ps if 0.0 < p < 1.0):  # a rid spec's range
            high = math.ceil(p * 2.0 ** 53) << 11
            assert high < 2 ** 64
            near = [high + k for k in (-2 ** 11 - 1, -2 ** 11, -1, 0, 1,
                                       2 ** 11 - 1, 2 ** 11)]
            words = [0, 2 ** 64 - 1] + [w for w in near if 0 <= w < 2 ** 64]
            words += rs.integers(0, 2 ** 64, 200, dtype=np.uint64).tolist()
            for w in words:
                assert (w >= high) == ((w >> 11) * 2.0 ** -53 >= p), (p, w)


# rid at n = 10^4: the sized m at d = 2 and 3, and two thirds of the
# latter, where trials fail
RID_LONG = [(10 ** 4, 2, 70), (10 ** 4, 3, 149), (10 ** 4, 3, 99)]
# a failing rid trial (spec, d, substream path) whose good rows after the
# default switch read up to column n, so no advance ends them
RID_LAST_COLUMN = (DesignSpec("rid", 1037, 60, math.exp(-0.5)), 2,
                   (1037, 1234))


def _rid_cases():
    """(spec, d, substream path) on both rid row-length paths."""
    for c, (spec, d) in enumerate(_kernel_cases("rid")):
        for t in range(3):
            yield spec, d, (c, t)
    for n, d, m in RID_LONG:
        for t in range(4):
            yield DesignSpec("rid", n, m, math.exp(-1.0 / d)), d, (n + m, t)
    yield RID_LAST_COLUMN


def _reads_last_column(spec, d, seed, ratio) -> bool:
    """Whether a good row after the switch at ratio finds column n still
    uncovered, read off the full matrix."""
    n = spec.n
    covered = np.zeros(n, dtype=bool)
    covered[:d] = True
    sparse = False
    for row in generate(spec, seed).to_dense().astype(bool):
        if row[:d].any():
            continue
        if sparse and not covered[-1]:
            return True
        covered |= row
        sparse = (n - np.count_nonzero(covered)) * ratio <= n
    return False


class TestRidSparsePhase:
    """The rid kernel's late good rows, which read only the columns still
    uncovered, with the switch to them at its default, forced at the
    first good row or never made."""

    @pytest.fixture(params=[None, 1, math.inf],
                    ids=["default", "first-good-row", "never"])
    def switch(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(designs, "_RID_SPARSE_RATIO", request.param)

    def test_matches_full_matrix_path(self, switch):
        outcomes = set()
        for spec, d, path in _rid_cases():
            disjunct, _ = reference_trial(spec, d, substream(*path))
            assert trial_disjunct(spec, d, substream(*path)) == disjunct, (
                spec, d, path)
            outcomes.add(disjunct)
        assert outcomes == {True, False}

    def test_failing_trial_ends_at_row_m(self, switch):
        # the generator stands where the full matrix's m*n draws leave it
        failed = 0
        for spec, d, path in _rid_cases():
            rng = substream(*path)
            if trial_disjunct(spec, d, rng):
                continue
            fresh = substream(*path)
            fresh.bit_generator.advance(spec.m * spec.n)
            assert rng.bit_generator.state == fresh.bit_generator.state, (
                spec, d, path)
            failed += 1
        assert failed > 100

    @pytest.mark.parametrize("draw_gap", [None, 0],
                             ids=["default-gap", "no-gap"])
    def test_matches_on_tied_keys(self, monkeypatch, draw_gap):
        # every row head first and, from the first good row on, only the
        # uncovered columns' entries, so each test of a key against p
        # (head word, whole row, left columns' words) meets keys equal to
        # p; with no gap, _words_at advance()s to every word it reads
        monkeypatch.setattr(designs, "_RID_SKIP_MIN_N", 0)
        monkeypatch.setattr(designs, "_RID_SPARSE_RATIO", 1)
        if draw_gap is not None:
            monkeypatch.setattr(designs, "_DRAW_GAP", draw_gap)
        assert _check_tied_keys("rid") == {"_trial_rid", "_words_at"}

    def test_matches_on_keys_just_below_p(self, monkeypatch):
        # p = 0.25 + 2^-54 is off the 2^-53 grid, and Coarse's key 0.25,
        # a quarter of the entries, is the largest double below it: its
        # word floor(p * 2^53) << 11 is 2^11 below high = ceil(p * 2^53)
        # << 11, so the entry is 0, as the generator's double compare
        # says; a threshold taken with floor would call it 1.  Read at
        # the head words and the left columns' words
        monkeypatch.setattr(designs, "_RID_SKIP_MIN_N", 0)
        monkeypatch.setattr(designs, "_RID_SPARSE_RATIO", 1)
        p = math.nextafter(0.25, 1.0)
        assert math.floor(p * 2.0 ** 53) < p * 2.0 ** 53
        assert _check_tied_keys("rid", (p,)) == {"_trial_rid", "_words_at"}

    def test_last_column_case(self):
        spec, d, path = RID_LAST_COLUMN
        assert spec.n >= designs._RID_SKIP_MIN_N
        assert _reads_last_column(spec, d, substream(*path),
                                  designs._RID_SPARSE_RATIO)
        assert not reference_trial(spec, d, substream(*path))[0]


class TestFindMinM:
    def test_deterministic_and_self_consistent(self):
        a = find_min_m("rid", 40, 1, 0.8, 50, 31337)
        b = find_min_m("rid", 40, 1, 0.8, 50, 31337)
        assert a == b
        assert a.m_star >= 1
        accepted = {p.m: p.accepted for p in a.probes}
        assert accepted[a.m_star] is True
        below = [m for m in accepted if m < a.m_star]
        assert all(not accepted[m] for m in below)

    def test_probe_seeds_depend_only_on_m(self):
        # the same probe size must see the same matrices in any search
        res = find_min_m("rid", 40, 1, 0.8, 50, 777)
        seeds = {p.m: derive_seed(777, p.m) for p in res.probes}
        assert len(set(seeds.values())) == len(seeds)

    def test_utdq_steps_stay_on_blocks(self):
        res = find_min_m("utdq", 50, 2, 0.7, 40, 5150)
        q = 4  # optimal alphabet at d=2
        assert res.m_star % q == 0
        assert all(p.m % q == 0 for p in res.probes)

    def test_unreachable_target_is_infeasible(self, monkeypatch):
        # 40 trials can never push the lower Wilson bound to 0.969
        monkeypatch.setattr(sim, "SEARCH_CAP", 64)
        with pytest.raises(InfeasibleError):
            find_min_m("rid", 30, 2, 0.999, 40, 11)

    def test_search_stops_at_the_cap(self, monkeypatch):
        # 40 trials can reach 0.9, but not with m <= 4 tests
        monkeypatch.setattr(sim, "SEARCH_CAP", 4)
        with pytest.raises(InfeasibleError, match=r"no m <= 4 .* \(3 probes\)"):
            find_min_m("rid", 30, 2, 0.9, 40, 11)

    def test_target_validated(self):
        with pytest.raises(ParameterError):
            find_min_m("rid", 30, 2, 1.0, 40, 11)

    def test_search_starts_one_pool(self, inline_pool):
        res = find_min_m("rid", 40, 1, 0.8, 50, 31337, jobs=3)
        assert len(res.probes) > 1
        assert inline_pool == [3]
        assert res == find_min_m("rid", 40, 1, 0.8, 50, 31337)

    def test_nothing_left_running_after_a_search_raises(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(sim, "SEARCH_CAP", 4)
            with pytest.raises(InfeasibleError, match=r"\(3 probes\)"):
                find_min_m("rid", 30, 2, 0.9, 40, 11, jobs=2)
        assert multiprocessing.active_children() == []
        # a pool left registered would be shut down: this sweep would fail
        assert (run_sweep("rid", 1, [30, 90], 0.75, 40, 12, jobs=2)
                == run_sweep("rid", 1, [30, 90], 0.75, 40, 12))


def _chi2_sf(x: float, df: int) -> float:
    """Pr[chi-squared with df degrees of freedom >= x]: the regularized
    upper gamma Q(df / 2, x / 2), from Q(1/2, h) = erfc(sqrt(h)) or
    Q(1, h) = exp(-h) by Q(a + 1, h) = Q(a, h) + h^a exp(-h) / Gamma(a + 1)."""
    h = x / 2
    if h <= 0:
        return 1.0
    a, q = (0.5, math.erfc(math.sqrt(h))) if df % 2 else (1.0, math.exp(-h))
    while a < df / 2:
        q += math.exp(a * math.log(h) - h - math.lgamma(a + 1))
        a += 1
    return q


def test_chi2_sf_at_known_quantiles():
    # the 0.95 and 0.999 quantiles of chi-squared tables
    for x, df, want in [(3.841459, 1, 0.05), (5.991465, 2, 0.05),
                        (11.070498, 5, 0.05), (22.457744, 6, 0.001),
                        (24.321886, 7, 0.001)]:
        assert _chi2_sf(x, df) == pytest.approx(want, rel=1e-5)


def _search_fit(model, n, d, target, trials, seeds) -> tuple:
    """find_min_m's answers over seeds against lemmas.search_law, by a
    chi-squared test: consecutive m are pooled until each bin expects at
    least 5 searches, a short tail joining the last bin.  Returns the
    p-value and the bins' tops, observed and expected counts."""
    law = search_law(model, n, d, target, trials)
    tops, expected, mass = [], [], 0.0
    for m in sorted(law):
        mass += law[m]
        if mass * len(seeds) >= 5:
            tops.append(m)
            expected.append(mass * len(seeds))
            mass = 0.0
    tops[-1] = max(law)
    expected[-1] += mass * len(seeds)
    observed = [0] * len(tops)
    for seed in seeds:
        m_star = find_min_m(model, n, d, target, trials, seed).m_star
        assert m_star in law, m_star
        observed[next(i for i, top in enumerate(tops) if m_star <= top)] += 1
    chi2 = math.fsum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return _chi2_sf(chi2, len(tops) - 1), tops, observed, expected


class TestSearchLaw:
    """lemmas.search_law, the exact law of find_min_m's answer for rid
    and utdq with independent probes, against find_min_m."""

    @pytest.mark.parametrize("n, trials", [(100, 100), (100, 200),
                                           (1000, 200), (10 ** 5, 200)])
    def test_sums_to_one(self, n, trials):
        law = search_law("rid", n, 2, 0.9, trials)
        assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(w > 0 for w in law.values())

    @pytest.mark.parametrize("n, d, trials", [(30, 2, 100), (100, 3, 100),
                                              (1000, 3, 200)])
    def test_utdq_sums_to_one(self, n, d, trials):
        # every m is a whole number of q-ary rows, q = utdq_q_star(d)
        law = search_law("utdq", n, d, 0.9, trials)
        q = theory.utdq_q_star(d)[0]
        assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(w > 0 and m % q == 0 for m, w in law.items())

    def test_criterion_06_failure_chance(self):
        # the sweep's three n have evenly spaced logs, so its slope is
        # (m*(10^5) - m*(10^3)) / (2 ln 100), from two independent searches
        low, high = (search_law("rid", n, 2, 0.9, 200)
                     for n in (1000, 10 ** 5))
        span = 2 * math.log(100)
        below = sum(a * b for m1, a in low.items() for m2, b in high.items()
                    if (m2 - m1) / span < 2.04)
        above = sum(a * b for m1, a in low.items() for m2, b in high.items()
                    if (m2 - m1) / span > 3.40)
        assert 0.0425 < below + above < 0.0435
        assert below < 1e-4

    def test_find_min_m_follows_the_law(self):
        # 100 searches at n = 100 (seeds 370000-370099, fixed before the
        # first run) against the law, at level 10^-3
        fit = _search_fit("rid", 100, 2, 0.9, 100, range(370000, 370100))
        assert fit[0] > 1e-3, fit

    def test_find_min_m_follows_the_utdq_law(self):
        # 150 searches at n = 100, d = 3 (q = 5; seeds 380000-380149,
        # fixed before the first run) against the law, at level 10^-3
        fit = _search_fit("utdq", 100, 3, 0.9, 100, range(380000, 380150))
        assert fit[0] > 1e-3, fit


class TestSweep:
    def test_sweep_points_and_slope(self):
        results = run_sweep("rid", 1, [30, 120], 0.8, 40, 2718)
        assert [pt.n for pt, _ in results] == [30, 120]
        for pt, search in results:
            assert pt.m_star == search.m_star
        slope = slope_fit([pt for pt, _ in results], 1)
        two_point = (results[1][0].m_star - results[0][0].m_star) / (
            math.log(120) - math.log(30))
        assert slope == pytest.approx(two_point, rel=1e-9)

    @pytest.mark.parametrize("model", ["rid", "utdq"])
    def test_sweep_starts_one_pool(self, inline_pool, model):
        # 40 trials at jobs=3 make chunks of 14, 14 and 12
        team = run_sweep(model, 2, [30, 90], 0.75, 40, 12, jobs=3)
        assert inline_pool == [3]
        assert sum(len(search.probes) for _, search in team) > 2
        assert team == run_sweep(model, 2, [30, 90], 0.75, 40, 12)

    def test_slope_fit_synthetic_line(self):
        d = 2
        # m_star is rounded to an integer, so allow the rounding noise
        pts = [SweepPoint(n, round(3.0 + 6.0 * math.log(n)), 0.9, 100)
               for n in (10**3, 10**4, 10**5)]
        assert slope_fit(pts, d) == pytest.approx(6.0 / d, abs=0.1)

    def test_slope_needs_two_points(self):
        with pytest.raises(ParameterError):
            slope_fit([SweepPoint(100, 10, 0.9, 50)], 1)

    def test_slope_needs_two_distinct_logs(self):
        # 2^60 and 2^60 + 1 are distinct n with one float value and log
        for ns in ((100, 100), (2 ** 60, 2 ** 60 + 1)):
            with pytest.raises(ParameterError, match="distinct n"):
                slope_fit([SweepPoint(n, 10, 0.9, 50) for n in ns], 1)

    def test_slope_fit_loads_no_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, about 18 ms of
        # every sweep; numpy 1.x imports it with numpy itself
        code = ("import sys, numpy\n"
                "before = 'numpy.ma' in sys.modules\n"
                "from gtpool.sim import SweepPoint, slope_fit\n"
                "slope_fit([SweepPoint(n, n // 10, 0.9, 50)"
                " for n in (100, 1000)], 1)\n"
                "print(before, 'numpy.ma' in sys.modules)")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        if before == "True":
            pytest.skip("this numpy imports numpy.ma with numpy")
        assert after == "False"


@pytest.mark.parametrize("search", [
    lambda: find_min_m("bogus", 100, 2, 0.5, 10, 1, jobs=2),
    lambda: run_sweep("bogus", 2, [100, 200], 0.5, 10, 1, jobs=2),
], ids=["find_min_m", "run_sweep"])
def test_unknown_model_refused_before_a_pool(inline_pool, search):
    # a pool forks its workers up front: refuse the model before that
    with pytest.raises(ParameterError, match="unknown model"):
        search()
    assert inline_pool == []


class TestVarianceProbe:
    def test_bound_holds_with_margin(self):
        probe = variance_probe(20, 15, 5, 2, 2000, 90210)
        assert probe.samples == 2000
        assert probe.bound == pytest.approx((1 - 5 / 15) ** 2 * 15)
        assert probe.sample_variance <= 1.1 * probe.bound

    def test_full_columns_have_no_good_rows(self):
        probe = variance_probe(10, 8, 8, 2, 50, 1)
        assert probe.sample_variance == 0.0
        assert probe.bound == 0.0


class TestTransversalCheck:
    def test_exact_matches_hand_formula(self):
        mq = gen_utdq(12, 3, 3, 8)
        d = 2
        prod = 1.0
        for i in range(mq.m):
            symbols = {int(mq.entries[i, j]) for j in range(d)}
            prod *= len(symbols) / mq.q
        want = 1 - (1 - prod) ** (12 - d)
        chk = transversal_prob_check(mq, 12, d, 200, 5)
        assert chk.exact == pytest.approx(want, rel=1e-12)

    def test_empirical_tracks_exact(self):
        mq = gen_utdq(10, 3, 3, 21)
        chk = transversal_prob_check(mq, 10, 2, 4000, 1234)
        assert abs(chk.empirical - chk.exact) <= 4 * chk.stderr + 1e-9


class TestSeedPlumbing:
    def test_derive_seed_is_stable(self):
        assert derive_seed(5, 17) == derive_seed(5, 17)
        assert derive_seed(5, 17) != derive_seed(5, 18)
        assert derive_seed(5, 17) != derive_seed(6, 17)

    def test_substream_reproducible(self):
        a = substream(9, 3).integers(0, 1000, 5)
        b = substream(9, 3).integers(0, 1000, 5)
        assert (a == b).all()

    @pytest.mark.parametrize("seed", [1.5, math.nan, math.inf, -math.inf])
    def test_seed_must_be_whole(self, seed):
        # never rounded: a run with seed 1.5 would report and replay seed 1
        with pytest.raises(ParameterError, match="not a whole number"):
            check_seed(seed)

    def test_fractional_master_seed_refused(self):
        with pytest.raises(ParameterError, match="not a whole number"):
            run_trials(DesignSpec("rid", 40, 12, 0.6), 2, 3, 1.5)

    @pytest.mark.parametrize("seed", [7, np.int64(7), np.uint64(7), 7.0])
    def test_whole_seeds_kept(self, seed):
        assert check_seed(seed) == 7 and type(check_seed(seed)) is int


SPEC = DesignSpec("rid", 40, 12, 0.6)


# never rounded: run_trials at d = 2.5 ran with d = 2 but reported 2.5,
# jobs = 1.5 started two workers, run_sweep read n = 90.5 as 90, and
# generate raised TypeError on a DesignSpec with a fractional or NaN n
# or m
@pytest.mark.parametrize("call", [
    lambda: DesignSpec("rid", math.nan, 5, 0.5),
    lambda: DesignSpec("rid", 10.5, 5, 0.5),
    lambda: DesignSpec("rid", 10, 5.5, 0.5),
    lambda: DesignSpec("rid", 10, math.inf, 0.5),
    lambda: run_trials(SPEC, 2.5, 3, 1),
    lambda: run_trials(SPEC, math.nan, 3, 1),
    lambda: run_trials(SPEC, 2, 2.5, 1),
    lambda: run_trials(SPEC, 2, 3, 1, jobs=1.5),
    lambda: find_min_m("rid", 40.5, 2, 0.9, 40, 1),
    lambda: run_sweep("rid", 2, [30, 90.5], 0.9, 40, 1),
    lambda: trial_disjunct(SPEC, 2.5, 1),
    lambda: is_separable(BitMatrix.from_strings(["10", "01"]), [1], 1.5),
    lambda: designs.upper_bound_m("rid", 1000, 2.5, 0.1),
    lambda: designs.lower_bound_m("rid", 1000.5, 2),
], ids=["n-nan", "n-half", "m-half", "m-inf", "run_trials-d",
        "run_trials-d-nan", "run_trials-trials", "run_trials-jobs",
        "find_min_m-n", "run_sweep-n", "trial_disjunct-d", "is_separable-d",
        "upper_bound_m-d", "lower_bound_m-n"])
def test_non_whole_counts_refused(call):
    with pytest.raises(ParameterError, match="not a whole number"):
        call()


@pytest.mark.parametrize("value", [2, np.int64(2), 2.0],
                         ids=["int", "numpy-int", "float"])
def test_whole_counts_kept(value):
    # an integral float n or m was accepted, then generate raised TypeError
    spec = DesignSpec("rid", 20 * value, 6 * value, 0.6)
    assert spec == SPEC and type(spec.n) is type(spec.m) is int
    assert generate(spec, 1) == generate(SPEC, 1)
    assert run_trials(SPEC, value, 3, 1, jobs=value // 2) == run_trials(
        SPEC, 2, 3, 1)
