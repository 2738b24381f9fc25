import json
import math
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from gtpool import designs, sim
from gtpool.decoding import is_separable
from gtpool.designs import (
    DesignSpec,
    gen_utdq,
    generate,
    optimal_param,
    trial_disjunct,
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

from lemmas import transversal_prob_check, variance_probe


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
    tie at the selection boundary, where argpartition alone decides."""

    def __init__(self, seed, levels=4):
        super().__init__(np.random.PCG64(seed))
        self.levels = levels

    def random(self, size=None, out=None):
        keys = super().random(size, out=out)
        keys[...] = np.floor(keys * self.levels) / self.levels
        return keys


# m at n = 10^4, d = 3: the mc benchmark's sized m, two thirds of it, and
# half of it, where many trials fail
BENCH_M = {"rssd": (133, 88, 66), "rrsd": (149, 99, 74)}


class TestTrialKernel:
    """trial_disjunct against the full-matrix path, trial by trial."""

    @pytest.mark.parametrize("block_entries", [None, 1, 10, 64])
    @pytest.mark.parametrize("model", designs.MODELS)
    def test_matches_full_matrix_path(self, monkeypatch, model, block_entries):
        # small generator blocks and kernel chunks split rows and columns
        # over several draws; an rssd block of 1 or 2 columns (most m at
        # 1, 10 and 64 entries) is narrower than d = 3
        if block_entries is not None:
            monkeypatch.setattr(designs, "_BLOCK_ENTRIES", block_entries)
            monkeypatch.setattr(designs, "_CHUNK_ENTRIES", block_entries)
        outcomes = set()
        for c, (spec, d) in enumerate(_kernel_cases(model)):
            for t in range(3):
                disjunct, decoded = reference_trial(spec, d,
                                                    substream(c, t))
                assert disjunct == decoded, (spec, d, t)
                assert trial_disjunct(spec, d, substream(c, t)) == disjunct, (
                    spec, d, c, t)
                outcomes.add(disjunct)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("model", ["rrsd", "rssd"])
    def test_matches_at_benchmark_shapes(self, model):
        outcomes = set()
        for m in BENCH_M[model]:
            spec = DesignSpec(model, 10 ** 4, m,
                              optimal_param(model, 10 ** 4, 3, m_hint=m))
            for t in range(12):
                disjunct, _ = reference_trial(spec, 3, substream(m, t))
                assert trial_disjunct(spec, 3, substream(m, t)) == disjunct, (
                    spec, t)
                outcomes.add(disjunct)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("block_entries", [None, 5])
    @pytest.mark.parametrize("model", ["rrsd", "rssd"])
    def test_matches_on_tied_keys(self, monkeypatch, model, block_entries):
        # keys on a grid of four values tie at the selection boundary in
        # most rows and columns; the last 100 cases have m >= 256 rows
        if block_entries is not None:
            monkeypatch.setattr(designs, "_BLOCK_ENTRIES", block_entries)
            monkeypatch.setattr(designs, "_CHUNK_ENTRIES", block_entries)
        rs = np.random.default_rng(7)
        outcomes = set()
        for c in range(500):
            n = int(rs.integers(2, 30))
            d = int(rs.integers(1, min(3, n) + 1))
            m = int(rs.integers(0, 30) if c < 400 else rs.integers(256, 700))
            param = int(rs.integers(0, (n if model == "rrsd" else m) + 1))
            spec = DesignSpec(model, n, m, param)
            disjunct, decoded = reference_trial(spec, d, Coarse(c))
            assert disjunct == decoded
            got = trial_disjunct(spec, d, Coarse(c))
            assert got == disjunct, (spec, d, c)
            outcomes.add(disjunct)
        assert outcomes == {True, False}

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

    def test_defective_count_validated(self):
        spec = DesignSpec("rid", 5, 4, 0.5)
        assert trial_disjunct(spec, 5, 0) is True
        for d in (0, 6):
            with pytest.raises(ParameterError):
                trial_disjunct(spec, d, 0)


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
