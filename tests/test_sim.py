import json
import math
from pathlib import Path

import numpy as np
import pytest

from gtpool import designs
from gtpool.designs import DesignSpec, gen_utdq, optimal_param, trial_disjunct
from gtpool.errors import InfeasibleError, ParameterError
from gtpool.rng import derive_seed, substream
from gtpool.sim import (
    SweepPoint,
    find_min_m,
    reference_trial,
    run_sweep,
    run_trials,
    slope_fit,
    transversal_prob_check,
    variance_probe,
    wilson_interval,
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

    @pytest.mark.parametrize("block_entries", [None, 5])
    @pytest.mark.parametrize("model", ["rrsd", "rssd"])
    def test_matches_on_tied_keys(self, monkeypatch, model, block_entries):
        # keys on a grid of four values tie at the selection boundary in
        # most rows and columns, where argpartition alone decides
        if block_entries is not None:
            monkeypatch.setattr(designs, "_BLOCK_ENTRIES", block_entries)
            monkeypatch.setattr(designs, "_CHUNK_ENTRIES", block_entries)

        class Coarse(np.random.Generator):
            def random(self, size=None, out=None):
                keys = super().random(size, out=out)
                keys[...] = np.floor(keys * 4) / 4
                return keys

        rs = np.random.default_rng(7)
        outcomes = set()
        for c in range(400):
            n = int(rs.integers(2, 30))
            d = int(rs.integers(1, min(3, n) + 1))
            m = int(rs.integers(0, 30))
            param = int(rs.integers(0, (n if model == "rrsd" else m) + 1))
            spec = DesignSpec(model, n, m, param)
            disjunct, decoded = reference_trial(spec, d,
                                                Coarse(np.random.PCG64(c)))
            assert disjunct == decoded
            got = trial_disjunct(spec, d, Coarse(np.random.PCG64(c)))
            assert got == disjunct, (spec, d, c)
            outcomes.add(disjunct)
        assert outcomes == {True, False}

    def test_defective_count_validated(self):
        spec = DesignSpec("rid", 5, 4, 0.5)
        assert trial_disjunct(spec, 5, 0) is True
        for d in (0, 6):
            with pytest.raises(ParameterError):
                trial_disjunct(spec, d, 0)


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

    def test_unreachable_target_is_infeasible(self):
        # 40 trials can never push the lower Wilson bound to 0.969
        with pytest.raises(InfeasibleError):
            find_min_m("rid", 30, 2, 0.999, 40, 11, cap=64)

    def test_target_validated(self):
        with pytest.raises(ParameterError):
            find_min_m("rid", 30, 2, 1.0, 40, 11)


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

    def test_slope_fit_synthetic_line(self):
        d = 2
        # m_star is rounded to an integer, so allow the rounding noise
        pts = [SweepPoint(n, round(3.0 + 6.0 * math.log(n)), 0.9, 100)
               for n in (10**3, 10**4, 10**5)]
        assert slope_fit(pts, d) == pytest.approx(6.0 / d, abs=0.1)

    def test_slope_needs_two_points(self):
        with pytest.raises(ParameterError):
            slope_fit([SweepPoint(100, 10, 0.9, 50)], 1)


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
