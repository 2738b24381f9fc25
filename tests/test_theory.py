import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpool.errors import CapacityError, ParameterError
from gtpool import theory
from gtpool.theory import (
    ASYMPTOTIC_CONSTANT,
    ConstantsRow,
    c_constant,
    entropy,
    ln_p_qd,
    log_binomial,
    published_deviation_flags,
    r_qdi,
    rssd_alpha_star,
    rssd_objective,
    stirling_approx,
    surjections,
    table1,
    table1_csv,
    utdq_q_star,
    utdq_search_range,
)


class TestEntropy:
    def test_known_points(self):
        assert entropy(0.5) == 1.0
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0
        assert entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)

    @given(st.floats(0.001, 0.999))
    def test_symmetric(self, x):
        assert entropy(x) == pytest.approx(entropy(1 - x), rel=1e-12)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0])
    def test_domain(self, x):
        with pytest.raises(ParameterError):
            entropy(x)


class TestLogBinomial:
    @given(st.integers(0, 60), st.data())
    def test_matches_exact(self, n, data):
        k = data.draw(st.integers(0, n))
        assert log_binomial(n, k) == pytest.approx(
            math.log(math.comb(n, k)), rel=1e-12)


class TestStirling:
    def test_frozen_value(self):
        assert stirling_approx(20, 0.1) == pytest.approx(
            5.288827602173233, abs=1e-12)

    @pytest.mark.parametrize("n,alpha", [
        (20, 0.1), (50, 0.1), (100, 0.25), (200, 0.5), (400, 0.25),
    ])
    def test_overshoot_within_first_correction(self, n, alpha):
        k = round(alpha * n)
        gap = stirling_approx(n, alpha) - math.log(math.comb(n, k))
        beta = 1 - alpha
        bound = abs(alpha * beta - 1) / (12 * alpha * beta * n)
        assert 0 < gap <= bound + 10 / n**3 + 1e-6

    def test_alpha_must_hit_an_integer(self):
        with pytest.raises(ParameterError):
            stirling_approx(20, 0.123)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_endpoints_rejected(self, alpha):
        with pytest.raises(ParameterError):
            stirling_approx(20, alpha)


def brute_surjections(d, i):
    # count maps [d] -> [i] hitting every value; small d only
    count = 0
    for word in range(i ** d):
        seen = set()
        w = word
        for _ in range(d):
            seen.add(w % i)
            w //= i
        count += len(seen) == i
    return count


class TestSurjections:
    def test_small_table(self):
        assert surjections(4, 2) == 14
        assert surjections(3, 3) == 6
        assert surjections(5, 1) == 1
        assert surjections(2, 3) == 0

    @pytest.mark.parametrize("d", range(1, 6))
    def test_matches_brute_force(self, d):
        for i in range(1, d + 1):
            assert surjections(d, i) == brute_surjections(d, i)

    @pytest.mark.parametrize("q,d", [(q, d) for q in range(2, 7)
                                     for d in range(1, 7)])
    def test_partition_identity(self, q, d):
        # grouping all q^d outcome words by how many symbols they use
        assert sum(r_qdi(q, d, i) for i in range(1, q + 1)) == q ** d

    def test_r_frozen(self):
        assert r_qdi(3, 2, 2) == 6
        assert r_qdi(2, 2, 1) == 2 and r_qdi(2, 2, 2) == 2

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            surjections(65, 2)
        with pytest.raises(CapacityError):
            r_qdi(65, 2, 1)
        with pytest.raises(CapacityError):
            ln_p_qd(2, 65)


class TestCollisionLogProb:
    def test_exact_half_log_two(self):
        assert ln_p_qd(2, 2) == pytest.approx(-math.log(2) / 2, abs=1e-12)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_single_defective_is_uniform(self, q):
        assert ln_p_qd(q, 1) == pytest.approx(-math.log(q), abs=1e-12)

    @pytest.mark.parametrize("q,d", [(q, d) for q in range(2, 9)
                                     for d in range(1, 9)])
    def test_floor_and_ceiling(self, q, d):
        v = ln_p_qd(q, d)
        assert -math.log(q) - 1e-12 <= v <= 0.0
        if d > 1:
            assert v > -math.log(q)

    @pytest.mark.parametrize("q,d", [(2, 3), (3, 2), (4, 4), (7, 5)])
    def test_matches_direct_expectation(self, q, d):
        # brute expectation of ln(i/q) over all q^d outcome words
        total = 0.0
        for word in range(q ** d):
            seen = set()
            w = word
            for _ in range(d):
                seen.add(w % q)
                w //= q
            total += math.log(len(seen) / q)
        assert ln_p_qd(q, d) == pytest.approx(total / q ** d, rel=1e-12)


class TestColumnWeightRate:
    def test_objective_endpoints(self):
        assert rssd_objective(1.0, 3) == 0.0
        # at d=1 the nested-entropy term vanishes and f(alpha) = H(alpha),
        # so the best single-defective rate sits exactly on the
        # information floor
        assert rssd_objective(0.5, 1) == 1.0
        assert c_constant("rssd", 1) == pytest.approx(1 / math.log(2),
                                                      rel=1e-8)

    def test_alpha_star_frozen(self):
        a2, f2 = rssd_alpha_star(2)
        assert a2 == pytest.approx(0.28643340065601963, abs=1e-6)
        assert f2 == pytest.approx(0.38318593632226255, abs=1e-9)
        a3, f3 = rssd_alpha_star(3)
        assert a3 == pytest.approx(0.2027683846412477, abs=1e-6)
        assert f3 == pytest.approx(0.24545607834057087, abs=1e-9)

    @pytest.mark.parametrize("d, pin", [
        # d=1 is flat around 1/2: no valid golden bracket, grid point kept
        (1, (0.49995000499950004, 0.9999999927879673)),
        (2, (0.28643340065601963, 0.38318593632226255)),
        (3, (0.2027683846412477, 0.24545607834057087)),
        (10, (0.06655996982026142, 0.0704379822060795)),
        (64, (0.010761195988985166, 0.01085660538428189)),
        (200, (0.003458620939507616, 0.0034684016492070313)),
    ])
    def test_alpha_star_pinned_bits(self, d, pin):
        # recorded from scipy's minimize_scalar(method="golden")
        assert rssd_alpha_star(d) == pin

    @pytest.mark.parametrize("d", range(1, theory.CAPACITY_CAP + 1))
    def test_grid_scan_matches_full_scan(self, d):
        # the oracle scans the whole grid; rssd_alpha_star stops at the
        # first fall
        denom = theory._GRID_POINTS + 1
        best_k, best_v = 1, -1.0
        for k in range(1, theory._GRID_POINTS + 1):
            v = rssd_objective(k / denom, d)
            if v > best_v:
                best_k, best_v = k, v
        lo = max(best_k - 1, 1) / denom
        mid = best_k / denom
        hi = min(best_k + 1, theory._GRID_POINTS) / denom
        want = mid, best_v
        if lo < mid < hi:
            res = theory._golden_max(lambda a: rssd_objective(a, d),
                                     lo, mid, hi)
            if res is not None and res[1] >= best_v:
                want = res
        assert rssd_alpha_star(d) == want

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_star_beats_neighbours(self, d):
        a, f = rssd_alpha_star(d)
        assert f >= rssd_objective(a + 1e-4, d) - 1e-12
        assert f >= rssd_objective(a - 1e-4, d) - 1e-12


class TestQSearch:
    def test_range_bounds(self):
        assert utdq_search_range(2) == range(2, 41)
        assert utdq_search_range(5) == range(5, 101)
        assert utdq_search_range(1).start == 2

    def test_frozen_optima(self):
        q2, v2 = utdq_q_star(2)
        assert (q2, v2) == (4, pytest.approx(2.3083120654223417, abs=1e-9))
        q3, v3 = utdq_q_star(3)
        assert (q3, v3) == (5, pytest.approx(2.224021107744281, abs=1e-9))

    @pytest.mark.parametrize("d, pin", [
        (1, (3, 2.730717679880512)),
        (2, (4, 2.3083120654223417)),
        (3, (5, 2.224021107744281)),
        (10, (15, 2.1223229466175377)),
        (64, (93, 2.087665376203058)),
        (200, (289, 2.083381236693471)),
    ])
    def test_q_star_pinned_bits(self, d, pin):
        # recorded from the scan over the whole of utdq_search_range(d)
        assert utdq_q_star(d) == pin

    @pytest.mark.parametrize("d", range(1, 33))
    def test_star_is_argmin_over_range(self, d):
        # the oracle scans the whole range; utdq_q_star stops at the
        # first rise
        q_star, v_star = utdq_q_star(d)
        for q in utdq_search_range(d):
            v = q / (-d * theory._ln_p_any(q, d))
            assert v_star <= v + 1e-12


class TestConstants:
    @pytest.mark.parametrize("d", range(1, 11))
    def test_independent_models_are_e(self, d):
        assert c_constant("rid", d) == math.e
        assert c_constant("rrsd", d) == math.e

    def test_frozen_d2(self):
        assert c_constant("rssd", 2) == pytest.approx(1.8824999877809256,
                                                      abs=1e-9)
        assert c_constant("utdq", 2) == pytest.approx(2.3083120654223417,
                                                      abs=1e-9)

    def test_large_d_approaches_shared_limit(self):
        for model in ("rssd", "utdq"):
            c = c_constant(model, 200)
            assert abs(c - ASYMPTOTIC_CONSTANT) / ASYMPTOTIC_CONSTANT < 0.05

    def test_nothing_beats_the_information_floor(self):
        floor = 1.0 / math.log(2)
        for d in (1, 2, 5, 20):
            for model in ("rid", "rrsd", "rssd", "utdq"):
                assert c_constant(model, d) >= floor - 1e-9


class TestTable:
    def test_rows_and_asymptote(self):
        rows = table1(4)
        assert [row.d for row in rows] == [2, 3, 4, None]
        tail = rows[-1]
        assert tail.rssd == tail.utdq == ASYMPTOTIC_CONSTANT
        assert tail.rssd_alpha is None and tail.utdq_q is None

    def test_csv_shape(self):
        text = table1_csv(table1(3))
        lines = text.splitlines()
        assert lines[0] == ("d,rid,rrsd,rssd,rssd_alpha,utdq,utdq_q,"
                            "rssd_published,utdq_published,flags")
        assert lines[1].startswith("2,2.718282,2.718282,")
        assert lines[-1].startswith("inf,")
        assert text.endswith("\n")

    def test_dmax_validated(self):
        with pytest.raises(ParameterError):
            table1(1)
        with pytest.raises(ParameterError):
            table1(65)

    def test_no_flags_through_ten(self):
        for row in table1(10):
            assert published_deviation_flags(row) == []

    def test_flag_fires_on_large_deviation(self):
        row = ConstantsRow(d=2, rid=math.e, rrsd=math.e,
                           rssd=1.95 + 0.2, rssd_alpha=0.28,
                           utdq=2.417, utdq_q=4)
        assert published_deviation_flags(row) == ["rssd"]

    def test_row_floor_validated(self):
        with pytest.raises(ParameterError):
            ConstantsRow(d=2, rid=1.0, rrsd=math.e, rssd=2.0,
                         rssd_alpha=0.3, utdq=2.3, utdq_q=4)
