import functools
import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpool.designs import lower_bound_m
from gtpool.errors import CapacityError, ParameterError
from gtpool import theory
from gtpool.theory import (
    ASYMPTOTIC_CONSTANT,
    CAPACITY_CAP,
    ConstantsRow,
    c_constant,
    entropy,
    ln_p_qd,
    published_deviation_flags,
    r_qdi,
    rssd_alpha_star,
    rssd_objective,
    surjections,
    table1,
    table1_csv,
    utdq_q_star,
    utdq_search_range,
)

from lemmas import (
    ln_p_by_inclusion_exclusion,
    stirling_approx,
    surjections_by_inclusion_exclusion,
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

    @pytest.mark.parametrize("x", [3e-7, 1e-12, 1e-300])
    def test_small_x(self, x):
        # H(x) = x log2(1/x) + (x - x^2/2)/ln2 + O(x^3): the (1 - x) term
        # must not lose x to the rounding of 1 - x
        want = x * math.log2(1 / x) + (x - x * x / 2) / math.log(2)
        assert entropy(x) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0])
    def test_domain(self, x):
        with pytest.raises(ParameterError):
            entropy(x)


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


class TestSurjectionRecurrence:
    # theory builds N(d, i) by the recurrence N(t, i) = i (N(t-1, i) +
    # N(t-1, i-1)); the inclusion-exclusion sum is the oracle

    @pytest.mark.parametrize("d", range(1, CAPACITY_CAP + 1))
    def test_matches_inclusion_exclusion(self, d):
        for i in range(d + 1):
            want = surjections_by_inclusion_exclusion(d, i)
            assert surjections(d, i) == want
            assert theory._surjections_raw(d, i) == \
                theory._surjections_raw(d, d)[:i + 1]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 16, 64, 300])
    @pytest.mark.parametrize("d", [1, 2, 5, 20, 33, 34, 53, 54, 64, 100, 150])
    def test_ln_p_same_bits(self, q, d):
        # d log2 q <= 53 takes the exact-integer branch, above it the
        # log-space one: (2, 53) and (3, 33) sit at the edge of the first,
        # (2, 54) and (3, 34) at the edge of the second
        assert theory._ln_p_any(q, d) == ln_p_by_inclusion_exclusion(q, d)

    def test_small_alphabet_builds_small_numbers(self, monkeypatch):
        # at q = 3 the sum reads N(800, i) for i <= 3 only, and no larger
        # surjection number may be built on the way to them
        tops = []
        raw = theory._surjections_raw.__wrapped__

        def counted(d, top):
            tops.append(top)
            return raw(d, top)

        monkeypatch.setattr(theory, "_surjections_raw", counted)
        monkeypatch.setattr(theory, "_log_surjection_table",
                            theory._log_surjection_table.__wrapped__)
        assert lower_bound_m("utdq", 10**6, 800, q=3).q == 3
        assert tops and max(tops) <= 3


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


def _refined_alpha_star(d, best_k, best_v):
    # rssd_alpha_star's bracket and golden refinement around grid point
    # best_k, whose objective value is best_v
    denom = theory._GRID_POINTS + 1
    grid = best_k / denom
    if best_k == 1:
        # the peak may lie below the grid: bracket ln2/d instead
        lo, mid, hi = (math.log(2) / d * t for t in (0.5, 1.0, 2.0))
    else:
        lo, mid, hi = ((best_k - 1) / denom, grid,
                       min(best_k + 1, theory._GRID_POINTS) / denom)
    want = grid, best_v
    if lo < mid < hi:
        res = theory._golden_max(lambda a: rssd_objective(a, d), lo, mid, hi)
        if res is not None and res[1] >= best_v:
            want = res
    return want


def _walked_alpha_star(d):
    # the grid walk from point 1 to the first point that does not rise
    denom = theory._GRID_POINTS + 1
    best_k, best_v = 1, -1.0
    for k in range(1, theory._GRID_POINTS + 1):
        v = rssd_objective(k / denom, d)
        if v > best_v:
            best_k, best_v = k, v
        else:
            break
    return _refined_alpha_star(d, best_k, best_v)


def _walked_q_star(d):
    # the walk over utdq_search_range(d) from its start to the first rise
    best_q, best_v = None, math.inf
    for q in utdq_search_range(d):
        v = q / (-d * theory._ln_p_any(q, d))
        if v < best_v:
            best_q, best_v = q, v
        elif v > best_v:
            break
    return best_q, best_v


def _counted(monkeypatch, name):
    # the arguments of every call to theory.<name>, which still runs
    calls = []
    fn = getattr(theory, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(theory, name, counted)
    return calls


class TestFirstTurn:
    FALLS = staticmethod(lambda here, after: after <= here)
    RISES = staticmethod(lambda here, after: after > here)

    @staticmethod
    def _turn(values, turned, lo=0, hi=None, max_reads=math.inf):
        reads = []

        def value(i):
            reads.append(i)
            return values[i]

        hi = len(values) - 1 if hi is None else hi
        i, read = theory._first_turn(value, turned, lo, hi)
        assert len(reads) == len(set(reads)), "a point was read twice"
        assert all(lo <= j <= hi for j in reads)
        assert len(reads) <= max_reads
        assert read(i) == values[i]
        return i

    def test_turn_at_the_first_point(self):
        assert self._turn([3, 2, 1, 0], self.FALLS) == 0
        assert self._turn([0, 1, 2, 3], self.RISES) == 0

    def test_plateau_before_a_fall(self):
        # the first point of the plateau turns, as a walk stops there
        assert self._turn([0, 1, 2, 2, 2, 1, 0], self.FALLS) == 2

    def test_plateau_before_a_rise(self):
        # only the plateau's last point turns; utdq_q_star steps back
        assert self._turn([5, 4, 3, 3, 3, 4, 5], self.RISES) == 4

    def test_no_turn_in_range(self):
        assert self._turn(list(range(100)), self.FALLS) == 99
        assert self._turn(list(range(100)), self.FALLS, lo=10, hi=60) == 60

    def test_one_point_range(self):
        assert self._turn([7], self.FALLS) == 0
        assert self._turn([1, 2, 3, 4], self.FALLS, lo=2, hi=2) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 100, 1000])
    def test_every_peak_position(self, n):
        # a rise to the peak at p, then a fall: the turn is p, found in
        # a few reads per doubling of p
        for p in range(n):
            values = [-abs(i - p) for i in range(n)]
            assert self._turn(values, self.FALLS,
                              max_reads=4 * math.log2(p + 1) + 2) == p


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

    @pytest.mark.parametrize("d", [*range(1, theory.CAPACITY_CAP + 1),
                                   5000, 10**5, 4 * 10**5, 10**6])
    def test_grid_scan_matches_full_scan(self, d):
        # the oracle scans the whole grid; rssd_alpha_star looks only for
        # the first point that does not rise
        denom = theory._GRID_POINTS + 1
        best_k, best_v = 1, -1.0
        for k in range(1, theory._GRID_POINTS + 1):
            v = rssd_objective(k / denom, d)
            if v > best_v:
                best_k, best_v = k, v
        assert rssd_alpha_star(d) == _refined_alpha_star(d, best_k, best_v)

    def test_gallop_matches_the_walk(self):
        # every d to 5000 (grid point 1 wins from d = 4,813 on), then
        # log-spaced d to 10^9: the same bits as the walk from point 1
        ds = [*range(1, 5001), *(round(10 ** (x / 8)) for x in range(30, 73))]
        for d in ds:
            assert rssd_alpha_star.__wrapped__(d) == _walked_alpha_star(d), d

    @pytest.mark.parametrize("d", [5000, 10**4, 10**5, 4 * 10**5, 10**6,
                                   10**9])
    def test_alpha_star_below_the_grid(self, d):
        # the peak, near ln2/d, lies below the grid's first point
        alpha, _ = rssd_alpha_star(d)
        assert alpha * d == pytest.approx(math.log(2), rel=1e-2)
        assert c_constant("rssd", d) == pytest.approx(
            ASYMPTOTIC_CONSTANT, abs=1e-3)

    @pytest.mark.parametrize("d", [10**12, 10**14, 10**16])
    def test_alpha_star_far_below_the_grid(self, d):
        # alpha* ~ ln2/d: its entropy terms take x below 2^-20
        alpha, _ = rssd_alpha_star(d)
        assert abs(alpha * d - math.log(2)) < 1e-6

    def test_flat_grid_stops_early(self, monkeypatch):
        # from d ~ 4 * 10^5 every grid value is 0.0; a cold call must not
        # walk all 10^4 points of it
        calls = _counted(monkeypatch, "rssd_objective")
        alpha, _ = rssd_alpha_star.__wrapped__(10**6)
        assert alpha * 10**6 == pytest.approx(math.log(2), rel=1e-2)
        assert len(calls) < 200

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 64, 1000])
    def test_cold_call_reads_few_points(self, d, monkeypatch):
        # a walk from grid point 1 made 5,004, 2,898, 2,061, 702, 147
        # and 52 objective calls; about 50 of these are the refinement's
        calls = _counted(monkeypatch, "rssd_objective")
        rssd_alpha_star.__wrapped__(d)
        assert len(calls) <= 100

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

    def test_gallop_matches_the_walk(self, monkeypatch):
        # the same (q, value) bits as the walk from the range's start,
        # first of tied minima included; both read one memo of the pure
        # _ln_p_any, so the walk pays only for the points it adds
        monkeypatch.setattr(theory, "_ln_p_any",
                            functools.lru_cache(maxsize=None)(
                                theory._ln_p_any))
        for d in [*range(1, 201), 400, 800]:
            assert utdq_q_star.__wrapped__(d) == _walked_q_star(d), d

    def test_first_of_tied_minima(self, monkeypatch):
        # a ratio of powers of two, exact in floats, that falls to 1.0 at
        # q = 8, stays there to q = 14, then rises; as the walk does,
        # utdq_q_star keeps the first of the tied q
        def ratio(q):
            return 2.0 ** max(0, 8 - q, q - 14)

        monkeypatch.setattr(theory, "_ln_p_any",
                            lambda q, d: -q / (d * ratio(q)))
        assert utdq_q_star.__wrapped__(2) == (8, 1.0) == _walked_q_star(2)

    def test_cold_call_reads_few_alphabets(self, monkeypatch):
        # a walk from q = 800 to q* = 1155 made 357 _ln_p_any calls
        calls = _counted(monkeypatch, "_ln_p_any")
        assert utdq_q_star.__wrapped__(800)[0] == 1155
        assert len(calls) <= 60

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

    def test_gap_to_the_limit_shrinks_by_d_1000(self):
        # c_M is the limit in d: at d = 1000 the gaps are about +4.0e-4
        # (utdq) and -3.2e-4 (rssd), against +2.0e-3 and -1.6e-3 at 200
        for model in ("rssd", "utdq"):
            gap = abs(c_constant(model, 1000) - ASYMPTOTIC_CONSTANT)
            assert gap < 1e-3
            assert gap < abs(c_constant(model, 200) - ASYMPTOTIC_CONSTANT)

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
