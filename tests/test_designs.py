import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpool import designs, matrices, theory
from gtpool.designs import (
    DesignSpec,
    gen_rid,
    gen_rrsd,
    gen_rssd,
    gen_utdq,
    generate,
    lower_bound_m,
    optimal_param,
    upper_bound_m,
)
from gtpool.errors import DimensionError, ParameterError
from gtpool.matrices import QaryMatrix, _RowBlocks, expand_qary, write_matrix


class TestDesignSpec:
    def test_param_ranges(self):
        with pytest.raises(ParameterError):
            DesignSpec("rid", 10, 5, 0.0)
        with pytest.raises(ParameterError):
            DesignSpec("rid", 10, 5, 1.0)
        with pytest.raises(ParameterError):
            DesignSpec("rrsd", 10, 5, 11)
        with pytest.raises(ParameterError):
            DesignSpec("rssd", 10, 5, 6)
        with pytest.raises(ParameterError):
            DesignSpec("utdq", 10, 5, 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("model", ["rrsd", "rssd", "utdq"])
    def test_integer_param_must_be_whole(self, model, value):
        with pytest.raises(ParameterError):
            DesignSpec(model, 10, 6, value)

    @pytest.mark.parametrize("value", [3, np.int64(3), 3.0])
    @pytest.mark.parametrize("model", ["rrsd", "rssd", "utdq"])
    def test_whole_param_kept(self, model, value):
        assert DesignSpec(model, 10, 6, value).param == 3

    def test_utdq_needs_whole_blocks(self):
        with pytest.raises(ParameterError):
            DesignSpec("utdq", 10, 7, 3)
        DesignSpec("utdq", 10, 9, 3)  # fine

    def test_unknown_model(self):
        with pytest.raises(ParameterError):
            DesignSpec("bogus", 10, 5, 0.5)


class TestGenerators:
    def test_same_seed_same_matrix(self):
        a = gen_rid(40, 20, 0.5, 7)
        b = gen_rid(40, 20, 0.5, 7)
        assert a == b
        assert a != gen_rid(40, 20, 0.5, 8)

    def test_rid_density(self):
        m = gen_rid(2000, 50, 0.7, 12345)
        ones = sum(m.row_weight(t) for t in range(m.m))
        # 100k cells at 0.3; 5 sigma is about 725
        assert abs(ones - 30000) < 750

    @given(st.integers(1, 30), st.integers(1, 12), st.data())
    @settings(max_examples=40)
    def test_rrsd_rows_have_exact_weight(self, n, m, data):
        r = data.draw(st.integers(0, n))
        seed = data.draw(st.integers(0, 2**32 - 1))
        mat = gen_rrsd(n, m, r, seed)
        assert all(mat.row_weight(t) == r for t in range(m))

    @given(st.integers(1, 12), st.integers(1, 30), st.data())
    @settings(max_examples=40)
    def test_rssd_columns_have_exact_weight(self, n, m, data):
        s = data.draw(st.integers(0, m))
        seed = data.draw(st.integers(0, 2**32 - 1))
        mat = gen_rssd(n, m, s, seed)
        assert all(mat.column_weight(j) == s for j in range(n))

    def test_rrsd_extremes(self):
        assert gen_rrsd(5, 3, 5, 0).row_weight(0) == 5
        assert gen_rrsd(5, 3, 0, 0).row_weight(2) == 0

    def test_utdq_entries_in_alphabet(self):
        mq = gen_utdq(30, 8, 4, 99)
        assert mq.entries.min() >= 1 and mq.entries.max() <= 4

    @pytest.mark.parametrize("n, m_prime, q", [(30, 8, 4), (1, 3, 2),
                                                (50, 0, 5), (200, 6, 9)])
    def test_utdq_is_the_public_matrix_of_its_draw(self, n, m_prime, q):
        # gen_utdq keeps its draw without the public constructor's copy
        mq = gen_utdq(n, m_prime, q, 17)
        draw = np.random.default_rng(17).integers(
            1, q + 1, size=(m_prime, n), dtype=np.int64)
        assert mq == QaryMatrix(m_prime, n, q, draw)
        assert (mq.m, mq.n, mq.q) == (m_prime, n, q)
        assert mq.entries.dtype == np.int64
        with pytest.raises(ValueError):
            mq.entries[...] = 1

    def test_utdq_row_positions_uniformish(self):
        # each expanded column carries one 1 per q-ary row
        mq = gen_utdq(10, 6, 3, 5)
        e = expand_qary(mq)
        assert all(e.column_weight(j) == 6 for j in range(10))

    def test_generate_dispatch_matches_generators(self):
        assert generate(DesignSpec("rid", 30, 10, 0.4), 3) == gen_rid(
            30, 10, 0.4, 3)
        assert generate(DesignSpec("rrsd", 30, 10, 7), 3) == gen_rrsd(
            30, 10, 7, 3)
        assert generate(DesignSpec("rssd", 30, 10, 4), 3) == gen_rssd(
            30, 10, 4, 3)
        assert generate(DesignSpec("utdq", 30, 12, 3), 3) == expand_qary(
            gen_utdq(30, 4, 3, 3))

    def test_blocked_generation_is_consistent(self, monkeypatch):
        # row-wise draws give the same matrix for any chunk or block size;
        # at the defaults n = 1000 spans several chunks of rows
        shapes = [(7, 30), (37, 20), (1000, 130)]
        want = [(gen_rid(n, m, 0.6, 2024), gen_rrsd(n, m, n // 3, 2024))
                for n, m in shapes]
        for entries in (1, 10, 64):
            monkeypatch.setattr(designs, "_BLOCK_ENTRIES", entries)
            monkeypatch.setattr(designs, "_CHUNK_ENTRIES", entries)
            got = [(gen_rid(n, m, 0.6, 2024), gen_rrsd(n, m, n // 3, 2024))
                   for n, m in shapes]
            assert got == want, entries

    # n = 1, m = 0, the constant rows of rrsd r = 0 or n and rssd s = 0
    # or m, and utdq over q = 2, 3 and 12
    STREAM_SPECS = [
        DesignSpec("rid", 1, 9, 0.5), DesignSpec("rid", 37, 0, 0.5),
        DesignSpec("rid", 37, 20, 0.6),
        *(DesignSpec("rrsd", 1, 9, r) for r in (0, 1)),
        *(DesignSpec("rrsd", 37, 20, r) for r in (0, 10, 37)),
        *(DesignSpec("rssd", 1, 9, s) for s in (0, 4, 9)),
        *(DesignSpec("rssd", 37, 20, s) for s in (0, 7, 20)),
        DesignSpec("utdq", 1, 6, 2), DesignSpec("utdq", 37, 0, 4),
        DesignSpec("utdq", 37, 24, 3), DesignSpec("utdq", 37, 24, 12),
    ]

    @pytest.mark.parametrize("entries", [None, 1, 10, 64])
    def test_streamed_rows_write_the_generated_matrix(self, tmp_path,
                                                      monkeypatch, entries):
        # the row blocks `design` writes as it draws them, against the
        # matrix generate() packs, written one row string at a time; the
        # small sizes cut blocks mid-matrix, a row or a q-ary row each
        if entries is not None:
            monkeypatch.setattr(designs, "_BLOCK_ENTRIES", entries)
            monkeypatch.setattr(designs, "_CHUNK_ENTRIES", entries)
            monkeypatch.setattr(matrices, "_WRITE_BLOCK", entries)
        streamed, packed = tmp_path / "streamed.txt", tmp_path / "packed.txt"
        for spec in self.STREAM_SPECS:
            rows = _RowBlocks(spec.m, spec.n, designs._row_blocks(spec, 5))
            write_matrix(streamed, rows)
            write_matrix(packed, generate(spec, 5))
            assert streamed.read_bytes() == packed.read_bytes(), spec

    def test_arguments_checked_as_design_spec(self):
        with pytest.raises(ParameterError):
            gen_rid(10, 5, 1.0, 0)
        with pytest.raises(ParameterError):
            gen_rrsd(10, 5, 11, 0)
        with pytest.raises(ParameterError):
            gen_rrsd(10, 5, 2.5, 0)  # not truncated to 2
        with pytest.raises(ParameterError):
            gen_rssd(10, 5, 6, 0)
        with pytest.raises(ParameterError):
            gen_rssd(10, 5, 1.5, 0)
        with pytest.raises(ParameterError):
            gen_utdq(10, 5, 1, 0)
        with pytest.raises(DimensionError):
            gen_rid(0, 5, 0.5, 0)
        with pytest.raises(DimensionError):
            gen_utdq(10, -1, 3, 0)


class TestOptimalParam:
    def test_rid(self):
        assert optimal_param("rid", 500, 1) == pytest.approx(math.exp(-1))
        assert optimal_param("rid", 500, 2) == pytest.approx(math.exp(-0.5))

    def test_rrsd_frozen(self):
        assert optimal_param("rrsd", 1001, 1) == 633

    def test_rrsd_formula(self):
        n, d = 5000, 3
        want = round((1 - math.exp(-1 / d)) * (n - d + 1))
        assert optimal_param("rrsd", n, d) == want

    def test_rssd_needs_m_hint(self):
        with pytest.raises(ParameterError):
            optimal_param("rssd", 100, 2)
        s = optimal_param("rssd", 100, 2, m_hint=50)
        assert s == round(0.28643340065601963 * 50)

    def test_utdq(self):
        assert optimal_param("utdq", 100, 2) == 4
        assert optimal_param("utdq", 100, 3) == 5


class TestUpperSizing:
    def test_rid_frozen(self):
        res = upper_bound_m("rid", 1000, 1, 0.1)
        assert res.m == 58
        assert res.m_real == pytest.approx(57.530409778155075, abs=1e-9)
        assert res.lam == pytest.approx(0.5320653832253548, abs=1e-12)
        assert res.feasible

    def test_rid_solves_its_equation(self):
        res = upper_bound_m("rid", 1000, 1, 0.1)
        t = res.m_real
        lhs = t - math.sqrt(2 * math.e * t * math.log(2 / 0.1))
        rhs = math.e * 1 * math.log(2 * 1000 / 0.1)
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_rrsd_shares_the_display(self):
        a = upper_bound_m("rid", 4000, 2, 0.05)
        b = upper_bound_m("rrsd", 4000, 2, 0.05)
        assert a.m == b.m and a.m_real == b.m_real

    def test_rssd_frozen(self):
        res = upper_bound_m("rssd", 10**4, 3, 0.1)
        assert res.m == 133
        assert res.m_real == pytest.approx(132.84314812796939, abs=1e-6)
        assert res.lam == pytest.approx(0.7708744414502453, abs=1e-9)
        assert res.alpha == pytest.approx(0.2027683846412477, abs=1e-9)
        assert res.feasible

    def test_rssd_fixed_point_residual(self):
        res = upper_bound_m("rssd", 10**4, 3, 0.1)
        good = (1 - res.alpha) ** 3
        lam = 2 / math.sqrt(0.1 * good * res.m_real)
        assert abs(res.m_real - (1 + lam) * res.m_prime) < 0.5

    def test_rssd_at_a_million_defectives(self):
        # alpha* lies below the 10^4-point grid, near ln2/d
        res = upper_bound_m("rssd", 2 * 10**6, 10**6, 0.1)
        assert res.feasible
        assert res.alpha * 10**6 == pytest.approx(math.log(2), rel=1e-2)

    def test_rssd_singular_at_d1(self):
        res = upper_bound_m("rssd", 1000, 1, 0.1)
        assert not res.feasible
        assert "singular" in res.reason

    def test_utdq_transversal_frozen(self):
        res = upper_bound_m("utdq", 2000, 3, 0.1)
        assert (res.m, res.q, res.m_prime) == (70, 5, 14)
        assert res.m % res.q == 0
        assert res.m_real == pytest.approx(69.0196344213751, abs=1e-6)

    def test_utdq_transversal_formula(self):
        q, d, n, delta = 5, 3, 2000, 0.1
        denom = -math.log1p(-((1 - 1 / q) ** d))
        res = upper_bound_m("utdq", n, d, delta, q=q)
        assert res.m_real == pytest.approx(
            q * math.log(n / delta) / denom, rel=1e-12)

    def test_utdq_exact_is_hopeless_at_desk_scale(self):
        res = upper_bound_m("utdq", 2000, 3, 0.1, q=5, exact_utdq=True)
        assert not res.feasible
        assert res.lam == pytest.approx(11.761335601406074, abs=1e-6)

    def test_utdq_exact_refuses_its_scale_before_the_sums(self,
                                                          monkeypatch):
        # q^(d+1) overflows: the refusal needs none of _ln_p_any's exact
        # sums, which take seconds at this d
        def spy(q, d):
            raise AssertionError("_ln_p_any called")

        monkeypatch.setattr(theory, "_ln_p_any", spy)
        res = upper_bound_m("utdq", 10**6, 128000, 0.1, q=3,
                            exact_utdq=True)
        assert res.reason == designs._BEYOND_FLOAT

    def test_bad_arguments(self):
        with pytest.raises(ParameterError):
            upper_bound_m("rid", 10, 10, 0.1)
        with pytest.raises(ParameterError):
            upper_bound_m("rid", 10, 0, 0.1)
        with pytest.raises(ParameterError):
            upper_bound_m("rid", 10, 2, 1.5)
        for q in (1, 2.5):
            with pytest.raises(ParameterError):
                upper_bound_m("utdq", 100, 2, 0.1, q=q)
            with pytest.raises(ParameterError):
                lower_bound_m("utdq", 100, 2, q=q)


@pytest.mark.parametrize("bound, model, n, delta, kw", [
    ("upper", "rid", 10**10, 1e-300, {}),
    ("upper", "rid", 10**307, 0.1, {}),
    ("upper", "rrsd", 50, 5e-324, {}),
    ("upper", "rssd", 50, 5e-324, {}),
    ("upper", "utdq", 10**10, 1e-300, {}),
    ("upper", "utdq", 10**10, 1e-300, {"exact_utdq": True}),
    ("upper", "utdq", 50, 1e-308, {"exact_utdq": True}),  # 2 q^d / delta
    ("lower", "utdq", 10**308, None, {}),
], ids=["rid", "rid-n1e307", "rrsd", "rssd", "utdq", "utdq-exact",
        "utdq-exact-scale", "lower-utdq-n1e308"])
def test_quotients_beyond_the_float_range(bound, model, n, delta, kw):
    # n / delta (or 8 (n - d)) overflows a float; its log does not
    res = (upper_bound_m(model, n, 2, delta, **kw) if bound == "upper"
           else lower_bound_m(model, n, 2, **kw))
    values = (res.m_real, res.lam, res.m_prime)
    assert all(math.isfinite(v) for v in values if v is not None), res
    assert res.feasible == (res.m >= res.m_real > 0)


@pytest.mark.parametrize("n", [10**20, 10**309], ids=["n1e20", "n1e309"])
@pytest.mark.parametrize("model", designs.MODELS)
def test_sizing_at_any_n(model, n):
    # 10^309 does not convert to a float: each bound still gives a record
    for res in (upper_bound_m(model, n, 2, 0.1), lower_bound_m(model, n, 2)):
        values = (res.m_real, res.lam, res.m_prime)
        assert all(math.isfinite(v) for v in values if v is not None), res
        assert res.m >= res.m_real > 0 or not res.feasible, res
    if model == "rrsd":
        below = lower_bound_m(model, n // 10, 2)
        assert res.feasible and res.m >= below.m > 0


@pytest.mark.parametrize("d", [10**300, 10**306, 10**340],
                         ids=["d1e300", "d1e306", "d1e340"])
@pytest.mark.parametrize("model", ["rid", "rrsd", "rssd"])
def test_sizing_at_any_d(model, d):
    # past about 10^306 the display leaves the float range, and 10^340
    # does not convert to a float: a finite record or a refusal
    n = 10**700
    for res in (upper_bound_m(model, n, d, 0.1), lower_bound_m(model, n, d)):
        values = (res.m_real, res.lam, res.m_prime)
        assert all(math.isfinite(v) for v in values if v is not None), res
        assert res.m >= res.m_real > 0 if res.feasible else res.reason, res
        if d == 10**340:
            assert (res.m, res.m_real) == (0, 0.0), res
            assert res.reason == "test count beyond float range at this d"
    if d == 10**300 and model != "rssd":
        assert upper_bound_m(model, n, d, 0.1).feasible


@pytest.mark.parametrize("d", [10**3, 10**4, 10**340],
                         ids=["d1e3", "d1e4", "d1e340"])
def test_utdq_transversal_sizing_at_any_d(d):
    # m grows like 1.5^d at q = 3: by d = 10^4 it has no float value
    res = upper_bound_m("utdq", 10**700, d, 0.1, q=3)
    if d == 10**3:
        assert res.feasible and res.m >= res.m_real > 0, res
        assert math.isfinite(res.m_real)
    else:
        assert (res.m, res.m_real, res.q) == (0, 0.0, 3), res
        assert res.reason == "test count beyond float range at this d"


@pytest.mark.parametrize("d", [10**17, 10**20, 10**300],
                         ids=["d1e17", "d1e20", "d1e300"])
def test_rssd_lower_past_the_float_spacing_at_one(d):
    # alpha ~ ln2/d is below the spacing of floats at 1: 1.0 - alpha is
    # 1.0, so (1 - alpha)^d must come from log1p
    res = lower_bound_m("rssd", 10**700, d)
    assert res.feasible and res.m >= res.m_real > 0, res
    assert 0 < res.alpha * d < 1


def test_rssd_upper_refusal_reason_is_short():
    # the correction factor is about 10^149 here
    res = upper_bound_m("rssd", 10**10, 2, 1e-300)
    assert not res.feasible and math.isfinite(res.lam), res
    assert res.reason.startswith("correction factor ") and len(res.reason) < 60


def test_utdq_lower_has_a_root_where_the_correction_dwarfs_it():
    # m0 > 0 always gives a positive root, also where b^2 dwarfs m0 and
    # 0.5 (-b + sqrt(b^2 + 4 m0)) cancels to 0
    for d, q in ((100, None), (200, 20)):
        res = lower_bound_m("utdq", 1000, d, q=q)
        assert res.m >= 1 and res.m_real > 0, res
        assert math.isfinite(res.lam) and res.lam > 1, res
        assert res.reason.startswith("correction factor "), res


class TestLowerSizing:
    def test_rid_frozen(self):
        res = lower_bound_m("rid", 10**6, 2)
        assert res.m == 5
        assert res.m_real == pytest.approx(4.159227500299485, abs=1e-9)
        assert res.feasible

    def test_rrsd_precondition(self):
        res = lower_bound_m("rrsd", 10**6, 2)
        assert not res.feasible
        assert "precondition" in res.reason

    def test_rrsd_refuses_where_ln_n_over_e_is_not_positive(self):
        # the display's ln(n/e) is negative at n = 2, so its quadratic has
        # no positive root
        res = lower_bound_m("rrsd", 2, 1)
        assert not res.feasible and (res.m, res.m_real) == (0, 0.0), res
        assert res.reason == "display's ln(n/e) is not positive at n=2"

    @pytest.mark.parametrize("model", designs.MODELS)
    def test_feasible_records_have_a_root_at_small_n(self, model):
        for n in range(2, 40):
            for d in range(1, min(n, 9)):
                res = lower_bound_m(model, n, d)
                assert res.m >= res.m_real > 0 or not res.feasible, res

    def test_rssd_frozen(self):
        res = lower_bound_m("rssd", 10**6, 3)
        assert res.m == 80
        assert res.lam == 0.05
        assert res.alpha == pytest.approx(0.2027683846412477, abs=1e-9)
        assert res.feasible

    def test_utdq_vacuous_at_desk_scale(self):
        res = lower_bound_m("utdq", 10**6, 3)
        assert not res.feasible
        assert res.q == 5
        assert res.lam == pytest.approx(135.37653324053974, rel=1e-6)

    def test_records_serialize(self):
        rec = lower_bound_m("rid", 10**6, 2).as_record()
        assert rec["bound"] == "lower"
        assert rec["lambda"] is None
        rec = upper_bound_m("rid", 1000, 1, 0.1).as_record()
        assert set(rec) >= {"model", "bound", "n", "d", "delta", "m",
                            "m_real", "lambda", "feasible"}


def _rssd_display(res, m):
    good = (1 - res.alpha) ** res.d
    return m >= (1 + 2 / math.sqrt(res.delta * good * m)) * res.m_prime


def _utdq_exact_display(res, m):
    q, d = res.q, res.d
    m0 = q * math.log(2.0 * res.n / res.delta) / -theory._ln_p_any(q, d)
    scale = 2.0 * q ** (d + 1) * math.log(2.0 * q ** d / res.delta)
    return m - math.sqrt(scale * m) >= m0


# (display, keyword arguments of upper_bound_m) over n = 10^3, 10^5, ...,
# 10^299: every feasible m meets its display and m - 1 (for utdq m - q)
# does not
SIZING_GRIDS = {
    "rssd": (_rssd_display,
             [{"d": d, "delta": delta} for d in range(2, 12)
              for delta in (0.01, 0.05, 0.1, 0.2)]),
    "utdq": (_utdq_exact_display,
             [{"d": d, "delta": 0.1, "q": q, "exact_utdq": True}
              for d in (1, 2, 3) for q in (2, 3, 4, 5, 7)]),
}


def _sizing_grid():
    """34,700 upper and lower records: n = 10^2, 10^5, ..., 10^299, d up
    to 50 and delta from 0.3 to 1e-300, utdq with its default q.  The
    utdq lower display stops at d = 8: past it its correction factor is
    above 10^16 and m is 1, the range that
    test_utdq_lower_has_a_root_where_the_correction_dwarfs_it covers."""
    ds = (1, 2, 3, 5, 8, 13, 21, 34, 50)
    deltas = (0.3, 0.1, 1e-2, 1e-5, 1e-20, 1e-100, 1e-300)
    for n in (10**e for e in range(2, 300, 3)):
        for d in ds:
            for delta in deltas:
                for model in designs.MODELS:
                    yield upper_bound_m(model, n, d, delta)
                yield upper_bound_m("utdq", n, d, delta, exact_utdq=True)
            for model in designs.MODELS:
                if model != "utdq" or d <= 8:
                    yield lower_bound_m(model, n, d)


def test_integer_sizes_pinned():
    # every integer m and feasibility over the grid, as one sha256
    sizes = [(res.m, res.feasible) for res in _sizing_grid()]
    assert len(sizes) == 34_700
    assert hashlib.sha256(repr(sizes).encode()).hexdigest() == (
        "e5b39cf4a4f99395addbc48c43d6083ced9dbd46c9a992e49ec53756cbabdb29")


@pytest.mark.parametrize("model", sorted(SIZING_GRIDS))
def test_sized_m_is_the_least_that_meets_its_display(model):
    display, grid = SIZING_GRIDS[model]
    feasible = 0
    for kw in grid:
        for exponent in range(3, 300, 2):
            res = upper_bound_m(model, 10**exponent, **kw)
            if res.feasible:
                feasible += 1
                assert display(res, res.m), res
                assert not display(res, res.m - (res.q or 1)), res
    assert feasible > 1000


# The paper's bounds on c_M(d) meet: as n grows, each display's m / ln n
# tends to d * c_constant(model, d) times the limit below, which follows
# from the display's algebra and is computed from theory alone.  The
# displays take Python ints, so n = 10^(10^k) has an exact ln n.
TIGHT_K = (3, 4, 5, 6)
TIGHT_DELTA = 0.1
# Fixed from the correction terms, before the first run: at k = 6 every
# leading correction is below 0.035, and between successive k the
# distance to the limit times (ln n)^order stays within a factor of 2
# (a wrong order would move it by sqrt(10) or more per step).
TIGHT_AT_K6 = 0.05
TIGHT_ORDER_BAND = (0.5, 2.0)


@pytest.fixture(scope="module")
def huge_n():
    return {k: 10**10**k for k in TIGHT_K}


def _display_limits(model, d):
    """{display: (limit of m_real / (d c ln n), order e)}: the distance
    to the limit shrinks like (ln n)^-e."""
    if model in ("rid", "rrsd"):
        # t^2 -+ b t = e d ln n + O(1): a sqrt(ln n) correction
        return {"upper": (1.0, 0.5), "lower": (1.0, 0.5)}
    if model == "rssd":
        alpha, fmax = theory.rssd_alpha_star(d)
        # the lower display puts its slack into the positive-test rate,
        # beta = 1 - (1 + slack)(1 - alpha)^d, so its f falls short of fmax
        beta = 1.0 - (1.0 + designs._RSSD_LOWER_SLACK) * (1.0 - alpha) ** d
        f = theory.entropy(alpha) - beta * theory.entropy(alpha / beta)
        return {"upper": (1.0, 0.5), "lower": (fmax / f, 1.0)}
    q = theory.utdq_q_star(d)[0]
    # the default display is the transversal bound the paper tightens:
    # its rate per q-ary row is -ln(1 - (1 - 1/q)^d), not -ln P(q, d)
    transversal = theory.ln_p_qd(q, d) / math.log1p(-(1.0 - 1.0 / q) ** d)
    return {"upper": (transversal, 1.0), "exact upper": (1.0, 0.5),
            "lower": (1.0, 0.5)}


def _display(model, display, n, d):
    if display == "lower":
        return lower_bound_m(model, n, d)
    return upper_bound_m(model, n, d, TIGHT_DELTA,
                         exact_utdq=display == "exact upper")


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("model", designs.MODELS)
def test_displays_tend_to_their_limits(model, d, huge_n):
    c = theory.c_constant(model, d)
    ln_n = {k: math.log(n) for k, n in huge_n.items()}
    limits = _display_limits(model, d)
    records = {display: {k: _display(model, display, n, d)
                         for k, n in huge_n.items()}
               for display in limits}
    for display, (limit, order) in limits.items():
        points = [(ln_n[k], res.m_real / (d * c * ln_n[k]))
                  for k, res in records[display].items() if res.feasible]
        assert len(points) >= 3 and records[display][6].feasible, display
        dist = [abs(ratio - limit) for _, ratio in points]
        assert dist[-1] <= TIGHT_AT_K6, (display, limit, points)
        assert all(a > b for a, b in zip(dist, dist[1:])), (display, dist)
        scaled = [x * ln_n**order for x, (ln_n, _) in zip(dist, points)]
        lo, hi = TIGHT_ORDER_BAND
        assert all(lo <= b / a <= hi for a, b in zip(scaled, scaled[1:])), (
            display, scaled)
    for k in TIGHT_K:
        lower = records["lower"][k]
        for display in limits.keys() - {"lower"}:
            upper = records[display][k]
            if lower.feasible and upper.feasible:
                assert lower.m_real <= upper.m_real, (display, k)


def test_two_displays_stay_off_the_constant():
    # rssd's lower display (slack 0.05) and utdq's transversal upper one
    # tend to a limit other than 1
    assert _display_limits("rssd", 2)["lower"][0] == pytest.approx(
        0.919, abs=5e-4)
    assert _display_limits("utdq", 2)["upper"][0] == pytest.approx(
        1.0481, abs=5e-5)
