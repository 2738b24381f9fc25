import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpool import designs
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
from gtpool.matrices import expand_qary


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
        assert res.m_real == pytest.approx(132.88262784035223, abs=1e-6)
        assert res.lam == pytest.approx(0.7707599187223444, abs=1e-9)
        assert res.alpha == pytest.approx(0.2027683846412477, abs=1e-9)
        assert res.feasible

    def test_rssd_fixed_point_residual(self):
        res = upper_bound_m("rssd", 10**4, 3, 0.1)
        good = (1 - res.alpha) ** 3
        lam = 2 / math.sqrt(0.1 * good * res.m_real)
        assert abs(res.m_real - (1 + lam) * res.m_prime) < 0.5

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
