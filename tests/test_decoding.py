from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gtpool import decoding
from gtpool.decoding import decode_eliminate, is_disjunct, is_separable
from gtpool.designs import DesignSpec, generate, optimal_param, upper_bound_m
from gtpool.errors import DimensionError, ParameterError, SizeGuardError
from gtpool.matrices import AnswerVector, BitMatrix, or_columns

from lemmas import good_row_count


def brute_disjunct(arr, items):
    """Straight from the definition: every outsider appears in a row
    where no member of the set does."""
    members = [i - 1 for i in items]
    hits_member = arr[:, members].any(axis=1)
    good = arr[~hits_member]
    for j in range(arr.shape[1]):
        if j in members:
            continue
        if not good[:, j].any():
            return False
    return True


def brute_separable(arr, items, d):
    members = frozenset(i - 1 for i in items)
    target = arr[:, sorted(members)].any(axis=1) if members else None
    n = arr.shape[1]
    for k in range(0, d + 1):
        for combo in combinations(range(n), k):
            if frozenset(combo) == members:
                continue
            answers = (arr[:, list(combo)].any(axis=1)
                       if combo else np.zeros(arr.shape[0], dtype=bool))
            if np.array_equal(answers, target):
                return False
    return True


def small_cases():
    return st.tuples(
        st.integers(1, 5), st.integers(1, 6),
    ).flatmap(lambda mn: st.tuples(
        st.lists(st.lists(st.integers(0, 1), min_size=mn[1], max_size=mn[1]),
                 min_size=mn[0], max_size=mn[0]),
        st.lists(st.integers(1, mn[1]), min_size=1, max_size=min(3, mn[1]),
                 unique=True),
    ))


def test_decode_hand_example():
    m = BitMatrix.from_strings(["10110", "01011", "00101"])
    assert decode_eliminate(m, or_columns(m, [1, 3])) == {1, 3}


def test_decode_all_negative():
    m = BitMatrix.from_strings(["111", "111"])
    x = decode_eliminate(m, AnswerVector.from01("00"))
    assert x == set()


def test_decode_no_tests_keeps_everyone():
    m = BitMatrix(0, 4, [])
    assert decode_eliminate(m, AnswerVector(0, 0)) == {1, 2, 3, 4}


def shift_decode(matrix, answers):
    """The elimination decoder reading test t as bit (m - 1 - t) of the
    answers, one m-bit shift per row: quadratic in m."""
    eliminated = 0
    for t, w in enumerate(matrix.rows):
        if not (answers.bits >> (matrix.m - 1 - t)) & 1:
            eliminated |= w
    return {j + 1 for j in range(matrix.n)
            if not (eliminated >> (matrix.n - 1 - j)) & 1}


@pytest.mark.parametrize("m, n", [(0, 1), (0, 9), (1, 1), (7, 1), (40, 3),
                                  (3, 70), (2000, 2), (300, 65)])
def test_decode_matches_row_shifts(m, n):
    rng = np.random.default_rng(1000 * m + n)
    matrix = BitMatrix.from_dense(rng.integers(0, 2, size=(m, n)))
    random_bits = sum(int(b) << t for t, b in enumerate(rng.integers(0, 2, m)))
    for bits in (0, (1 << m) - 1, random_bits):
        answers = AnswerVector(m, bits)
        assert decode_eliminate(matrix, answers) == shift_decode(matrix, answers)
    items = sorted({int(i) for i in rng.integers(1, n + 1, 2)})
    answers = or_columns(matrix, items)
    assert decode_eliminate(matrix, answers) == shift_decode(matrix, answers)


def test_decode_length_mismatch():
    m = BitMatrix.from_strings(["10", "01"])
    with pytest.raises(DimensionError):
        decode_eliminate(m, AnswerVector.from01("101"))


def test_good_row_count():
    m = BitMatrix.from_strings(["10110", "01011", "00101"])
    assert good_row_count(m, [1, 3]) == 1
    assert good_row_count(m, [2]) == 2


@given(small_cases())
@settings(max_examples=200)
def test_decoder_never_drops_a_member(case):
    rows, items = case
    m = BitMatrix.from_dense(np.array(rows, dtype=np.uint8))
    x = decode_eliminate(m, or_columns(m, items))
    assert set(items) <= x


@given(small_cases())
@settings(max_examples=200)
def test_decode_exact_iff_disjunct(case):
    rows, items = case
    arr = np.array(rows, dtype=np.uint8)
    m = BitMatrix.from_dense(arr)
    x = decode_eliminate(m, or_columns(m, items))
    assert (x == set(items)) == is_disjunct(m, items)
    assert is_disjunct(m, items) == brute_disjunct(arr, items)


@given(small_cases())
@settings(max_examples=120, deadline=None)
def test_separable_matches_brute_force(case):
    rows, items = case
    arr = np.array(rows, dtype=np.uint8)
    m = BitMatrix.from_dense(arr)
    d = len(items)
    assert is_separable(m, items, d) == brute_separable(arr, items, d)


@given(small_cases(), st.integers(1, 2))
@settings(max_examples=120, deadline=None)
def test_separable_above_set_size_matches_brute_force(case, extra):
    # a non-disjunct set leaves outsiders alive, and a d above the set's
    # size lets a candidate hold some of them
    rows, items = case
    arr = np.array(rows, dtype=np.uint8)
    m = BitMatrix.from_dense(arr)
    assume(decode_eliminate(m, or_columns(m, items)) > set(items))
    d = len(items) + extra
    assert is_separable(m, items, d) == brute_separable(arr, items, d)


def test_separable_exhaustive_tiny_matrices():
    # every matrix with n <= 4 and m <= 3, every set of size 0-3, every d
    # from the set's size to 3, against the answers of every subset of
    # the items; a table per matrix keeps this to a few seconds, where
    # brute_separable per case would take minutes
    cases = 0
    for n in range(1, 5):
        subsets = [c for k in range(n + 1)
                   for c in combinations(range(1, n + 1), k)]
        for m_rows in range(4):
            for bits in product(range(2 ** n), repeat=m_rows):
                m = BitMatrix(m_rows, n, bits)
                answers = {t: or_columns(m, t) for t in subsets}
                for items in subsets:
                    alike = [len(t) for t in subsets
                             if t != items and answers[t] == answers[items]]
                    for d in range(len(items), 4):
                        want = all(k > d for k in alike)
                        assert is_separable(m, items, d) == want, (
                            bits, items, d)
                        cases += 1
    assert cases == 152_633


@given(small_cases())
@settings(max_examples=120, deadline=None)
def test_disjunct_forbids_outside_collisions(case):
    # A disjunct set can only be confused with its own subsets; any
    # candidate set containing an outsider answers differently.
    rows, items = case
    arr = np.array(rows, dtype=np.uint8)
    m = BitMatrix.from_dense(arr)
    if not is_disjunct(m, items):
        return
    target = or_columns(m, items)
    n = m.n
    members = set(items)
    for k in range(1, len(items) + 1):
        for combo in combinations(range(1, n + 1), k):
            if set(combo) <= members:
                continue
            assert or_columns(m, combo) != target


def test_disjunct_does_not_imply_separable():
    # Subsets of the defective set can produce identical answers, so the
    # two notions genuinely differ.  Smallest case: one untested item.
    # The impersonating subset is itself not disjunct, as it must be:
    # a set that is disjunct together with all its subsets is separable.
    m = BitMatrix(1, 1, [0])
    assert is_disjunct(m, [1])
    assert not is_separable(m, [1], 1)
    assert not is_disjunct(m, [])
    # and a case where the empty set is not the culprit
    m2 = BitMatrix.from_strings(["110", "001"])
    assert is_disjunct(m2, [1, 2])
    assert or_columns(m2, [1]) == or_columns(m2, [1, 2])
    assert not is_separable(m2, [1, 2], 2)
    assert not is_disjunct(m2, [1])


def test_separable_budget_guard():
    m = BitMatrix(1, 4000, [0])
    with pytest.raises(SizeGuardError):
        is_separable(m, [1], 3)


def test_separable_budget_counts_survivor_subsets(monkeypatch):
    # the one test is positive, so all five items survive: 1 + 5 + 10
    # candidate sets of size <= 2
    m = BitMatrix.from_strings(["11111"])
    monkeypatch.setattr(decoding, "SEPARABILITY_BUDGET", 16)
    assert not is_separable(m, [1], 2)
    monkeypatch.setattr(decoding, "SEPARABILITY_BUDGET", 15)
    with pytest.raises(SizeGuardError):
        is_separable(m, [1], 2)
    # one test per item leaves only the set alive: its 2 subsets, any d
    m = BitMatrix.from_strings(["10000", "01000", "00100", "00010", "00001"])
    monkeypatch.setattr(decoding, "SEPARABILITY_BUDGET", 2)
    assert is_separable(m, [1], 4)
    monkeypatch.setattr(decoding, "SEPARABILITY_BUDGET", 1)
    with pytest.raises(SizeGuardError):
        is_separable(m, [1], 4)


def test_separable_answers_beyond_the_full_scan_budget():
    # a scan of all C(4000, <= 3) candidate sets exceeds the budget; a
    # disjunct set leaves only itself alive, so only its 8 subsets remain
    n, d = 4000, 3
    sizing = upper_bound_m("rid", n, d, 0.1)
    m = generate(DesignSpec("rid", n, sizing.m,
                            optimal_param("rid", n, d, m_hint=sizing.m)), 1)
    items = (1, 2, 3)
    assert is_disjunct(m, items)
    target = or_columns(m, items)
    subsets_differ = all(or_columns(m, t) != target
                         for k in range(d) for t in combinations(items, k))
    assert is_separable(m, items, d) == subsets_differ


@pytest.mark.parametrize("d", [-1, 0, 1])
def test_separable_budget_below_set_size(d):
    # checked before the scan: no candidate set of size <= d is the set
    m = BitMatrix.from_strings(["110", "001"])
    with pytest.raises(ParameterError):
        is_separable(m, [1, 2], d)


def test_exhaustive_tiny_equivalence():
    # every 2x2 and 2x3 matrix, every nonempty set: decoder is exact
    # precisely on the disjunct ones
    for m_rows, n in ((2, 2), (2, 3)):
        for bits in product(range(2 ** n), repeat=m_rows):
            m = BitMatrix(m_rows, n, list(bits))
            for k in (1, 2):
                for items in combinations(range(1, n + 1), k):
                    x = decode_eliminate(m, or_columns(m, items))
                    assert (x == set(items)) == is_disjunct(m, items)
