"""End-to-end acceptance checks, one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per criterion.  Budgets are generous for CI noise but each test states
the tolerance it enforces.

Criterion 3 is split in two, and both halves are asserted exhaustively
over every matrix with m, n <= 4.  First, the elimination decoder
recovers a set exactly when the matrix is disjunct for it.  Second, a
set is separable when it and every proper subset of it (the empty set
included) are disjunct.  Disjunctness for the set alone is not enough:
a proper subset may give the same answers.  The second test counts
those counterexamples and checks that each one is impersonated by a
proper subset that is not disjunct; test_decoding.py pins the minimal
ones.
"""

import json
import math
import os
import subprocess
import sys
import time
from itertools import combinations, product

import pytest

from gtpool.decoding import decode_eliminate, is_disjunct, is_separable
from gtpool.designs import (
    DesignSpec,
    gen_utdq,
    optimal_param,
    upper_bound_m,
)
from gtpool.matrices import BitMatrix, or_columns
from gtpool.sim import (
    run_sweep,
    run_trials,
    slope_fit,
)
from gtpool.theory import (
    ASYMPTOTIC_CONSTANT,
    c_constant,
    ln_p_qd,
    published_deviation_flags,
    r_qdi,
    surjections,
    table1,
)

from lemmas import stirling_approx, transversal_prob_check, variance_probe

SEED = 20260825


def count_words_by_symbols(q, d):
    """Brute tally of q-ary words of length d by distinct-symbol count."""
    tally = {}
    for word in product(range(q), repeat=d):
        i = len(set(word))
        tally[i] = tally.get(i, 0) + 1
    return tally


def test_criterion_01_symbol_count_partition():
    # exact identity for every q, d up to 8; brute force up to 5; < 1s
    start = time.perf_counter()
    for q in range(2, 9):
        for d in range(1, 9):
            assert sum(r_qdi(q, d, i) for i in range(1, q + 1)) == q ** d
    for q in range(2, 6):
        for d in range(1, 6):
            tally = count_words_by_symbols(q, d)
            for i in range(1, q + 1):
                assert r_qdi(q, d, i) == tally.get(i, 0)
    assert surjections(4, 2) == 14
    assert time.perf_counter() - start < 1.0


def test_criterion_02_collision_probability_bounds():
    assert abs(ln_p_qd(2, 2) - (-math.log(2) / 2)) <= 1e-12
    for q in range(2, 9):
        for d in range(1, 9):
            # never below the uniform single-defective floor 1/q
            assert math.exp(ln_p_qd(q, d)) >= 1 / q - 1e-12


def test_criterion_03_decoder_exact_iff_disjunct():
    # every binary matrix with m, n <= 4 and every set of at most two
    # items; elimination decoding recovers the set exactly when the
    # matrix is disjunct for it
    start = time.perf_counter()
    for n in range(1, 5):
        item_sets = [c for k in (1, 2) if k <= n
                     for c in combinations(range(1, n + 1), k)]
        for m in range(1, 5):
            for bits in product(range(2 ** n), repeat=m):
                mat = BitMatrix(m, n, bits)
                for items in item_sets:
                    decoded = decode_eliminate(mat, or_columns(mat, items))
                    assert (decoded == set(items)) == is_disjunct(mat, items)
    assert time.perf_counter() - start < 120


def test_criterion_03_disjunct_implies_separable():
    # Let S be disjunct and let T != S, |T| <= d, give the same answers.
    # 1. T is a proper subset of S: an outsider j in T sits in a row with
    #    no member of S, which is negative for S and positive for T.
    # 2. If every proper subset of S (the empty set included) is also
    #    disjunct, no such T exists: pick i in S \ T; as T is disjunct, i
    #    sits in a row with no member of T, positive for S, negative for T.
    # So S is separable when S and all its proper subsets are disjunct.
    # Exhaustive over every matrix with m, n <= 4 and every set of one or
    # two items, at d = 2.  Step 1 is asserted on every disjunct case:
    # is_separable is False exactly when a proper subset answers alike.
    # Disjunctness for S alone is not enough (the 1x1 zero matrix with
    # item 1 defective answers like the empty set); every such
    # counterexample must be impersonated by a proper subset that is
    # itself not disjunct.
    checked = 0
    counterexamples = 0
    for n in range(1, 5):
        item_sets = [c for k in (1, 2) if k <= n
                     for c in combinations(range(1, n + 1), k)]
        for m in range(1, 5):
            for bits in product(range(2 ** n), repeat=m):
                mat = BitMatrix(m, n, bits)
                for items in item_sets:
                    if not is_disjunct(mat, items):
                        continue
                    subsets = [c for k in range(len(items))
                               for c in combinations(items, k)]
                    case = f"m={m} n={n} rows={bits} items={items}"
                    separable = is_separable(mat, items, 2)
                    target = or_columns(mat, items)
                    twins = [s for s in subsets
                             if or_columns(mat, s) == target]
                    assert separable == (not twins), (
                        f"separability not decided by proper subsets: {case}")
                    if all(is_disjunct(mat, s) for s in subsets):
                        assert separable, (
                            f"disjunct with all subsets but not "
                            f"separable: {case}")
                        checked += 1
                    elif not separable:
                        assert not any(is_disjunct(mat, s) for s in twins), (
                            f"a disjunct proper subset answers alike: {case}")
                        counterexamples += 1
    assert checked > 0
    assert counterexamples > 0


def test_criterion_04_transversal_failure_lemma():
    # ten random 3x10 ternary layouts, 10^4 redraws of the non-defective
    # columns each; empirical failure rate within 3 sigma of the exact
    # product formula
    for k in range(10):
        mq = gen_utdq(10, 3, 3, SEED + k)
        chk = transversal_prob_check(mq, 10, 2, 10 ** 4, SEED + 100 + k)
        sigma = max(chk.stderr, 1e-9)
        assert abs(chk.empirical - chk.exact) <= 3 * sigma, (
            f"layout {k}: exact {chk.exact:.4f} "
            f"empirical {chk.empirical:.4f} sigma {sigma:.4f}")


@pytest.mark.parametrize("model,n", [
    ("rid", 2000), ("rrsd", 2000), ("rssd", 10 ** 4), ("utdq", 2000),
])
def test_criterion_05_sized_designs_hit_their_guarantee(model, n):
    # size for delta = 0.1 and demand at least 0.855 success over 400
    # seeded trials (0.9 guarantee minus binomial noise allowance)
    d, delta = 3, 0.1
    sizing = upper_bound_m(model, n, d, delta)
    if not sizing.feasible:
        pytest.skip(f"sizing infeasible at this scale: {sizing.reason}")
    if model == "utdq":
        param = sizing.q
    else:
        param = optimal_param(model, n, d, m_hint=sizing.m)
    report = run_trials(DesignSpec(model, n, sizing.m, param), d, 400,
                        SEED, jobs=4)
    assert report.frequency >= 0.855, (
        f"{model}: m={sizing.m} frequency {report.frequency:.4f}")


def test_criterion_06_empirical_growth_rate():
    # minimal m for 90% success at d=2 across three decades of n; the
    # fitted slope against ln(n) per defective must sit in a band
    # around the theoretical constants (run budget: 30 minutes)
    start = time.perf_counter()
    results = run_sweep("rid", 2, [10 ** 3, 10 ** 4, 10 ** 5], 0.9, 200,
                        SEED, jobs=4)
    points = [pt for pt, _ in results]
    slope = slope_fit(points, 2)
    assert 2.04 <= slope <= 3.40, (
        f"slope per defective {slope:.3f}, "
        f"m_star={[pt.m_star for pt in points]}")
    assert time.perf_counter() - start < 1800


def test_criterion_07_rate_constants():
    start = time.perf_counter()
    for d in range(1, 11):
        assert c_constant("rid", d) == math.e
        assert c_constant("rrsd", d) == math.e
    for model in ("rssd", "utdq"):
        c = c_constant(model, 200)
        assert abs(c - ASYMPTOTIC_CONSTANT) / ASYMPTOTIC_CONSTANT < 0.05
    # large gaps against the published numbers are reported, not fatal
    for row in table1(10):
        flags = published_deviation_flags(row)
        if flags:
            print(f"deviation flagged for d={row.d}: {flags}")
    assert time.perf_counter() - start < 60


@pytest.mark.parametrize("m,s,d", [(20, 5, 2), (40, 10, 3)])
def test_criterion_08_good_row_variance_bound(m, s, d):
    probe = variance_probe(d, m, s, d, 10 ** 4, SEED)
    assert probe.sample_variance <= 1.1 * probe.bound, (
        f"variance {probe.sample_variance:.3f} vs bound {probe.bound:.3f}")


@pytest.mark.parametrize("n", [20, 50, 100, 200, 500])
@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5])
def test_criterion_09_entropy_approximation_error(n, alpha):
    # evaluate at the nearest achievable k/n when alpha*n is fractional
    k = round(alpha * n)
    a = k / n
    approx = stirling_approx(n, a)
    exact = math.log(math.comb(n, k))
    bound = abs(a * (1 - a) - 1) / (12 * a * (1 - a) * n)
    assert abs(approx - exact) <= bound + 10 / n ** 3 + 1e-6


def test_criterion_10_parallel_runs_are_byte_identical():
    args = [sys.executable, "-m", "gtpool", "mc", "--model", "rid",
            "--n", "300", "--d", "2", "--m", "80", "--trials", "64",
            "--seed", str(SEED)]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    outs = []
    for jobs in ("1", "8"):
        proc = subprocess.run(args + ["--jobs", jobs], capture_output=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
