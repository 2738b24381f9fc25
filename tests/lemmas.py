"""The paper's proof steps, as probes and exact formulas for the tests.

None of this is needed to build, size, decode or simulate a design, so
it lives beside the tests rather than in the package: the good-row count
and its variance bound, the transversal failure lemma of the q-ary
model, the Stirling step behind the entropy rates, and the
inclusion-exclusion sum that theory's surjection recurrence is checked
against.
"""

import math
from dataclasses import dataclass

import numpy as np

from gtpool.designs import _check_args, _utdq_disjunct, gen_rssd
from gtpool.errors import ParameterError
from gtpool.matrices import BitMatrix, QaryMatrix, _item_mask
from gtpool.rng import check_seed, substream
from gtpool.theory import LN2, entropy


def good_row_count(matrix: BitMatrix, defectives) -> int:
    """Number of tests containing no defective item."""
    mask = _item_mask(matrix, defectives)
    return sum(1 for w in matrix.rows if not w & mask)


def stirling_approx(n: int, alpha: float) -> float:
    """Second-order approximation to ln C(n, alpha*n).

    Returns ln of (2^(H(alpha) n)) / sqrt(2 pi alpha beta n) with
    beta = 1 - alpha.  The neglected correction is
    (alpha beta - 1)/(12 alpha beta n) + O(1/(min(alpha, beta) n)^3),
    so the gap to ln C(n, alpha*n) shrinks like 1/n.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie strictly between 0 and 1")
    k = alpha * n
    if abs(k - round(k)) > 1e-6:
        raise ParameterError(f"alpha*n = {k} is not an integer")
    beta = 1.0 - alpha
    return entropy(alpha) * n * LN2 - 0.5 * math.log(2.0 * math.pi * alpha * beta * n)


@dataclass(frozen=True)
class VarianceProbe:
    sample_variance: float
    bound: float
    samples: int


def variance_probe(n: int, m: int, s: int, d: int, samples: int,
                   seed: int) -> VarianceProbe:
    """Sample variance of the good-row count under column-weight-s draws.

    The analytic claim is Var <= (1 - s/m)^d * m; both sides are
    returned so callers can compare at their own tolerance.
    """
    if not 1 <= d <= n:
        raise ParameterError(f"need 1 <= d <= n, got d={d}, n={n}")
    if m < 1:
        raise ParameterError("need m >= 1")
    if samples < 2:
        raise ParameterError("need at least two samples")
    seed = check_seed(seed)
    items = tuple(range(1, d + 1))
    counts = np.empty(samples, dtype=np.int64)
    for t in range(samples):
        matrix = gen_rssd(n, m, s, substream(seed, t))
        counts[t] = good_row_count(matrix, items)
    alpha = s / m
    bound = (1.0 - alpha) ** d * m
    return VarianceProbe(sample_variance=float(np.var(counts, ddof=1)),
                         bound=float(bound), samples=samples)


@dataclass(frozen=True)
class TransversalCheck:
    exact: float
    empirical: float
    trials: int
    stderr: float


def transversal_prob_check(mq: QaryMatrix, n: int, d: int, trials: int,
                           seed: int) -> TransversalCheck:
    """Compare the closed-form non-disjunctness probability with frequency.

    The first d columns of mq stay fixed; the remaining n - d columns
    are redrawn uniformly each trial.  With S_i the set of symbols row i
    shows on the fixed columns, the exact probability that the expanded
    matrix fails to be disjunct for {1..d} is

        1 - (1 - prod_i |S_i| / q) ** (n - d).
    """
    _check_args(d, n, trials=trials)
    if mq.n < d:
        raise ParameterError(f"fixed matrix has only {mq.n} columns, need {d}")
    seed = check_seed(seed)
    q = mq.q
    entries = np.empty((mq.m, n), dtype=np.int64)
    entries[:, :d] = mq.entries[:, :d]
    prod = 1.0
    for row in entries[:, :d]:
        prod *= len(set(row.tolist())) / q
    exact = 1.0 - (1.0 - prod) ** (n - d)

    hits = 0
    for t in range(trials):
        entries[:, d:] = substream(seed, t).integers(1, q + 1,
                                                     size=(mq.m, n - d))
        hits += not _utdq_disjunct(entries, d)
    empirical = hits / trials
    stderr = math.sqrt(max(exact * (1.0 - exact), 1e-12) / trials)
    return TransversalCheck(exact=exact, empirical=empirical, trials=trials,
                            stderr=stderr)


def surjections_by_inclusion_exclusion(d: int, i: int) -> int:
    """Number of surjections from [d] onto [i], summed over the excluded
    symbols; exact for any size (Python ints)."""
    return sum((-1) ** j * math.comb(i, j) * (i - j) ** d for j in range(i + 1))


def ln_p_by_inclusion_exclusion(q: int, d: int) -> float:
    """ln P(q, d) as theory._ln_p_any computes it, both branches, but with
    every surjection number from the inclusion-exclusion sum."""
    top = min(q, d)
    if d * math.log2(q) <= 53:
        terms = [
            math.comb(q, i) * surjections_by_inclusion_exclusion(d, i)
            * math.log(i / q)
            for i in range(1, top + 1)
        ]
        return math.fsum(terms) / q**d
    lnq = math.log(q)
    acc = []
    for i in range(1, top + 1):
        lw = (
            math.lgamma(q + 1)
            - math.lgamma(i + 1)
            - math.lgamma(q - i + 1)
            + math.log(surjections_by_inclusion_exclusion(d, i))
            - d * lnq
        )
        if lw < -745.0:
            continue
        acc.append(math.exp(lw) * (math.log(i) - lnq))
    return math.fsum(acc)
