"""The paper's proof steps, as probes and exact formulas for the tests.

None of this is needed to build, size, decode or simulate a design, so
it lives beside the tests rather than in the package: the good-row count
and its variance bound, the transversal failure lemma of the q-ary
model, the Stirling step behind the entropy rates, the
inclusion-exclusion sum that theory's surjection recurrence is checked
against, the exact success probability of each model's designs, and the
exact law of the minimal-m search's answer for rid.
"""

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cache

import numpy as np

from gtpool.designs import _check_args, _utdq_uncovered, gen_rssd, spec_at
from gtpool.errors import ParameterError
from gtpool.matrices import BitMatrix, QaryMatrix, _item_mask
from gtpool.rng import check_seed, substream
from gtpool.sim import SEARCH_CAP, wilson_interval
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
        hits += bool(_utdq_uncovered(entries, d).any())
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


def rssd_success_probability(n: int, m: int, s: int, d: int) -> float:
    """Probability that an rssd design (n columns, i.i.d. uniform among
    the weight-s columns of m rows) is disjunct for its first d columns.

    The d defective columns cover u rows; a dynamic program over them
    gives Pr(u), each new column meeting the u rows covered so far in j
    of its s rows with hypergeometric probability.  Every other column
    is covered by one of the m - u good rows unless its s rows all lie
    among the u bad ones, so

        P = sum over u of Pr(u) * (1 - C(u, s) / C(m, s)) ** (n - d).
    """
    total = math.comb(m, s)
    union = {0: 1.0}
    for _ in range(d):
        grown = defaultdict(float)
        for u, pr in union.items():
            for j in range(max(0, s - (m - u)), min(s, u) + 1):
                grown[u + s - j] += (pr * math.comb(u, j)
                                     * math.comb(m - u, s - j) / total)
        union = grown
    return math.fsum(pr * (1.0 - math.comb(u, s) / total) ** (n - d)
                     for u, pr in union.items())


def rrsd_success_probability(n: int, m: int, r: int, d: int) -> float:
    """Probability that an rrsd design (m i.i.d. uniform weight-r rows of
    n entries) is disjunct for its first d < n columns.

    A row is good, 0 on every defective column, with probability
    C(N, r) / C(n, r), N = n - d, so the good-row count g is Binomial(m,
    that), and a good row's support is a uniform r-subset of the N other
    columns.  A chain over the count c of those that the good rows cover
    so far gives Cover_g, the chance that g good rows cover all N: each
    new one covers j more with hypergeometric probability
    C(N - c, j) C(c, r - j) / C(N, r).  Then

        P = sum over g of Pr(g) * Cover_g.

    Inclusion-exclusion over the uncovered columns also gives Cover_g,
    but cancels catastrophically at small g.
    """
    big = n - d
    if r > big:
        return 0.0  # no row is good
    good = math.comb(big, r) / math.comb(n, r)
    ln_fact = np.array([math.lgamma(k + 1.0) for k in range(big + 1)])

    def ln_comb(a, b):
        return ln_fact[a] - ln_fact[b] - ln_fact[a - b]

    # step[c, c + j]: the chance that a good row takes the covered count
    # from c to c + j
    c, j = np.indices((big + 1, r + 1))
    ok = (j <= big - c) & (r - j <= c)
    c, j = c[ok], j[ok]
    step = np.zeros((big + 1, big + 1))
    step[c, c + j] = np.exp(ln_comb(big - c, j) + ln_comb(c, r - j)
                            - ln_comb(big, r))
    covered = np.zeros(big + 1)
    covered[0] = 1.0
    cover = [covered[big]]
    for _ in range(m):
        covered = covered @ step
        cover.append(covered[big])
    return math.fsum(math.comb(m, g) * good ** g * (1.0 - good) ** (m - g)
                     * cover[g] for g in range(m + 1))


def rid_success_probability(n: int, m: int, p: float, d: int) -> float:
    """Probability that an rid design (m x n entries, each 0 with
    probability p) is disjunct for its first d columns.

    A row is good, 0 on every defective column, with probability p^d, so
    the good-row count g is Binomial(m, p^d).  Every other column is
    covered unless it is 0 in all g good rows, independently, so

        P = sum over g of Pr(g) * (1 - p^g) ** (n - d).
    """
    good = p ** d
    return math.fsum(math.comb(m, g) * good ** g * (1.0 - good) ** (m - g)
                     * (1.0 - p ** g) ** (n - d) for g in range(m + 1))


def utdq_success_probability(n: int, m_prime: int, q: int, d: int) -> float:
    """Probability that a utdq design (m' q-ary rows of n i.i.d. uniform
    entries in [1, q], expanded) is disjunct for its first d columns.

    Each row shows k distinct symbols on the defective columns with
    probability C(q, k) * surj(d, k) / q^d, independently of the other
    rows.  Another column is left uncovered when each row's entry in it
    is one of that row's k symbols, with probability prod k / q over the
    rows.  A dynamic program over the rows, keyed by how many rows show
    each k (integers, so no two states merge by rounding), gives

        P = sum over counts c of Pr(c) * (1 - prod_k (k/q)^c_k) ** (n - d).
    """
    top = min(q, d)
    shown = [math.comb(q, k) * surjections_by_inclusion_exclusion(d, k)
             / q ** d for k in range(1, top + 1)]
    counts = {(0,) * top: 1.0}
    for _ in range(m_prime):
        grown = defaultdict(float)
        for c, pr in counts.items():
            for k, pk in enumerate(shown):
                grown[c[:k] + (c[k] + 1,) + c[k + 1:]] += pr * pk
        counts = grown
    return math.fsum(
        pr * (1.0 - math.prod(((k + 1) / q) ** ck for k, ck in enumerate(c)))
        ** (n - d) for c, pr in counts.items())


# The search's guard band: a probe passes when its Wilson lower bound
# reaches target - SEARCH_GUARD.  It is sim.WILSON_GUARD written out, so
# that the law does not move with the code it checks.
SEARCH_GUARD = 0.03


def rid_search_law(n: int, d: int, target: float, trials: int) -> dict:
    """The law of find_min_m("rid", n, d, target, trials, seed).m_star
    over seeds, as {m: probability}, with independent probes.

    A probe at m runs trials trials from a seed of its own, so the probes
    of one search are independent, and it passes with probability
    Pr[Binomial(trials, P(m)) >= k_min]: P(m) is rid_success_probability
    at the spec the search builds, and k_min the least success count
    whose Wilson lower bound reaches target - SEARCH_GUARD.  The search
    doubles hi from 1 until a probe passes, then bisects between the
    last failed m (0 at first) and hi; the law sums the probability of
    each path of that tree onto the m it ends at.  A path the search
    would refuse at SEARCH_CAP carries no mass; neither does one whose
    probability underflows to 0.
    """
    k_min = next(k for k in range(trials + 1)
                 if wilson_interval(k, trials)[0] >= target - SEARCH_GUARD)

    @cache
    def passes(m: int) -> float:
        spec = spec_at("rid", n, d, m)
        p = rid_success_probability(n, m, spec.param, d)
        return math.fsum(math.comb(trials, k) * p ** k
                         * (1.0 - p) ** (trials - k)
                         for k in range(k_min, trials + 1))

    law = defaultdict(float)

    def bisect(lo: int, hi: int, weight: float) -> None:
        if not weight:
            return
        if hi - lo <= 1:
            law[hi] += weight
            return
        mid = (lo + hi) // 2
        bisect(lo, mid, weight * passes(mid))
        bisect(mid, hi, weight * (1.0 - passes(mid)))

    lo, hi, reach = 0, 1, 1.0  # reach: the chance every probe so far failed
    while reach and hi <= SEARCH_CAP:
        bisect(lo, hi, reach * passes(hi))
        reach *= 1.0 - passes(hi)
        lo, hi = hi, 2 * hi
    return dict(law)
