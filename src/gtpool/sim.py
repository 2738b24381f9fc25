"""Monte Carlo verification harness.

Success of a trial means the drawn matrix is disjunct for the defective
set {1, ..., d}; by column exchangeability of every model the choice of
which d items are defective is irrelevant, and disjunctness coincides
with exact recovery by the elimination decoder.

A trial is computed by designs.trial_disjunct, which draws the same
random numbers as the full matrix but reads only what decides the
verdict: the defective entries of each row and the good rows (the
negative tests, whose items elimination strikes).  reference_trial
keeps the full-matrix path, generate + is_disjunct + decode_eliminate;
tests/test_sim.py checks trial by trial that the decoder agrees with
disjunctness there and that the kernel agrees with both.

Determinism contract: trial t of a run draws from the substream
(master_seed, t), and a probe of the search at matrix size m derives
its seed from (master_seed, m).  Results are therefore identical for
any worker count and any probe order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import binomtest

from .decoding import decode_eliminate, good_row_count, is_disjunct
from .designs import (
    DesignSpec,
    gen_rssd,
    generate,
    optimal_param,
    trial_disjunct,
)
from .errors import InfeasibleError, ParameterError
from .matrices import QaryMatrix, expand_qary, or_columns
from .rng import check_seed, derive_seed, substream

__all__ = [
    "TrialReport",
    "ProbeRecord",
    "SearchResult",
    "SweepPoint",
    "run_trials",
    "reference_trial",
    "find_min_m",
    "run_sweep",
    "slope_fit",
    "variance_probe",
    "VarianceProbe",
    "transversal_prob_check",
    "TransversalCheck",
    "wilson_interval",
    "SEARCH_CAP",
    "WILSON_GUARD",
]

# Hard ceiling on the number of tests the minimal-m search will probe.
SEARCH_CAP = 1_000_000

# A probe passes when the Wilson lower bound clears target - WILSON_GUARD.
WILSON_GUARD = 0.03


def wilson_interval(successes: int, trials: int, confidence: float = 0.95):
    """Wilson score interval for a binomial proportion."""
    ci = binomtest(successes, trials).proportion_ci(
        confidence_level=confidence, method="wilson")
    return float(ci.low), float(ci.high)


@dataclass(frozen=True)
class TrialReport:
    """Aggregated outcome of a batch of independent trials.

    decode_successes counts trials where elimination decoding recovers
    the defective set exactly.  That happens exactly when the matrix is
    disjunct for the set (decoding.py), so it equals disjunct_successes;
    the record keeps both fields.
    """

    model: str
    n: int
    m: int
    param: float
    d: int
    trials: int
    disjunct_successes: int
    decode_successes: int
    frequency: float
    wilson_low: float
    wilson_high: float
    master_seed: int
    delta: float | None = None

    def as_record(self) -> dict:
        return {
            "model": self.model,
            "n": self.n,
            "m": self.m,
            "param": self.param,
            "d": self.d,
            "delta": self.delta,
            "trials": self.trials,
            "disjunct_successes": self.disjunct_successes,
            "decode_successes": self.decode_successes,
            "frequency": self.frequency,
            "wilson_low": self.wilson_low,
            "wilson_high": self.wilson_high,
            "master_seed": self.master_seed,
        }


def _count_chunk(args) -> int:
    spec, d, master_seed, start, stop = args
    return sum(trial_disjunct(spec, d, substream(master_seed, t))
               for t in range(start, stop))


def reference_trial(spec: DesignSpec, d: int, seed) -> tuple:
    """(disjunct, decoded) for one trial, computed on the full matrix.

    The slow oracle of designs.trial_disjunct: draws the whole matrix,
    then runs is_disjunct and the elimination decoder on it
    independently.  Elimination decoding recovers {1, ..., d} exactly
    when the matrix is disjunct for it, so the two agree.
    """
    items = tuple(range(1, d + 1))
    matrix = generate(spec, seed)
    recovered = decode_eliminate(matrix, or_columns(matrix, items))
    return is_disjunct(matrix, items), recovered == set(items)


def run_trials(spec: DesignSpec, d: int, trials: int, master_seed: int,
               jobs: int = 1, delta: float | None = None) -> TrialReport:
    """Draw matrices for one DesignSpec and count successes."""
    if not 1 <= d < spec.n:
        raise ParameterError(f"need 1 <= d < n, got d={d}, n={spec.n}")
    if trials < 1:
        raise ParameterError("need at least one trial")
    master_seed = check_seed(master_seed)
    jobs = max(1, int(jobs))

    if jobs == 1:
        disj = _count_chunk((spec, d, master_seed, 0, trials))
    else:
        chunk = math.ceil(trials / jobs)
        work = [(spec, d, master_seed, lo, min(lo + chunk, trials))
                for lo in range(0, trials, chunk)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            disj = sum(pool.map(_count_chunk, work))

    low, high = wilson_interval(disj, trials)
    return TrialReport(
        model=spec.model, n=spec.n, m=spec.m, param=spec.param, d=d,
        trials=trials, disjunct_successes=disj, decode_successes=disj,
        frequency=disj / trials, wilson_low=low, wilson_high=high,
        master_seed=master_seed, delta=delta)


# ---------------------------------------------------------------------
# minimal test count search


@dataclass(frozen=True)
class ProbeRecord:
    m: int
    successes: int
    trials: int
    wilson_low: float
    accepted: bool


@dataclass(frozen=True)
class SearchResult:
    model: str
    n: int
    d: int
    target: float
    trials_per_probe: int
    m_star: int
    probes: tuple

    def probe_records(self) -> list:
        return [
            {"m": p.m, "successes": p.successes, "trials": p.trials,
             "wilson_low": p.wilson_low, "accepted": p.accepted}
            for p in self.probes
        ]


@dataclass(frozen=True)
class SweepPoint:
    n: int
    m_star: int
    target: float
    trials_per_probe: int


def _spec_at(model: str, n: int, d: int, m: int) -> DesignSpec:
    """Spec at size m with the model's rate-optimal parameter."""
    return DesignSpec(model, n, m, optimal_param(model, n, d, m_hint=m))


def find_min_m(model: str, n: int, d: int, target: float, trials: int,
               master_seed: int, jobs: int = 1,
               cap: int = SEARCH_CAP) -> SearchResult:
    """Smallest probed m whose success estimate clears the target.

    Success frequency is monotone in m for every model, so exponential
    bracketing followed by bisection applies; a probe at m passes when
    its Wilson 95% lower bound reaches target - 0.03 (guard band against
    Monte Carlo noise).  Probes at a given m always see the same seed,
    making the result independent of the search path.
    """
    if not 0.0 <= target < 1.0:
        raise ParameterError(f"target={target} outside [0, 1)")
    if not 1 <= d < n:
        raise ParameterError(f"need 1 <= d < n, got d={d}, n={n}")
    master_seed = check_seed(master_seed)
    step = int(optimal_param("utdq", n, d)) if model == "utdq" else 1
    probes = []

    def accept(m: int) -> bool:
        rep = run_trials(_spec_at(model, n, d, m), d, trials,
                         derive_seed(master_seed, m), jobs=jobs)
        ok = rep.wilson_low >= target - WILSON_GUARD
        probes.append(ProbeRecord(m=m, successes=rep.disjunct_successes,
                                  trials=rep.trials, wilson_low=rep.wilson_low,
                                  accepted=ok))
        return ok

    lo, hi = 0, step  # m = 0 never succeeds for n > d
    while not accept(hi):
        lo = hi
        hi *= 2
        if hi > cap:
            raise InfeasibleError(
                f"no m <= {cap} reached target {target} for {model} at "
                f"n={n}, d={d} ({len(probes)} probes)")
    while hi - lo > step:
        mid = ((lo + hi) // 2) // step * step
        if mid <= lo:
            mid = lo + step
        elif mid >= hi:
            mid = hi - step
        if accept(mid):
            hi = mid
        else:
            lo = mid
    return SearchResult(model=model, n=n, d=d, target=target,
                        trials_per_probe=trials, m_star=hi,
                        probes=tuple(probes))


def run_sweep(model: str, d: int, n_list, target: float, trials: int,
              master_seed: int, jobs: int = 1) -> list:
    """find_min_m at each n; returns [(SweepPoint, SearchResult), ...].

    The arguments are checked before the first search: at least two
    distinct n (the slope fit needs them), every n > d >= 1, trials >= 1
    and target in [0, 1).
    """
    n_list = [int(n) for n in n_list]
    if len(set(n_list)) < 2:
        raise ParameterError("slope needs at least two distinct n")
    for n in n_list:
        if not 1 <= d < n:
            raise ParameterError(f"need 1 <= d < n, got d={d}, n={n}")
    if trials < 1:
        raise ParameterError("need at least one trial")
    if not 0.0 <= target < 1.0:
        raise ParameterError(f"target={target} outside [0, 1)")
    out = []
    for n in n_list:
        search = find_min_m(model, n, d, target, trials,
                            derive_seed(master_seed, n), jobs=jobs)
        out.append((SweepPoint(n=n, m_star=search.m_star, target=target,
                               trials_per_probe=trials), search))
    return out


def slope_fit(points, d: int) -> float:
    """Least-squares slope of m_star against ln n, divided by d."""
    pts = [(p.n, p.m_star) if isinstance(p, SweepPoint) else tuple(p)
           for p in points]
    if len(pts) < 2:
        raise ParameterError("slope needs at least two points")
    xs = np.log([float(n) for n, _ in pts])
    ys = np.array([float(ms) for _, ms in pts])
    if np.unique(xs).size < 2:
        raise ParameterError("slope needs at least two distinct n")
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope) / d


# ---------------------------------------------------------------------
# focused probes backing two of the analytic guarantees


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
    if not 1 <= d < n:
        raise ParameterError(f"need 1 <= d < n, got d={d}, n={n}")
    if mq.n < d:
        raise ParameterError(f"fixed matrix has only {mq.n} columns, need {d}")
    if trials < 1:
        raise ParameterError("need at least one trial")
    seed = check_seed(seed)
    q = mq.q
    fixed = np.array(mq.entries[:, :d])
    prod = 1.0
    for i in range(mq.m):
        prod *= len(set(int(v) for v in fixed[i])) / q
    exact = 1.0 - (1.0 - prod) ** (n - d)

    items = tuple(range(1, d + 1))
    hits = 0
    for t in range(trials):
        rng = substream(seed, t)
        entries = np.empty((mq.m, n), dtype=np.int64)
        entries[:, :d] = fixed
        entries[:, d:] = rng.integers(1, q + 1, size=(mq.m, n - d))
        expanded = expand_qary(QaryMatrix(mq.m, n, q, entries))
        hits += not is_disjunct(expanded, items)
    empirical = hits / trials
    stderr = math.sqrt(max(exact * (1.0 - exact), 1e-12) / trials)
    return TransversalCheck(exact=exact, empirical=empirical, trials=trials,
                            stderr=stderr)
