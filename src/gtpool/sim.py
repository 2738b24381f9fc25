"""Monte Carlo verification harness: trial counts with Wilson intervals,
and the minimal-m search.  The probes of the paper's lemmas are test
code, in tests/lemmas.py.

Success of a trial means the drawn matrix is disjunct for the defective
set {1, ..., d}; by column exchangeability of every model the choice of
which d items are defective is irrelevant, and disjunctness coincides
with exact recovery by the elimination decoder.

A trial is computed by designs.trial_disjunct without the matrix: it
reads the random stream in the full matrix's layout, and only what
decides the verdict, so its verdict is the full matrix's; its docstring
describes each model's kernel.  reference_trial keeps the full-matrix
path, generate + is_disjunct + decode_eliminate, as the oracle:
tests/test_sim.py checks trial by trial that the decoder agrees with
disjunctness there and that the kernel agrees with both.

Determinism contract: trial t of a run draws from the substream
(master_seed, t), and a probe of the search at matrix size m derives
its seed from (master_seed, m).  Results are therefore identical for
any worker count and any probe order.  A chunk of trials derives its
generators through rng.substreams, which hashes the seed words of a
block of trials in one pass.  Each is the generator that
substream(master_seed, t) builds; substream is its oracle
(tests/test_rng.py).

At jobs > 1, run_trials maps its chunks onto a process pool of one
worker per chunk.  A search (find_min_m, run_sweep) starts that pool
once and holds it open for every probe it makes; run_trials called
outside a search starts its own.  At jobs = 1 no pool is imported or
started, and a search checks its arguments before it starts one.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from . import designs
from .decoding import decode_eliminate, is_disjunct
from .designs import (
    DesignSpec,
    _check_args,
    _check_model,
    generate,
    trial_disjunct,
)
from .errors import InfeasibleError, ParameterError, _whole
from .matrices import or_columns
# substream is not called here; perfbench/spans.py times sim.substream
from .rng import check_seed, derive_seed, substream, substreams  # noqa: F401

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
    "wilson_interval",
    "SEARCH_CAP",
    "WILSON_GUARD",
]

# Hard ceiling on the number of tests the minimal-m search will probe.
SEARCH_CAP = 1_000_000

# A probe passes when the Wilson lower bound clears target - WILSON_GUARD.
WILSON_GUARD = 0.03


def wilson_interval(successes: int, trials: int):
    """Wilson (1927) 95% score interval, in Newcombe's (1998) closed form.

    Evaluated as SciPy 1.17's binomtest(...).proportion_ci(method="wilson")
    with its z = ndtri(0.975), bit for bit; NormalDist's z is one ULP off.
    """
    if trials < 1 or not 0 <= successes <= trials:
        raise ParameterError(f"bad binomial count {successes}/{trials}")
    n, p, z = trials, successes / trials, 1.959963984540054
    denom = 2 * (n + z**2)
    center = (2 * n * p + z**2) / denom
    half = z / denom * math.sqrt(4 * n * p * (1 - p) + z**2)
    return (0.0 if successes == 0 else center - half,
            1.0 if successes == trials else center + half)


@dataclass(frozen=True, kw_only=True)
class TrialReport:
    """Aggregated outcome of a batch of independent trials.

    The fields, in order, are the record as_record() gives and
    ``gtpool mc`` prints.  decode_successes counts trials where
    elimination decoding recovers the defective set exactly.  That
    happens exactly when the matrix is disjunct for the set
    (decoding.py), so it equals disjunct_successes; the record keeps
    both fields.
    """

    model: str
    n: int
    m: int
    param: float
    d: int
    delta: float | None = None
    trials: int
    disjunct_successes: int
    decode_successes: int
    frequency: float
    wilson_low: float
    wilson_high: float
    master_seed: int

    def as_record(self) -> dict:
        return asdict(self)


# the pools the searches of this thread hold open, by worker count
_held = threading.local()


@contextmanager
def _pool(trials: int, jobs: int):
    """A pool of one worker per chunk of trials, or None at jobs = 1.

    Yields the pool a search on this thread already holds for that worker
    count, or else starts one for the block and holds it for the calls
    made inside it.
    """
    if jobs == 1:
        yield None
        return
    workers = math.ceil(trials / math.ceil(trials / jobs))
    held = vars(_held).setdefault("pools", {})
    if workers in held:
        yield held[workers]
        return
    # imported here: it costs every CLI start about 20 ms otherwise
    from concurrent.futures import ProcessPoolExecutor

    # fork starts every worker up front: no more than there are chunks
    with ProcessPoolExecutor(max_workers=workers) as pool:
        held[workers] = pool
        try:
            yield pool
        finally:
            del held[workers]


def _count_chunk(args) -> int:
    spec, d, master_seed, start, stop = args
    return sum(trial_disjunct(spec, d, rng)
               for rng in substreams(master_seed, start, stop))


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
    """Draw matrices for one DesignSpec and count successes.

    At jobs > 1 the trials are split into chunks of ceil(trials / jobs),
    one per worker, on the pool of the enclosing search if there is one.
    """
    _check_args(d, spec.n, trials=trials, jobs=jobs, delta=delta)
    master_seed = check_seed(master_seed)

    chunk = math.ceil(trials / jobs)
    work = [(spec, d, master_seed, lo, min(lo + chunk, trials))
            for lo in range(0, trials, chunk)]
    with _pool(trials, jobs) as pool:
        disj = (_count_chunk(work[0]) if pool is None
                else sum(pool.map(_count_chunk, work)))

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
        return [asdict(p) for p in self.probes]


@dataclass(frozen=True)
class SweepPoint:
    n: int
    m_star: int
    target: float
    trials_per_probe: int


def _check_reach(target: float, trials: int) -> None:
    """Refuse a target that a probe winning every trial would not pass."""
    if wilson_interval(trials, trials)[0] < target - WILSON_GUARD:
        raise InfeasibleError(f"target {target} is out of reach with "
                              f"{trials} trials per probe, even if all succeed")


def find_min_m(model: str, n: int, d: int, target: float, trials: int,
               master_seed: int, jobs: int = 1) -> SearchResult:
    """Smallest probed m whose success estimate clears the target.

    Success frequency is monotone in m for every model, so exponential
    bracketing followed by bisection applies; a probe at m passes when
    its Wilson 95% lower bound reaches target - WILSON_GUARD (guard band
    against Monte Carlo noise).  Both run in whole steps, m = k * step,
    where step is q for utdq (its m counts binary rows, q per q-ary row)
    and 1 otherwise.  Probes at a given m always see the same seed, making the
    result independent of the search path.  The arguments, and whether
    a probe that wins every trial would pass, are checked first.  At
    jobs > 1 every probe runs on one worker pool, started for this
    search unless an enclosing run_sweep holds one.
    """
    _check_model(model)
    _check_args(d, n, trials=trials, target=target, jobs=jobs)
    master_seed = check_seed(master_seed)
    _check_reach(target, trials)
    step = int(designs.optimal_param("utdq", n, d)) if model == "utdq" else 1
    probes = []

    def accept(m: int) -> bool:
        rep = run_trials(designs.spec_at(model, n, d, m), d, trials,
                         derive_seed(master_seed, m), jobs=jobs)
        ok = rep.wilson_low >= target - WILSON_GUARD
        probes.append(ProbeRecord(m=m, successes=rep.disjunct_successes,
                                  trials=rep.trials, wilson_low=rep.wilson_low,
                                  accepted=ok))
        return ok

    lo, hi = 0, 1  # in steps; m = 0 never succeeds for n > d
    with _pool(trials, jobs):
        while not accept(hi * step):
            lo = hi
            hi *= 2
            if hi * step > SEARCH_CAP:
                raise InfeasibleError(
                    f"no m <= {SEARCH_CAP} reached target {target} for "
                    f"{model} at n={n}, d={d} ({len(probes)} probes)")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if accept(mid * step):
                hi = mid
            else:
                lo = mid
    return SearchResult(model=model, n=n, d=d, target=target,
                        trials_per_probe=trials, m_star=hi * step,
                        probes=tuple(probes))


def run_sweep(model: str, d: int, n_list, target: float, trials: int,
              master_seed: int, jobs: int = 1) -> list:
    """find_min_m at each n; returns [(SweepPoint, SearchResult), ...].

    The arguments are checked before the first search: a known model,
    at least two distinct n (the slope fit needs them), every n > d >= 1,
    trials >= 1, target in [0, 1), jobs >= 1, and a target that trials
    per probe can reach.  At jobs > 1 one worker pool then serves every
    probe of every search.
    """
    _check_model(model)
    n_list = [_whole(n, "n") for n in n_list]
    if len(set(n_list)) < 2:
        raise ParameterError("slope needs at least two distinct n")
    _check_args(d, *n_list, trials=trials, target=target, jobs=jobs)
    _check_reach(target, trials)
    out = []
    with _pool(trials, jobs):
        for n in n_list:
            search = find_min_m(model, n, d, target, trials,
                                derive_seed(master_seed, n), jobs=jobs)
            out.append((SweepPoint(n=n, m_star=search.m_star, target=target,
                                   trials_per_probe=trials), search))
    return out


def slope_fit(points, d: int) -> float:
    """Least-squares slope of the points' m_star against ln n, over d."""
    points = list(points)
    if len(points) < 2:
        raise ParameterError("slope needs at least two points")
    xs = np.log([float(p.n) for p in points])
    ys = np.array([float(p.m_star) for p in points])
    if len(set(xs.tolist())) < 2:  # np.unique would import numpy.ma
        raise ParameterError("slope needs at least two distinct n")
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope) / d
