"""Random pool designs: generation, optimal parameters, and test-count sizing.

Four models, all row-i.i.d. or column-i.i.d.:

  rid    entries i.i.d., zero with probability p
  rrsd   rows i.i.d., uniform over weight-r rows
  rssd   columns i.i.d., uniform over weight-s columns
  utdq   a q-ary matrix with i.i.d. uniform entries, expanded so each
         q-ary row becomes q indicator rows (m binary rows = q * m')

Sizing solves the number of tests m that makes a design disjunct for d
defectives among n items with probability 1 - delta.  The guarantees
carry a square-root correction in m, so the displays are implicit; the
two row-i.i.d. models reduce to a quadratic in sqrt(m), the others use
a short fixed-point iteration whose convergence (and the validity bound
on the correction factor) decides feasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import theory
from .errors import DimensionError, ParameterError
from .matrices import BitMatrix, QaryMatrix, expand_qary
from .rng import as_generator

__all__ = [
    "MODELS",
    "DesignSpec",
    "SizingResult",
    "gen_rid",
    "gen_rrsd",
    "gen_rssd",
    "gen_utdq",
    "generate",
    "trial_disjunct",
    "optimal_param",
    "upper_bound_m",
    "lower_bound_m",
]

MODELS = theory.MODELS

_E = math.e
# Entries drawn per block when generating large matrices, to bound the
# transient float buffer (~32 MB).
_BLOCK_ENTRIES = 4_000_000


def _check_model(model: str) -> str:
    if model not in MODELS:
        raise ParameterError(f"unknown model {model!r}; expected one of {MODELS}")
    return model


@dataclass(frozen=True)
class DesignSpec:
    """A fully pinned design: model, dimensions, and its one parameter.

    param means p for rid, r for rrsd, s for rssd, q for utdq; for utdq
    m counts binary rows and must be a multiple of q.
    """

    model: str
    n: int
    m: int
    param: float

    def __post_init__(self):
        _check_model(self.model)
        if self.n < 1:
            raise DimensionError("n must be >= 1")
        if self.m < 0:
            raise DimensionError("m must be >= 0")
        p = self.param
        if self.model == "rid":
            if not 0.0 < p < 1.0:
                raise ParameterError(f"p={p} outside (0, 1)")
        elif self.model == "rrsd":
            if p != int(p) or not 0 <= p <= self.n:
                raise ParameterError(f"r={p} outside 0..{self.n}")
        elif self.model == "rssd":
            if p != int(p) or not 0 <= p <= self.m:
                raise ParameterError(f"s={p} outside 0..{self.m}")
        else:
            if p != int(p) or p < 2:
                raise ParameterError(f"q={p} must be an integer >= 2")
            if self.m % int(p):
                raise ParameterError(f"m={self.m} not a multiple of q={int(p)}")


# ---------------------------------------------------------------------
# generation


def _rows_from_dense_block(dense) -> list:
    n = dense.shape[1]
    pad = (-n) % 8
    packed = np.packbits(dense, axis=1)
    return [int.from_bytes(r.tobytes(), "big") >> pad for r in packed]


def gen_rid(n: int, m: int, p: float, seed) -> BitMatrix:
    """Matrix with i.i.d. entries, each zero with probability p."""
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p={p} outside (0, 1)")
    if n < 1 or m < 0:
        raise DimensionError(f"bad shape {m} x {n}")
    rng = as_generator(seed)
    rows = []
    block = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, m, block):
        stop = min(start + block, m)
        dense = rng.random((stop - start, n)) >= p
        rows.extend(_rows_from_dense_block(dense.astype(np.uint8)))
    return BitMatrix(m, n, rows)


def gen_rrsd(n: int, m: int, r: int, seed) -> BitMatrix:
    """Matrix whose rows are i.i.d. uniform weight-r rows."""
    r = int(r)
    if not 0 <= r <= n:
        raise ParameterError(f"r={r} outside 0..{n}")
    if n < 1 or m < 0:
        raise DimensionError(f"bad shape {m} x {n}")
    rng = as_generator(seed)
    rows = []
    block = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, m, block):
        rows_b = min(start + block, m) - start
        dense = np.zeros((rows_b, n), dtype=np.uint8)
        if r == n:
            dense[:] = 1
        elif r > 0:
            # the r smallest of n i.i.d. uniform keys form a uniform r-subset
            keys = rng.random((rows_b, n))
            idx = np.argpartition(keys, r - 1, axis=1)[:, :r]
            dense[np.arange(rows_b)[:, None], idx] = 1
        rows.extend(_rows_from_dense_block(dense))
    return BitMatrix(m, n, rows)


def gen_rssd(n: int, m: int, s: int, seed) -> BitMatrix:
    """Matrix whose columns are i.i.d. uniform weight-s columns."""
    s = int(s)
    if not 0 <= s <= m:
        raise ParameterError(f"s={s} outside 0..{m}")
    if n < 1 or m < 0:
        raise DimensionError(f"bad shape {m} x {n}")
    rng = as_generator(seed)
    dense = np.zeros((m, n), dtype=np.uint8)
    if m:
        block = max(1, _BLOCK_ENTRIES // max(m, 1))
        for start in range(0, n, block):
            stop = min(start + block, n)
            cols_b = stop - start
            if s == m:
                dense[:, start:stop] = 1
            elif s > 0:
                keys = rng.random((m, cols_b))
                idx = np.argpartition(keys, s - 1, axis=0)[:s, :]
                dense[idx, np.arange(start, stop)[None, :]] = 1
    return BitMatrix(m, n, _rows_from_dense_block(dense) if m else [])


def gen_utdq(n: int, m_prime: int, q: int, seed) -> QaryMatrix:
    """q-ary matrix with i.i.d. uniform entries in [1, q]."""
    q = int(q)
    if q < 2:
        raise ParameterError("q must be >= 2")
    if n < 1 or m_prime < 0:
        raise DimensionError(f"bad shape {m_prime} x {n}")
    rng = as_generator(seed)
    entries = rng.integers(1, q + 1, size=(m_prime, n), dtype=np.int64)
    return QaryMatrix(m_prime, n, q, entries)


def generate(spec: DesignSpec, seed) -> BitMatrix:
    """Draw one binary test matrix for the given DesignSpec."""
    if spec.model == "rid":
        return gen_rid(spec.n, spec.m, spec.param, seed)
    if spec.model == "rrsd":
        return gen_rrsd(spec.n, spec.m, int(spec.param), seed)
    if spec.model == "rssd":
        return gen_rssd(spec.n, spec.m, int(spec.param), seed)
    q = int(spec.param)
    return expand_qary(gen_utdq(spec.n, spec.m // q, q, seed))


# ---------------------------------------------------------------------
# one Monte Carlo trial without the matrix


# Doubles per chunk in the row-wise kernels (rid whole rows, rrsd).  A
# chunk that stays in cache makes the passes over it faster than over a
# generator block: rrsd at n = 10^4, d = 3 and sized m takes 5.7 ms per
# trial against 19 ms with each block drawn whole (2-core x86 host,
# 4 MiB L2).
_CHUNK_ENTRIES = 1 << 15

# rid rows at least this long are drawn head first, skipping the tail of
# each positive row with advance(); shorter rows are drawn whole, in
# chunks.  Measured per trial at d = 3, rate-optimal p and sized m (same
# host): whole rows win at n = 100 (0.10 against 0.26 ms) and n = 300
# (0.20 against 0.34 ms), the two tie at n = 1000 (0.51 against 0.54
# ms), and head first wins at n = 2000 (0.77 against 0.95 ms) and
# n = 10^4 (2.0 against 5.0 ms).
_RID_SKIP_MIN_N = 1000


def trial_disjunct(spec: DesignSpec, d: int, seed) -> bool:
    """is_disjunct(generate(spec, seed), range(1, d + 1)), without the matrix.

    The defective set is items 1..d, the first d columns.  A row with no
    defective is good; the set is disjunct iff every other column has a
    1 in some good row (elimination decoding then strikes it).  Each
    kernel consumes the random stream exactly as its generator lays it
    out, so the verdict is the full path's for every seed:

      rid   entry (i, j) is the double at stream position i*n + j, for
            any block split.  Each row's d head entries are drawn; a
            positive row's other n - d are skipped with advance(), a
            good row's are drawn and OR'ed into the coverage.
      rrsd  row i's n keys are the doubles at stream positions i*n to
            i*n + n - 1, for any block split; a row's support is its r
            smallest keys.  The row is good when its smallest defective
            key ranks >= r, found by counting; only good rows go through
            the generator's argpartition.
      rssd  the generator's column blocks of m keys, row-major within a
            block; a column's support is its s smallest keys.  The
            defective columns' argpartition gives the good rows G, and
            column j is covered when fewer than s of its keys lie below
            min(keys[G, j]).
      utdq  the generator's m/q x n integers in [1, q]; q-ary row i
            covers column j when entry (i, j) is not one of row i's
            defective symbols (its indicator row is then good).

    Where a rank count meets a key tied at the selection boundary, the
    generator's own argpartition decides that row or column.
    """
    n, m = spec.n, spec.m
    d = int(d)
    if not 1 <= d <= n:
        raise ParameterError(f"need 1 <= d <= n, got d={d}, n={n}")
    if d == n:
        return True  # no column to cover
    rng = as_generator(seed)
    if spec.model == "rid":
        return _trial_rid(n, m, spec.param, d, rng)
    if spec.model == "rrsd":
        return _trial_rrsd(n, m, int(spec.param), d, rng)
    if spec.model == "rssd":
        return _trial_rssd(n, m, int(spec.param), d, rng)
    q = int(spec.param)
    return _trial_utdq(n, m // q, q, d, rng)


def _row_chunks(rng, m: int, n: int):
    """The next m x n doubles of the stream, as consecutive row chunks.

    The chunks share one buffer, so each is valid only until the next is
    drawn.  Row-wise generators draw the same numbers in other blocks.
    """
    step = max(1, _CHUNK_ENTRIES // n)
    buf = np.empty((min(step, m), n))
    for start in range(0, m, step):
        chunk = buf[:min(step, m - start)]
        rng.random(out=chunk)
        yield chunk


def _trial_rid(n, m, p, d, rng) -> bool:
    covered = np.zeros(n - d, dtype=bool)
    if n < _RID_SKIP_MIN_N:
        for vals in _row_chunks(rng, m, n):
            good = (vals[:, :d] < p).all(axis=1)
            covered |= (vals[good, d:] >= p).any(axis=0)
            if covered.all():
                return True
        return False
    draw, skip = rng.random, rng.bit_generator.advance
    tail = np.empty(n - d)
    for _ in range(m):
        for k in range(d):
            if draw() >= p:  # a positive row: skip the rest of it
                skip(n - 1 - k)
                break
        else:
            draw(out=tail)
            covered |= tail >= p
            if covered.all():
                return True
    return False


def _tied(keys, pivot, count: int):
    """Mask of the rows of keys where argpartition's tie-break decides.

    Each row has more than count keys at or below its pivot.  Where
    fewer than count lie strictly below it, keys equal to the pivot
    straddle the boundary of the count smallest, and which of them are
    selected depends on argpartition, not on the values alone.
    """
    return np.count_nonzero(keys < pivot, axis=-1) < count


def _trial_rrsd(n, m, r, d, rng) -> bool:
    if r == 0 or r == n:
        return False  # no row holds anything, or every row every item
    covered = np.zeros(n, dtype=bool)
    covered[:d] = True
    for keys in _row_chunks(rng, m, n):
        low = keys[:, :d].min(axis=1, keepdims=True)
        # good iff the smallest defective key is not among the r smallest
        at_most = np.count_nonzero(keys <= low, axis=1)
        good = at_most > r
        maybe = np.flatnonzero(good)
        tied = maybe[_tied(keys[maybe], low[maybe], r)]
        if tied.size:
            idx = np.argpartition(keys[tied], r - 1, axis=1)[:, :r]
            good[tied] = ~(idx < d).any(axis=1)
        rows = np.flatnonzero(good)
        if rows.size:
            idx = np.argpartition(keys[rows], r - 1, axis=1)[:, :r]
            covered[idx.ravel()] = True
            if covered.all():
                return True
    return False


def _trial_rssd(n, m, s, d, rng) -> bool:
    if s == 0 or s == m:
        return False  # no row holds anything, or every row every item
    block = max(1, _BLOCK_ENTRIES // m)
    defective = np.zeros(m, dtype=bool)
    good = None
    for start in range(0, n, block):
        keys = rng.random((m, min(start + block, n) - start))
        if good is None:  # the block holds defective columns
            rows = np.argpartition(keys[:, :d - start], s - 1, axis=0)[:s, :]
            defective[rows.ravel()] = True
            if start + keys.shape[1] < d:
                continue  # a block narrower than d: all of it defective
            good = np.flatnonzero(~defective)
            if not good.size:
                return False
            keys = keys[:, d - start:]
        if not _rssd_block_covered(keys, good, s):
            return False
    return True


def _rssd_block_covered(keys, good, s: int) -> bool:
    """Every column of keys has one of its s smallest keys in a good row."""
    low = keys[good].min(axis=0)
    # covered iff a good row's key is among the column's s smallest
    at_most = np.count_nonzero(keys <= low, axis=0)
    left = np.flatnonzero(at_most > s)
    if not left.size:
        return True
    cols = keys[:, left].T
    tied = left[_tied(cols, low[left, None], s)]
    if tied.size < left.size:
        return False
    sel = np.argpartition(keys[:, tied], s - 1, axis=0)[:s, :]
    return bool(np.isin(sel, good).any(axis=0).all())


def _trial_utdq(n, m_prime, q, d, rng) -> bool:
    entries = rng.integers(1, q + 1, size=(m_prime, n), dtype=np.int64)
    rest = entries[:, d:]
    # in_head[i, j]: entry (i, j) is one of row i's defective symbols
    in_head = rest == entries[:, :1]
    for k in range(1, d):
        in_head |= rest == entries[:, k:k + 1]
    return bool((~in_head).any(axis=0).all())


# ---------------------------------------------------------------------
# optimal parameters


def optimal_param(model: str, n: int, d: int, m_hint: int | None = None):
    """Rate-optimal parameter for a model at (n, d).

    rssd needs m_hint because its parameter is a row count s = alpha*m;
    the others ignore it.
    """
    _check_model(model)
    if d < 1:
        raise ParameterError("d must be >= 1")
    if model == "rid":
        return math.exp(-1.0 / d)
    if model == "rrsd":
        if n < d:
            raise ParameterError("need n >= d")
        return int(round((1.0 - math.exp(-1.0 / d)) * (n - d + 1)))
    if model == "rssd":
        if m_hint is None:
            raise ParameterError("rssd parameter needs m_hint (s = alpha * m)")
        alpha, _ = theory.rssd_alpha_star(d)
        return max(0, min(int(m_hint), int(round(alpha * m_hint))))
    return theory.utdq_q_star(d)[0]


# ---------------------------------------------------------------------
# sizing


@dataclass(frozen=True)
class SizingResult:
    """Outcome of a test-count bound.

    m is the rounded-up integer count, m_real the pre-rounding root.
    lam is the model's square-root correction factor at the returned m
    (None where the display has no such factor); when the correction
    leaves its validity range, feasible is False and reason says why.
    """

    model: str
    bound: str  # "upper" | "lower"
    n: int
    d: int
    delta: float | None
    m: int
    m_real: float
    lam: float | None
    feasible: bool
    reason: str | None = None
    alpha: float | None = None
    q: int | None = None
    m_prime: float | None = None

    def as_record(self) -> dict:
        return {
            "model": self.model,
            "bound": self.bound,
            "n": self.n,
            "d": self.d,
            "delta": self.delta,
            "m": self.m,
            "m_real": self.m_real,
            "lambda": self.lam,
            "feasible": self.feasible,
            "reason": self.reason,
            "alpha": self.alpha,
            "q": self.q,
            "m_prime": self.m_prime,
        }


def _infeasible(model, bound, n, d, delta, reason, **extra) -> SizingResult:
    return SizingResult(model=model, bound=bound, n=n, d=d, delta=delta,
                        m=0, m_real=0.0, lam=extra.pop("lam", None),
                        feasible=False, reason=reason, **extra)


def _check_sizing_args(n, d, delta):
    if not 1 <= d < n:
        raise ParameterError(f"need 1 <= d < n, got d={d}, n={n}")
    if delta is not None and not 0.0 < delta < 1.0:
        raise ParameterError(f"delta={delta} outside (0, 1)")


def _quadratic_root_minus(b: float, c: float) -> float:
    """Positive root t of t^2 - b t - c = 0 (b, c >= 0)."""
    return 0.5 * (b + math.sqrt(b * b + 4.0 * c))


def _quadratic_root_plus(b: float, c: float) -> float:
    """Positive root t of t^2 + b t - c = 0 (returns 0 when c <= 0)."""
    if c <= 0.0:
        return 0.0
    return 0.5 * (-b + math.sqrt(b * b + 4.0 * c))


def upper_bound_m(model: str, n: int, d: int, delta: float,
                  q: int | None = None, exact_utdq: bool = False) -> SizingResult:
    """Tests sufficient for a 1-delta disjunctness guarantee.

    For utdq, q defaults to the rate-optimal alphabet; the default
    display is the simple transversal bound, the exact one (with its
    q^(d+1)-scale correction) sits behind exact_utdq=True.
    """
    _check_model(model)
    _check_sizing_args(n, d, delta)

    if model in ("rid", "rrsd"):
        b = math.sqrt(2.0 * _E * math.log(2.0 / delta))
        c = _E * d * math.log(2.0 * n / delta)
        t = _quadratic_root_minus(b, c)
        m_real = t * t
        return SizingResult(model=model, bound="upper", n=n, d=d, delta=delta,
                            m=math.ceil(m_real), m_real=m_real,
                            lam=b / t, feasible=True)

    if model == "rssd":
        return _rssd_upper(n, d, delta)

    if q is None:
        q = theory.utdq_q_star(d)[0]
    q = int(q)
    if q < 2:
        raise ParameterError("q must be >= 2")
    if exact_utdq:
        return _utdq_upper_exact(n, d, delta, q)
    denom = -math.log1p(-((1.0 - 1.0 / q) ** d))
    m_real = q * math.log(n / delta) / denom
    m = q * math.ceil(m_real / q)
    return SizingResult(model="utdq", bound="upper", n=n, d=d, delta=delta,
                        m=m, m_real=m_real, lam=0.0, feasible=True,
                        q=q, m_prime=m // q)


def _rssd_upper(n: int, d: int, delta: float) -> SizingResult:
    if d < 2:
        return _infeasible("rssd", "upper", n, d, delta,
                           "column-weight sizing display is singular at d=1")
    alpha, fmax = theory.rssd_alpha_star(d)
    beta = -math.expm1(d * math.log1p(-alpha))
    good = (1.0 - alpha) ** d  # chance a fixed row avoids all d defectives
    m_prime = (
        math.log(n) + math.log(3.0 / delta)
        + 0.5 * math.log(beta * (1.0 - alpha) / (beta - alpha))
    ) / (math.log(2.0) * fmax)

    def lam_at(m):
        return 2.0 / math.sqrt(delta * good * m)

    m = m_prime
    converged = False
    for _ in range(100):
        nxt = (1.0 + lam_at(m)) * m_prime
        if abs(nxt - m) < 0.5:
            m = nxt
            converged = True
            break
        m = nxt
    lam = lam_at(m)
    if not converged:
        return _infeasible("rssd", "upper", n, d, delta,
                           "correction fixed point did not converge in 100 "
                           "iterations", lam=lam, alpha=alpha, m_prime=m_prime)
    if lam >= 1.0:
        return _infeasible("rssd", "upper", n, d, delta,
                           f"correction factor {lam:.3f} >= 1 at this scale",
                           lam=lam, alpha=alpha, m_prime=m_prime)
    return SizingResult(model="rssd", bound="upper", n=n, d=d, delta=delta,
                        m=math.ceil(m), m_real=m, lam=lam, feasible=True,
                        alpha=alpha, m_prime=m_prime)


def _utdq_upper_exact(n: int, d: int, delta: float, q: int) -> SizingResult:
    lnp = theory._ln_p_any(q, d)
    m0 = q * math.log(2.0 * n / delta) / (-lnp)
    try:
        scale = 2.0 * float(q) ** (d + 1) * math.log(2.0 * float(q) ** d / delta)
    except OverflowError:
        scale = math.inf

    def lam_at(m):
        return math.sqrt(scale / m) if math.isfinite(scale) else math.inf

    m = m0
    converged = False
    lam = lam_at(m)
    for _ in range(100):
        lam = lam_at(m)
        if lam >= 1.0:
            return _infeasible("utdq", "upper", n, d, delta,
                               f"correction factor {lam:.3f} >= 1; the exact "
                               f"display needs m on the order of q^(d+1)",
                               lam=lam, q=q, m_prime=m0 / q)
        nxt = m0 / (1.0 - lam)
        if abs(nxt - m) < 0.5:
            m = nxt
            converged = True
            break
        m = nxt
    if not converged:
        return _infeasible("utdq", "upper", n, d, delta,
                           "correction fixed point did not converge in 100 "
                           "iterations", lam=lam, q=q, m_prime=m0 / q)
    m_int = q * math.ceil(m / q)
    return SizingResult(model="utdq", bound="upper", n=n, d=d, delta=delta,
                        m=m_int, m_real=m, lam=lam_at(m), feasible=True,
                        q=q, m_prime=m_int // q)


# Fixed slack used when evaluating the rssd lower display (the bound
# holds for any slack below 1/10; the value used is recorded as lam).
_RSSD_LOWER_SLACK = 0.05

_RRSD_LOWER_B = _E**3 * math.sqrt(3.0)


def lower_bound_m(model: str, n: int, d: int,
                  q: int | None = None) -> SizingResult:
    """Tests below which the model fails with constant probability.

    Reference thresholds only: at desk scale several preconditions fail
    (notably rrsd's d < sqrt(n)/ln^3 n), and that is reported as an
    infeasible result rather than a number.
    """
    _check_model(model)
    _check_sizing_args(n, d, None)

    if model == "rid":
        c = _E * d * math.log(n)
        t = _quadratic_root_plus(_RRSD_LOWER_B, c)
        return SizingResult(model="rid", bound="lower", n=n, d=d, delta=None,
                            m=math.ceil(t * t), m_real=t * t, lam=None,
                            feasible=True)

    if model == "rrsd":
        if d >= math.sqrt(n) / math.log(n) ** 3:
            return _infeasible(
                "rrsd", "lower", n, d, None,
                f"precondition d < sqrt(n)/ln^3(n) fails (d={d}, "
                f"threshold {math.sqrt(n) / math.log(n) ** 3:.3g})")
        c = _E * d * math.log(n / _E)
        t = _quadratic_root_plus(_RRSD_LOWER_B, c)
        return SizingResult(model="rrsd", bound="lower", n=n, d=d, delta=None,
                            m=math.ceil(t * t), m_real=t * t, lam=None,
                            feasible=True)

    if model == "rssd":
        lam = _RSSD_LOWER_SLACK
        alpha, _ = theory.rssd_alpha_star(d)
        beta = 1.0 - (1.0 + lam) * (1.0 - alpha) ** d
        if beta <= alpha:
            return _infeasible(
                "rssd", "lower", n, d, None,
                f"adjusted positive-test rate {beta:.3f} <= alpha at d={d}",
                lam=lam, alpha=alpha)
        f = theory.entropy(alpha) - beta * theory.entropy(alpha / beta)
        m_real = (
            math.log(n) + math.log(2.0)
            + 0.5 * math.log(beta * (1.0 - alpha) / (beta - alpha))
        ) / (f * math.log(2.0))
        return SizingResult(model="rssd", bound="lower", n=n, d=d, delta=None,
                            m=math.ceil(m_real), m_real=m_real, lam=lam,
                            feasible=True, alpha=alpha)

    if q is None:
        q = theory.utdq_q_star(d)[0]
    q = int(q)
    if q < 2:
        raise ParameterError("q must be >= 2")
    lnp = theory._ln_p_any(q, d)
    m0 = q * math.log(8.0 * (n - d)) / (-lnp)
    try:
        c_corr = math.sqrt(3.0 * float(q) ** (d + 1)
                           * math.log(16.0 * float(q) ** d))
    except OverflowError:
        c_corr = math.inf
    if not math.isfinite(c_corr):
        return _infeasible("utdq", "lower", n, d, None,
                           "correction overflows at this q, d", q=q)
    t = _quadratic_root_plus(c_corr, m0)
    if t <= 0.0:
        return _infeasible("utdq", "lower", n, d, None,
                           "no positive root: n too small for this q, d", q=q)
    m_real = t * t
    lam = c_corr / t
    feasible = lam <= 1.0
    return SizingResult(
        model="utdq", bound="lower", n=n, d=d, delta=None,
        m=math.ceil(m_real), m_real=m_real, lam=lam, feasible=feasible,
        reason=None if feasible else
        f"correction factor {lam:.3f} > 1 at this scale", q=q)
