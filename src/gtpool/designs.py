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
two row-i.i.d. models and utdq's exact display reduce to a quadratic in
sqrt(m), rssd's to a cubic solved by fixed-point iteration; the bound on
the correction factor decides feasibility.  Every display is evaluated
from ln n, ln delta, ln d and ln q, with log1p and expm1 where a
quantity is near 0 or 1, so n and delta need no float value; where m
itself has none the record is a refusal.  Reasons print their numbers
to 4 significant digits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import theory
from .errors import DimensionError, ParameterError, _whole
from .matrices import BitMatrix, QaryMatrix, _pack_rows, expand_qary
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
    "spec_at",
    "upper_bound_m",
    "lower_bound_m",
]

MODELS = theory.MODELS

_E = math.e


def _check_model(model: str) -> str:
    if model not in MODELS:
        raise ParameterError(f"unknown model {model!r}; expected one of {MODELS}")
    return model


def _check_args(d: int, *ns: int, trials: int = 1, target: float = 0.0,
                jobs: int = 1, delta: float | None = None) -> None:
    """Raise ParameterError for the first rule below that fails.  The
    defaults pass, so a caller checks only what it passes."""
    for n in ns:
        if not 1 <= d < n:
            raise ParameterError(f"need 1 <= d < n, got d={d}, n={n}")
    if trials < 1:
        raise ParameterError("need at least one trial")
    if not 0.0 <= target < 1.0:
        raise ParameterError(f"target={target} outside [0, 1)")
    if jobs < 1:
        raise ParameterError(f"jobs={jobs} must be >= 1")
    if delta is not None and not 0.0 < delta < 1.0:
        raise ParameterError(f"delta={delta} outside (0, 1)")


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
            if not 0 <= _whole(p, "r") <= self.n:
                raise ParameterError(f"r={p} outside 0..{self.n}")
        elif self.model == "rssd":
            if not 0 <= _whole(p, "s") <= self.m:
                raise ParameterError(f"s={p} outside 0..{self.m}")
        else:
            if _whole(p, "q") < 2:
                raise ParameterError(f"q={p} must be an integer >= 2")
            if self.m % int(p):
                raise ParameterError(f"m={self.m} not a multiple of q={int(p)}")


# ---------------------------------------------------------------------
# generation


# The readers below fix where each entry sits in the random stream.  A
# generator (and so the oracle sim.reference_trial) and its trial kernel
# draw through the same reader, so the kernel reads exactly the numbers
# the generator does; only the rid kernel's head-first path reads the
# row layout by itself, entry by entry.  The generate digests in
# tests/output_pins.json guard the layouts.

# Doubles per row chunk of _row_chunks, which gen_rid, gen_rrsd and
# their kernels read.  Output does not depend on it: row-wise draws give
# the same numbers for any split.  A chunk that stays in cache makes the
# passes over it faster than over a larger block: the rrsd kernel at
# n = 10^4, d = 3 and sized m takes 4.6 ms per trial against 7.5 ms with
# 4*10^6-entry blocks (2-core x86 host, 4 MiB L2; medians of 12 fresh
# processes of 100 trials).
_CHUNK_ENTRIES = 1 << 15

# Entries per rssd column block of _column_blocks.  It fixes the rssd
# stream layout (keys are row-major within a block), so changing it
# changes every rssd matrix drawn with more than _BLOCK_ENTRIES // m
# columns.
_BLOCK_ENTRIES = 4_000_000


def _row_chunks(rng, m: int, n: int):
    """The next m x n doubles of the stream, as consecutive row chunks.

    Entry (i, j) is the double at stream position i*n + j for any chunk
    size.  The chunks share one buffer, so each is valid only until the
    next is drawn.
    """
    step = max(1, _CHUNK_ENTRIES // n)
    buf = np.empty((min(step, m), n))
    for start in range(0, m, step):
        chunk = buf[:min(step, m - start)]
        rng.random(out=chunk)
        yield chunk


def _column_blocks(rng, m: int, n: int):
    """The next m x n doubles of the stream, as rssd lays them out.

    Yields (start, keys) for consecutive blocks of _BLOCK_ENTRIES // m
    columns (at least one): keys is the m x width block whose column 0
    is matrix column start, drawn row-major.  Needs m >= 1.
    """
    block = max(1, _BLOCK_ENTRIES // m)
    for start in range(0, n, block):
        yield start, rng.random((m, min(start + block, n) - start))


def _utdq_entries(rng, m_prime: int, n: int, q: int):
    """The next m' x n integers of the stream, uniform in [1, q]."""
    return rng.integers(1, q + 1, size=(m_prime, n), dtype=np.int64)


def gen_rid(n: int, m: int, p: float, seed) -> BitMatrix:
    """Matrix with i.i.d. entries, each zero with probability p."""
    DesignSpec("rid", n, m, p)
    rows = []
    for vals in _row_chunks(as_generator(seed), m, n):
        rows.extend(_pack_rows(vals >= p))
    return BitMatrix(m, n, rows)


def gen_rrsd(n: int, m: int, r: int, seed) -> BitMatrix:
    """Matrix whose rows are i.i.d. uniform weight-r rows."""
    DesignSpec("rrsd", n, m, r)
    r = int(r)
    if r == 0 or r == n:  # no draw: every row is empty or full
        return BitMatrix(m, n, [(1 << n) - 1 if r else 0] * m)
    rows = []
    for keys in _row_chunks(as_generator(seed), m, n):
        # the r smallest of n i.i.d. uniform keys form a uniform r-subset
        idx = np.argpartition(keys, r - 1, axis=1)[:, :r]
        dense = np.zeros(keys.shape, dtype=bool)
        dense[np.arange(len(keys))[:, None], idx] = True
        rows.extend(_pack_rows(dense))
    return BitMatrix(m, n, rows)


def gen_rssd(n: int, m: int, s: int, seed) -> BitMatrix:
    """Matrix whose columns are i.i.d. uniform weight-s columns."""
    DesignSpec("rssd", n, m, s)
    s = int(s)
    if s == 0 or s == m:  # no draw: every column is empty or full
        return BitMatrix(m, n, [(1 << n) - 1 if s else 0] * m)
    dense = np.zeros((m, n), dtype=bool)
    for start, keys in _column_blocks(as_generator(seed), m, n):
        idx = np.argpartition(keys, s - 1, axis=0)[:s, :]
        dense[idx, np.arange(start, start + keys.shape[1])[None, :]] = True
    return BitMatrix(m, n, _pack_rows(dense))


def gen_utdq(n: int, m_prime: int, q: int, seed) -> QaryMatrix:
    """q-ary matrix with i.i.d. uniform entries in [1, q]."""
    DesignSpec("utdq", n, q * m_prime, q)
    q = int(q)
    return QaryMatrix(m_prime, n, q,
                      _utdq_entries(as_generator(seed), m_prime, n, q))


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


# rid rows at least this long are drawn head first, skipping the tail of
# each positive row with advance(); shorter rows are drawn whole, in
# chunks.  Measured per trial at d = 3, rate-optimal p and sized m (same
# host): whole rows win at n = 100 (0.10 against 0.26 ms) and n = 300
# (0.20 against 0.34 ms), the two tie at n = 1000 (0.51 against 0.54
# ms), and head first wins at n = 2000 (0.77 against 0.95 ms) and
# n = 10^4 (2.0 against 5.0 ms).
_RID_SKIP_MIN_N = 1000

# On the head-first path, once a good row drawn whole leaves at most
# n / _RID_SPARSE_RATIO columns uncovered, each later good row reads only
# those columns' entries (_read_left).  At rate-optimal p a good row
# leaves each column uncovered with probability p, so this is the last
# third or so of a trial's good rows.  Measured per trial at d = 3 and
# sized m (same host, medians of 30 rounds of 40 trials, each round
# running every setting on the same seeds): at n = 10^4 the ratios 300,
# 500 and 700 take 0.81, 0.79 and 0.80 of the time without the switch,
# and 500 takes 0.60 of it at n = 10^5; at d = 2 and m = 59 and 60, where
# the switch fires only once 2 or 4 columns are left, it takes 0.96 at
# n = 10^3 and 0.94 at n = 2000.
_RID_SPARSE_RATIO = 500

# _read_left advance()s over a gap of more than this many entries and
# draws through a shorter one: advance() and one draw cost as much as a
# draw of 100-150 doubles (same host).
_RID_DRAW_GAP = 150


def trial_disjunct(spec: DesignSpec, d: int, seed) -> bool:
    """is_disjunct(generate(spec, seed), range(1, d + 1)), without the matrix.

    The defective set is items 1..d, the first d columns.  A row with no
    defective is good; the set is disjunct iff every other column has a
    1 in some good row (elimination decoding then strikes it).  Each
    kernel reads the random stream through its generator's reader, so
    the verdict is the full path's for every seed:

      rid   _row_chunks: entry (i, j) is the double at stream position
            i*n + j.  Rows shorter than _RID_SKIP_MIN_N are read in
            chunks; in longer ones each row's d head entries are drawn,
            a positive row's other n - d are skipped with advance(), and
            a good row's are drawn and OR'ed into the coverage until a
            good row leaves at most n / _RID_SPARSE_RATIO columns
            uncovered.  Each later good row reads only the entries of
            the columns still uncovered (_read_left), and the trial
            succeeds at the row that covers the last of them.  Every
            row ends where the next starts, at a multiple of n.
      rrsd  _row_chunks; a row's support is its r smallest keys.  A
            row with at most r keys <= its least defective key holds
            that defective (argpartition puts the r smallest first), so
            it is skipped; every other row goes through the generator's
            argpartition, ties included, and is good when no defective
            is in the support it gives.
      rssd  _column_blocks; a column's support is its s smallest keys.
            The defective columns' argpartition gives the good rows G.
            Each block is read once, row by row: low, the least key of
            G per column, then a count per column of the other rows'
            keys that are <= low.  Column j is covered when that count
            is below s, for then the s smallest keys hold a key of G;
            every other column goes through the generator's own
            argpartition, ties included, and is covered when it selects
            a row of G.
      utdq  _utdq_entries, the m/q x n integers in [1, q]; q-ary row i
            covers column j when entry (i, j) is not one of row i's
            defective symbols (its indicator row is then good).
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
    return _utdq_disjunct(_utdq_entries(rng, m // q, n, q), d)


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
    left = None  # once few are uncovered, their positions in a row
    for _ in range(m):
        for k in range(d):
            if draw() >= p:  # a positive row: skip the rest of it
                skip(n - 1 - k)
                break
        else:
            if left is not None:
                left = _read_left(left, d, n, p, draw, skip)
                if not left:
                    return True
                continue
            draw(out=tail)
            covered |= tail >= p
            uncovered = n - d - np.count_nonzero(covered)
            if not uncovered:
                return True
            if uncovered * _RID_SPARSE_RATIO <= n:
                left = (np.flatnonzero(~covered) + d).tolist()
    return False


def _read_left(left, d, n, p, draw, skip) -> list:
    """The positions in left whose entry in this good row is < p.

    left holds positions in the row past its d head entries, in
    increasing order, and the stream stands just past the head.  Each
    listed entry is read alone: a gap of more than _RID_DRAW_GAP entries
    before it is advance()d over, a shorter one drawn through.  The
    stream is left at the end of the row.
    """
    at, keep = d, []
    for j in left:
        gap = j - at
        if gap > _RID_DRAW_GAP:
            skip(gap)
            x = draw()
        else:
            x = draw(gap + 1)[gap]
        if x < p:
            keep.append(j)
        at = j + 1
    if at < n:
        skip(n - at)
    return keep


def _trial_rrsd(n, m, r, d, rng) -> bool:
    if r == 0 or r == n:
        return False  # no row holds anything, or every row every item
    covered = np.zeros(n, dtype=bool)
    covered[:d] = True
    for keys in _row_chunks(rng, m, n):
        # a row with at most r keys <= its least defective key holds that
        # defective; every other row goes through gen_rrsd's argpartition
        low = keys[:, :d].min(axis=1, keepdims=True)
        rows = keys[np.count_nonzero(keys <= low, axis=1) > r]
        idx = np.argpartition(rows, r - 1, axis=1)[:, :r]  # as gen_rrsd
        covered[idx[~(idx < d).any(axis=1)]] = True  # the good rows' items
        if covered.all():
            return True
    return False


def _trial_rssd(n, m, s, d, rng) -> bool:
    if s == 0 or s == m:
        return False  # no row holds anything, or every row every item
    good = np.ones(m, dtype=bool)  # the rows that hold no defective
    for start, keys in _column_blocks(rng, m, n):
        if start < d:  # the block holds defective columns
            good[np.argpartition(keys[:, :d - start], s - 1, axis=0)[:s]] = False
            if not good.any():
                return False
            keys = keys[:, d - start:]
        # a column is covered when fewer than s bad keys reach its least
        # good key; any other goes through the generator's argpartition.
        # Each row is read once, and the block is not copied.
        rows = np.flatnonzero(good)
        low = keys[rows[0]].copy()
        for i in rows[1:]:
            np.minimum(low, keys[i], out=low)
        count = np.zeros(len(low), dtype=np.min_scalar_type(m))
        below = np.empty(len(low), dtype=bool)
        for i in np.flatnonzero(~good):
            np.less_equal(keys[i], low, out=below)
            count += below
        left = np.flatnonzero(count >= s)
        sel = np.argpartition(keys[:, left], s - 1, axis=0)[:s]
        if not good[sel].any(axis=0).all():
            return False
    return True


def _utdq_disjunct(entries, d: int) -> bool:
    """Whether the expansion of the q-ary entries is disjunct for its
    first d columns, read off the entries without expanding them."""
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


def spec_at(model: str, n: int, d: int, m: int, param=None) -> DesignSpec:
    """Spec at size m with param, or else the model's rate-optimal one."""
    if param is None:
        param = optimal_param(model, n, d, m_hint=m)
    return DesignSpec(model, n, m, param)


# ---------------------------------------------------------------------
# sizing


@dataclass(frozen=True, kw_only=True)
class SizingResult:
    """Outcome of a test-count bound.

    m is the least count that meets the display (for utdq the least
    multiple of q), m_real the display's root before rounding, and lam the
    model's square-root correction factor at m_real (None where the
    display has no such factor).  A result with a reason is infeasible;
    its m and m_real stay 0 unless the display has a root to report
    (utdq's lower bound past its correction factor's range).
    """

    model: str
    bound: str  # "upper" | "lower"
    n: int
    d: int
    delta: float | None
    m: int = 0
    m_real: float = 0.0
    lam: float | None = None
    feasible: bool = field(init=False)
    reason: str | None = None
    alpha: float | None = None
    q: int | None = None
    m_prime: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "feasible", self.reason is None)

    def as_record(self) -> dict:
        """The fields in order, with lam under the key "lambda"."""
        return {"lambda" if k == "lam" else k: v
                for k, v in asdict(self).items()}


def _quadratic_root_plus(b: float, c: float) -> float:
    """Positive root t of t^2 + b t - c = 0 (returns 0 when c <= 0).

    t = sqrt(c) u, with u the positive root of u^2 + beta u - 1 = 0 and
    beta = b / sqrt(c): b^2 and 4c are never formed, and c = inf gives
    inf.  For beta > 0, u = 2 / (beta + sqrt(beta^2 + 4)), which does not
    cancel where b^2 dwarfs c.
    """
    if c <= 0.0:
        return 0.0
    s = math.sqrt(c)
    beta = b / s
    h = math.hypot(beta, 2.0)
    return s * (2.0 / (beta + h) if beta > 0.0 else 0.5 * (h - beta))


# the reason of a record whose m has no float value: rid, rrsd and rssd
# overflow only where d is near or beyond the float range (their m grows
# like d), utdq's transversal bound where (1 - 1/q)^d underflows (its m
# grows like (q / (q - 1))^d) and its exact display where q^(d+1) leaves
# the float range.  Each shows as an ArithmeticError: a float or an int
# beyond the range, or a divisor that underflowed to 0.
_BEYOND_FLOAT = "test count beyond float range at this d"

_LN2 = math.log(2.0)
_LN_FLOAT_MAX = math.log(sys.float_info.max)


def _utdq_alphabet(n: int, d: int, q) -> int:
    """q, or utdq_q_star(d)'s when None, checked as a design's alphabet."""
    if q is None:
        q = theory.utdq_q_star(d)[0]
    DesignSpec("utdq", n, 0, q)
    return int(q)


def upper_bound_m(model: str, n: int, d: int, delta: float,
                  q: int | None = None, exact_utdq: bool = False) -> SizingResult:
    """Tests sufficient for a 1-delta disjunctness guarantee.

    For utdq, q defaults to the rate-optimal alphabet; the default
    display is the simple transversal bound, the exact one (with its
    q^(d+1)-scale correction) sits behind exact_utdq=True.
    """
    _check_model(model)
    _check_args(d, n, delta=delta)
    result = partial(SizingResult, model=model, bound="upper", n=n, d=d,
                     delta=delta)
    if model == "utdq":
        q = _utdq_alphabet(n, d, q)
        result = partial(result, q=q)
    try:
        if model == "rssd":
            return _rssd_upper(result, n, d, delta)
        if model == "utdq":
            display = _utdq_upper_exact if exact_utdq else _utdq_upper
            return display(result, n, d, delta, q)
        return _row_upper(result, n, d, delta)
    except ArithmeticError:
        return result(reason=_BEYOND_FLOAT)


def _row_upper(result, n: int, d: int, delta: float) -> SizingResult:
    ln_2_delta = _LN2 - math.log(delta)
    b = math.sqrt(2.0 * _E * ln_2_delta)
    t = _quadratic_root_plus(-b, _E * d * (ln_2_delta + math.log(n)))
    m_real = t * t
    return result(m=math.ceil(m_real), m_real=m_real, lam=b / t)


def _rssd_upper(result, n: int, d: int, delta: float) -> SizingResult:
    if d < 2:
        return result(reason="column-weight sizing display is singular at d=1")
    alpha, fmax = theory.rssd_alpha_star(d)
    # ln of the chance a fixed row avoids all d defectives
    ln_good = d * math.log1p(-alpha)
    beta = -math.expm1(ln_good)
    ln_delta = math.log(delta)
    m_prime = (
        math.log(n) + math.log(3.0) - ln_delta
        + 0.5 * math.log(beta * (1.0 - alpha) / (beta - alpha))
    ) / (_LN2 * fmax)

    def lam_at(m):  # 2 / sqrt(delta * good * m)
        return 2.0 * math.exp(-0.5 * (ln_delta + ln_good + math.log(m)))

    # m = (1 + lam(m)) m_prime is a cubic in sqrt(m); the map contracts by
    # lam / (2 (1 + lam)) < 1/2 at its root, so iterate to float precision
    # (at most 50 steps for any float delta and n up to 10^1000)
    m = m_prime
    for _ in range(100):
        m, prev = (1.0 + lam_at(m)) * m_prime, m
        if abs(m - prev) <= 1e-12 * prev:
            break
    lam = lam_at(m)
    result = partial(result, lam=lam, alpha=alpha, m_prime=m_prime)
    if lam >= 1.0:
        return result(reason=f"correction factor {lam:.4g} >= 1 at this scale")
    return result(m=math.ceil(m), m_real=m)


def _utdq_upper(result, n: int, d: int, delta: float, q: int) -> SizingResult:
    # -ln(1 - (1 - 1/q)^d): 0 once (1 - 1/q)^d underflows
    denom = -math.log1p(-math.exp(d * math.log1p(-1.0 / q)))
    m_real = q * (math.log(n) - math.log(delta)) / denom
    m = q * math.ceil(m_real / q)
    return result(m=m, m_real=m_real, lam=0.0, m_prime=m // q)


def _utdq_upper_exact(result, n: int, d: int, delta: float,
                      q: int) -> SizingResult:
    ln_q, ln_2_delta = math.log(q), _LN2 - math.log(delta)
    m0 = q * (ln_2_delta + math.log(n)) / -theory._ln_p_any(q, d)
    # the display m - sqrt(scale * m) >= m0, with scale = 2 q^(d+1)
    # ln(2 q^d / delta), is a quadratic in t = sqrt(m)
    root_scale = math.exp(0.5 * (_LN2 + (d + 1) * ln_q
                                 + math.log(ln_2_delta + d * ln_q)))
    lam = root_scale / math.sqrt(m0)
    if lam >= 1.0:
        return result(m_prime=m0 / q, lam=lam, reason=(
            f"correction factor {lam:.4g} >= 1; the exact display needs "
            f"m on the order of q^(d+1)"))
    t = _quadratic_root_plus(-root_scale, m0)
    m = q * math.ceil(t * t / q)
    return result(m=m, m_real=t * t, lam=root_scale / t, m_prime=m // q)


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
    _check_args(d, n)
    result = partial(SizingResult, model=model, bound="lower", n=n, d=d,
                     delta=None)
    if model == "utdq":
        q = _utdq_alphabet(n, d, q)
        result = partial(result, q=q)
    try:
        if model == "rssd":
            return _rssd_lower(result, n, d)
        if model == "utdq":
            return _utdq_lower(result, n, d, q)
        return _row_lower(result, model, n, d)
    except ArithmeticError:
        return result(reason=_BEYOND_FLOAT)


def _row_lower(result, model: str, n: int, d: int) -> SizingResult:
    ln_n = math.log(n)
    if model == "rrsd":
        ln_threshold = 0.5 * ln_n - 3.0 * math.log(ln_n)
        if math.log(d) >= ln_threshold:
            return result(
                reason=f"precondition d < sqrt(n)/ln^3(n) fails (d={d}, "
                       f"threshold {math.exp(ln_threshold):.4g})")
        ln_n -= 1.0  # the rrsd display has ln(n / e)
    t = _quadratic_root_plus(_RRSD_LOWER_B, _E * d * ln_n)
    return result(m=math.ceil(t * t), m_real=t * t)


def _rssd_lower(result, n: int, d: int) -> SizingResult:
    lam = _RSSD_LOWER_SLACK
    alpha, _ = theory.rssd_alpha_star(d)
    # 1 - (1 + lam) (1 - alpha)^d, with alpha near ln2/d
    beta = -math.expm1(math.log1p(lam) + d * math.log1p(-alpha))
    result = partial(result, lam=lam, alpha=alpha)
    if beta <= alpha:
        return result(reason=f"adjusted positive-test rate {beta:.4g} "
                             f"<= alpha at d={d}")
    f = theory.entropy(alpha) - beta * theory.entropy(alpha / beta)
    m_real = (
        math.log(n) + _LN2
        + 0.5 * math.log(beta * (1.0 - alpha) / (beta - alpha))
    ) / (f * _LN2)
    return result(m=math.ceil(m_real), m_real=m_real)


def _utdq_lower(result, n: int, d: int, q: int) -> SizingResult:
    ln_q = math.log(q)
    m0 = q * (math.log(8.0) + math.log(n - d)) / -theory._ln_p_any(q, d)
    # the correction sqrt(3 q^(d+1) ln(16 q^d)), and lam = c_corr / t,
    # which is at least c_corr^2 / m0
    ln_corr = 0.5 * (math.log(3.0) + (d + 1) * ln_q
                     + math.log(math.log(16.0) + d * ln_q))
    if 2.0 * ln_corr - math.log(m0) >= _LN_FLOAT_MAX:
        return result(reason="correction overflows at this q, d")
    c_corr = math.exp(ln_corr)
    t = _quadratic_root_plus(c_corr, m0)
    lam = c_corr / t
    return result(m=math.ceil(t * t), m_real=t * t, lam=lam,
                  reason=None if lam <= 1.0 else
                  f"correction factor {lam:.4g} > 1 at this scale")
