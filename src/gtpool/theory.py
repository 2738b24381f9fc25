"""Combinatorial and analytic quantities behind the pool designs.

The central object is P(q, d): the probability that a uniformly random
q-ary string of length d, viewed as a test over d defective items,
leaves a uniformly random extra item detectable.  Writing R(q, d, i)
for the number of length-d strings over [q] that use exactly i distinct
symbols,

    ln P(q, d) = q^(-d) * sum_i R(q, d, i) * ln(i / q),

and R(q, d, i) = C(q, i) * N(d, i) with N(d, i) the surjection count
(built by the recurrence N(t, i) = i (N(t-1, i) + N(t-1, i-1)), for
i <= min(q, d) only).  Everything here is exact integer arithmetic up
to a documented capacity cap, with a log-space float path beyond it for
asymptotic studies.

The per-model rate constants (tests per defective per ln n) are:

    rid, rrsd:  e                          (fixed)
    rssd:       1 / (d ln2 * max_a f(a)),  f(a) = H(a) - b*H(a/b),
                b = 1 - (1-a)^d
    utdq:       min over integer q of q / (-d * ln P(q, d))

All four sit above the information floor 1/ln2 = 1.4427 and the two
nontrivial ones tend to 1/ln2^2 = 2.0814 as d grows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

from .errors import CapacityError, ParameterError

__all__ = [
    "entropy",
    "surjections",
    "r_qdi",
    "ln_p_qd",
    "rssd_objective",
    "rssd_alpha_star",
    "utdq_search_range",
    "utdq_q_star",
    "c_constant",
    "ConstantsRow",
    "table1",
    "table1_csv",
    "PUBLISHED_TABLE",
    "FLAG_THRESHOLD",
    "published_deviation_flags",
    "CAPACITY_CAP",
    "INFO_FLOOR",
    "ASYMPTOTIC_CONSTANT",
    "MODELS",
]

MODELS = ("rid", "rrsd", "rssd", "utdq")

# Exact-combinatorics cap for the public surjection/probability helpers.
CAPACITY_CAP = 64

LN2 = math.log(2.0)
INFO_FLOOR = 1.0 / LN2
ASYMPTOTIC_CONSTANT = 1.0 / LN2**2

# Previously reported values of the finite-d constants (rssd, utdq),
# kept for side-by-side comparison; deviations of the formula-derived
# values beyond FLAG_THRESHOLD are flagged in reports, never failed or
# silently adopted.
PUBLISHED_TABLE = {
    2: (1.95, 2.417),
    3: (1.96, 2.31),
    4: (1.992, 2.225),
    5: (2.01, 2.221),
    6: (2.02, 2.198),
    7: (2.03, 2.182),
    8: (2.04, 2.17),
    9: (2.044, 2.16),
    10: (2.05, 2.152),
}
FLAG_THRESHOLD = 0.15


# ---------------------------------------------------------------------
# elementary functions


def entropy(x: float) -> float:
    """Binary entropy H(x) in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    # 1 - x rounds away most of a tiny x, which log1p keeps; above the cut
    # log2(1 - x) stays, and with it every value the pins were taken with
    if x < 2.0 ** -20:
        return -x * math.log2(x) - (1.0 - x) * math.log1p(-x) / LN2
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


# ---------------------------------------------------------------------
# surjection counts and the q-ary detection probability


def _check_cap(**kwargs):
    for name, value in kwargs.items():
        if value > CAPACITY_CAP:
            raise CapacityError(
                f"{name}={value} exceeds the exact-combinatorics cap "
                f"({CAPACITY_CAP}); asymptotics beyond the cap go through "
                f"c_constant")


@lru_cache(maxsize=None)
def _surjections_raw(d: int, top: int) -> tuple:
    # (N(d, 0), ..., N(d, top)) by N(t, i) = i (N(t-1, i) + N(t-1, i-1))
    # from N(0, i) = [i = 0], exact for any size (Python ints); no N(t, i)
    # with i > top is built, and none with i > t, which is 0
    row = [1] + [0] * top
    for t in range(1, d + 1):
        for i in range(min(t, top), 0, -1):
            row[i] = i * (row[i] + row[i - 1])
        row[0] = 0
    return tuple(row)


def surjections(d: int, i: int) -> int:
    """Number of surjections from [d] onto [i] (0 when i > d or i = 0 < d)."""
    if d < 1:
        raise ParameterError("d must be >= 1")
    if i < 0:
        raise ParameterError("i must be >= 0")
    _check_cap(d=d)
    if i > d:
        return 0
    return _surjections_raw(d, i)[i]


def r_qdi(q: int, d: int, i: int) -> int:
    """Number of length-d strings over [q] using exactly i distinct symbols."""
    if q < 1:
        raise ParameterError("q must be >= 1")
    _check_cap(q=q, d=d)
    if i > q:
        return 0
    return math.comb(q, i) * surjections(d, i)


@lru_cache(maxsize=None)
def _log_surjection_table(d: int, top: int):
    # ln N(d, i) for i = 1..top, via exact integers then one float log each.
    return tuple(math.log(n) for n in _surjections_raw(d, top)[1:])


def _ln_p_any(q: int, d: int) -> float:
    """ln P(q, d) without the capacity cap.

    Exact integer weights whenever q^d fits in a double's integer range;
    otherwise log-space evaluation (lgamma for the binomials), whose
    absolute error is far below every tolerance used at that scale.
    """
    top = min(q, d)
    if d * math.log2(q) <= 53:
        qd = q**d
        surj = _surjections_raw(d, top)
        terms = [
            math.comb(q, i) * surj[i] * math.log(i / q)
            for i in range(1, top + 1)
        ]
        return math.fsum(terms) / qd
    log_n = _log_surjection_table(d, top)
    lnq = math.log(q)
    acc = []
    for i in range(1, top + 1):
        lw = (
            math.lgamma(q + 1)
            - math.lgamma(i + 1)
            - math.lgamma(q - i + 1)
            + log_n[i - 1]
            - d * lnq
        )
        if lw < -745.0:  # exp underflows; the term is immaterial
            continue
        acc.append(math.exp(lw) * (math.log(i) - lnq))
    return math.fsum(acc)


def ln_p_qd(q: int, d: int) -> float:
    """ln P(q, d); always in (-ln q, 0] and equal to -ln q iff d = 1."""
    if q < 2:
        raise ParameterError("q must be >= 2")
    if d < 1:
        raise ParameterError("d must be >= 1")
    _check_cap(q=q, d=d)
    return _ln_p_any(q, d)


# ---------------------------------------------------------------------
# per-model constants


def rssd_objective(alpha: float, d: int) -> float:
    """Rate objective f(alpha) = H(alpha) - beta * H(alpha/beta).

    beta = 1 - (1-alpha)^d is the chance a test is positive when each
    column carries an alpha fraction of ones.  f(1) = 0 is taken as the
    boundary value; d = 1 collapses to plain H(alpha).
    """
    if d < 1:
        raise ParameterError("d must be >= 1")
    if not 0.0 < alpha <= 1.0:
        raise ParameterError("alpha must lie in (0, 1]")
    if alpha == 1.0:
        return 0.0
    # -expm1(d*log1p(-a)) keeps beta accurate for small alpha
    beta = -math.expm1(d * math.log1p(-alpha))
    ratio = alpha / beta
    if ratio > 1.0:  # float round-off at d = 1
        ratio = 1.0
    return entropy(alpha) - beta * entropy(ratio)


_GRID_POINTS = 10_000


def _first_turn(value, turned, lo: int, hi: int):
    """First i in [lo, hi] with i == hi or turned(value(i), value(i + 1)).

    The turn must hold at every point after the first one that turns, as
    it does past the peak of a sequence that rises (or falls) to one
    extremum.  The search steps 1, 2, 4, ... from lo until a point turns,
    then bisects the last step, so it reads O(log(i - lo)) points, each
    once.  Returns i and the memoised reader of value, for the caller to
    read points at and next to i again.
    """
    seen = {}

    def read(i):
        if i not in seen:
            seen[i] = value(i)
        return seen[i]

    def turns(i):
        return i >= hi or turned(read(i), read(i + 1))

    if turns(lo):
        return lo, read
    flat, step = lo, 1  # flat: the last point known not to turn
    while not turns(lo + step):
        flat = lo + step
        step *= 2
    top = min(lo + step, hi)
    while top - flat > 1:
        mid = (flat + top) // 2
        if turns(mid):
            top = mid
        else:
            flat = mid
    return top, read


def _golden_max(f, xa: float, xb: float, xc: float):
    """Golden-section (x, f(x)) maximising f on a bracket xa < xb < xc.

    SciPy 1.17's _minimize_scalar_golden (xtol=1e-9) run on -f, step for
    step, so the bits match; None unless f(xb) exceeds f(xa) and f(xc).
    """
    if not f(xa) < f(xb) > f(xc):
        return None
    gr = 0.61803399  # SciPy's golden ratio conjugate, to eight digits
    gc = 1.0 - gr
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + gc * (xc - xb)
    else:
        x1, x2 = xb - gc * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    while abs(x3 - x0) > 1e-9 * (abs(x1) + abs(x2)):
        if f2 > f1:
            x0, x1, x2 = x1, x2, gr * x2 + gc * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2, x1 = x2, x1, gr * x1 + gc * x0
            f2, f1 = f1, f(x1)
    return (x1, f1) if f1 > f2 else (x2, f2)


@lru_cache(maxsize=None)
def rssd_alpha_star(d: int) -> tuple:
    """(argmax alpha, max value) of the rate objective on (0, 1].

    Coarse 10^4-point grid, then golden-section refinement to 1e-9 by
    _golden_max (a port of SciPy 1.17's, bit for bit); at d = 1 the top is
    flat, no bracket is valid and the grid point stands.  The objective
    rises, then falls, over the grid (the peak nears alpha = ln2/d as d
    grows), so the grid point is the first one whose successor does not
    rise, found by _first_turn's doubling steps and bisection in at most
    50 objective calls instead of up to 5,004: the point a walk from the
    grid's start stops at, and with it the bracket and the bits.  When
    grid point 1 wins (from d = 4,813 on) the peak lies below the grid,
    and the bracket is taken around ln2/d instead.
    """
    if d < 1:
        raise ParameterError("d must be >= 1")
    denom = _GRID_POINTS + 1
    best_k, read = _first_turn(lambda k: rssd_objective(k / denom, d),
                               lambda here, after: after <= here,
                               1, _GRID_POINTS)
    best_v = read(best_k)
    grid = best_k / denom
    if best_k == 1:
        # the peak, near ln2/d, may lie below the grid's first point
        lo, mid, hi = (LN2 / d * t for t in (0.5, 1.0, 2.0))
    else:
        lo, mid, hi = ((best_k - 1) / denom, grid,
                       min(best_k + 1, _GRID_POINTS) / denom)
    if lo < mid < hi:
        res = _golden_max(lambda a: rssd_objective(a, d), lo, mid, hi)
        if res is not None and res[1] >= best_v:
            return res
    return grid, best_v


def utdq_search_range(d: int) -> range:
    """Integer alphabet sizes scanned for the best q at a given d."""
    if d < 1:
        raise ParameterError("d must be >= 1")
    hi = max(10 * d * math.ceil(math.log(d + 1)), d + 8)
    return range(max(d, 2), hi + 1)


@lru_cache(maxsize=None)
def utdq_q_star(d: int) -> tuple:
    """(argmin q, min value) of q / (-d ln P(q, d)) over the search range.

    The ratio falls, then rises, over the range, so q* is the first q whose
    successor rises (or the range's last, utdq_search_range's cap), found
    by _first_turn's doubling steps and bisection, then moved back over
    equal values to the first of tied minima, as a walk from the range's
    start keeps it; at d = 800 that reads 34 alphabets instead of 357.
    """
    span = utdq_search_range(d)
    q, read = _first_turn(lambda q: q / (-d * _ln_p_any(q, d)),
                          lambda here, after: after > here,
                          span.start, span[-1])
    while q > span.start and read(q - 1) == read(q):
        q -= 1
    return q, read(q)


def c_constant(model: str, d: int) -> float:
    """Tests-per-defective rate constant (per ln n) of a model at a given d."""
    if d < 1:
        raise ParameterError("d must be >= 1")
    if model in ("rid", "rrsd"):
        return math.e
    if model == "rssd":
        _, fmax = rssd_alpha_star(d)
        return 1.0 / (d * LN2 * fmax)
    if model == "utdq":
        return utdq_q_star(d)[1]
    raise ParameterError(f"unknown model {model!r}")


# ---------------------------------------------------------------------
# the constants table


@dataclass(frozen=True)
class ConstantsRow:
    """One row of the constants table; d = None marks the asymptotic row."""

    d: int | None
    rid: float
    rrsd: float
    rssd: float
    rssd_alpha: float | None
    utdq: float
    utdq_q: int | None

    def __post_init__(self):
        floor = INFO_FLOOR - 1e-9
        for name in ("rid", "rrsd", "rssd", "utdq"):
            v = getattr(self, name)
            if not v >= floor:
                raise ParameterError(
                    f"{name} constant {v} below the information floor")

    def as_record(self) -> dict:
        """The columns `gtpool table1` prints: the fields, the published
        (rssd, utdq) values at this d (None without one) and the flags."""
        ref_rssd, ref_utdq = PUBLISHED_TABLE.get(self.d, (None, None))
        return {**asdict(self), "rssd_published": ref_rssd,
                "utdq_published": ref_utdq,
                "flags": published_deviation_flags(self)}


def table1(d_max: int) -> list:
    """Constant rows for d = 2..d_max plus the asymptotic row."""
    if not 2 <= d_max <= CAPACITY_CAP:
        raise ParameterError(f"d_max must lie in [2, {CAPACITY_CAP}]")
    rows = [ConstantsRow(d, c_constant("rid", d), c_constant("rrsd", d),
                         c_constant("rssd", d), rssd_alpha_star(d)[0],
                         c_constant("utdq", d), utdq_q_star(d)[0])
            for d in range(2, d_max + 1)]
    return rows + [ConstantsRow(None, math.e, math.e, ASYMPTOTIC_CONSTANT,
                                None, ASYMPTOTIC_CONSTANT, None)]


def _csv_cell(key: str, value) -> str:
    if value is None:
        return "inf" if key == "d" else ""
    if key == "flags":
        return "+".join(value)
    if isinstance(value, float) and not key.endswith("_published"):
        return f"{value:.6f}"
    return str(value)


def table1_csv(rows) -> str:
    """CSV of table1's rows as records: computed values to six places,
    published ones as given, flags joined by '+', the asymptotic row
    labeled 'inf'."""
    records = [row.as_record() for row in rows]
    out = [",".join(records[0])]
    for rec in records:
        out.append(",".join(_csv_cell(k, v) for k, v in rec.items()))
    return "\n".join(out) + "\n"


def published_deviation_flags(row: ConstantsRow) -> list:
    """Names of columns whose value strays > FLAG_THRESHOLD from the
    published reference at this d; empty when d has no reference entry."""
    ref = PUBLISHED_TABLE.get(row.d, ())
    return [name for name, want in zip(("rssd", "utdq"), ref)
            if abs(getattr(row, name) - want) > FLAG_THRESHOLD]
