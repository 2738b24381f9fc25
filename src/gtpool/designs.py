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
    """Raise ParameterError for the first rule below that fails, or for
    a d, n, trials or jobs that is not whole.  The defaults pass, so a
    caller checks only what it passes."""
    d = _whole(d, "d")
    for n in ns:
        if not 1 <= d < _whole(n, "n"):
            raise ParameterError(f"need 1 <= d < n, got d={d}, n={n}")
    if _whole(trials, "trials") < 1:
        raise ParameterError("need at least one trial")
    if not 0.0 <= target < 1.0:
        raise ParameterError(f"target={target} outside [0, 1)")
    if _whole(jobs, "jobs") < 1:
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
        # kept as ints, since the generators take them as array sizes
        object.__setattr__(self, "n", _whole(self.n, "n"))
        object.__setattr__(self, "m", _whole(self.m, "m"))
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
# read through the same reader and support mask; where a kernel
# skips part of the stream, it reads entries by position with _words_at.
# The generate digests in tests/output_pins.json guard the layouts.

# Entries per row chunk of _row_chunks, which gen_rid, gen_rrsd and the
# rid kernel's short rows read, and of the utdq kernel's q-ary rows.
# Output does not depend on it: row-wise draws give the same numbers for
# any split.  CPU time per call at d = 3 (2-core x86 host, 2 MiB L2;
# medians of 15 rounds, each running 2^12, 2^13, ..., 2^17 and 2^20 in
# turn): gen_rid and gen_rrsd at n = 10^4, m = 149 take 8.3 and 15.0 ms
# at 2^15 (7.6 and 15.0 at 2^16), and x1.16 and x1.27 that at 2^20; the
# rid kernel's short rows at n = 300, m = 113 take 0.21 ms (0.18 at
# 2^14); utdq trials at n = 10^4, m = 85 take 1.25 ms (1.17 at 2^16,
# 1.36 at 2^20), and at n = 1000 every size takes 0.22-0.25 ms.
_CHUNK_ENTRIES = 1 << 15

# Entries per rssd column block of _column_blocks.  It fixes the rssd
# stream layout (keys are row-major within a block), so changing it
# changes every rssd matrix wider than one block.
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


def _column_blocks(m: int, n: int):
    """The rssd column blocks of an m x n matrix, as (start, width) spans
    of as many columns as _BLOCK_ENTRIES entries hold (at least one; the
    last may be narrower).  A block's keys are the next m x width doubles
    of the stream, row-major; its column 0 is matrix column start.
    """
    width = max(1, _BLOCK_ENTRIES // m)
    for start in range(0, n, width):
        yield start, min(width, n - start)


def _smallest_mask(keys, k: int, axis: int):
    """The k smallest keys of each lane along axis of the 2-D keys, as a
    bool mask: the keys <= the lane's k-th smallest.  A lane where more
    than k keys are <= it ties at that key, and there the k positions
    argpartition puts first are set: that rule picks among tied keys in
    the pinned matrices (tests/output_pins.json)."""
    kth = np.partition(keys, k - 1, axis=axis).take([k - 1], axis=axis)
    mask = keys <= kth
    if np.count_nonzero(mask) == k * keys.shape[1 - axis]:
        return mask
    # the lanes as rows, views that write into mask
    lanes, lane_mask = (keys, mask) if axis else (keys.T, mask.T)
    tied = np.flatnonzero(np.count_nonzero(lane_mask, axis=1) > k)
    first = np.argpartition(lanes[tied], k - 1, axis=1)[:, :k]
    lane_mask[tied] = False
    lane_mask[tied[:, None], first] = True
    return mask


def _rrsd_mask(keys, r: int):
    """Each row's support: its r smallest keys."""
    return _smallest_mask(keys, r, 1)


def _rssd_mask(keys, s: int):
    """Each column's support: its s smallest keys."""
    return _smallest_mask(keys, s, 0)


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
        rows.extend(_pack_rows(_rrsd_mask(keys, r)))
    return BitMatrix(m, n, rows)


def gen_rssd(n: int, m: int, s: int, seed) -> BitMatrix:
    """Matrix whose columns are i.i.d. uniform weight-s columns."""
    DesignSpec("rssd", n, m, s)
    s = int(s)
    if s == 0 or s == m:  # no draw: every column is empty or full
        return BitMatrix(m, n, [(1 << n) - 1 if s else 0] * m)
    rng = as_generator(seed)
    dense = np.zeros((m, n), dtype=bool)
    for start, w in _column_blocks(m, n):
        dense[:, start:start + w] = _rssd_mask(rng.random((m, w)), s)
    return BitMatrix(m, n, _pack_rows(dense))


def gen_utdq(n: int, m_prime: int, q: int, seed) -> QaryMatrix:
    """q-ary matrix with i.i.d. uniform entries in [1, q]."""
    DesignSpec("utdq", n, q * m_prime, q)
    q = int(q)
    return QaryMatrix._drawn(q, _utdq_entries(as_generator(seed), m_prime, n, q))


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
# chunks.  CPU time per trial at d = 3, rate-optimal p and sized m (same
# host, heads read as words, medians of 15-30 rounds that alternate the
# two reads on the same seeds; head first as a multiple of whole rows):
# whole rows win at n = 100 (x2.1-2.5), 300 (x1.25-1.42) and 500
# (x1.31-1.42), the two tie at n = 700 and 850 (x0.99-1.01), and head
# first wins at n = 1000 (x0.88-0.93), 2000 (x0.59-0.64) and 10^4
# (0.90-0.97 against 3.4-3.7 ms).
_RID_SKIP_MIN_N = 1000

# On the head-first path, once a good row drawn whole leaves at most
# n / _RID_SPARSE_RATIO columns uncovered, each later good row reads only
# those columns' entries (_words_at).  At rate-optimal p a good row
# leaves each column uncovered with probability p, so this is the last
# third or so of a trial's good rows.  CPU time per trial at d = 3 and
# sized m (same host, words read, medians of 30-40 rounds, each round
# running every setting on the same seeds): at n = 10^4 the ratios 300,
# 500, 700 and 1000 take 0.75-0.77, 0.76-0.77, 0.73-0.77 and 0.80 of
# the time without the switch, and at n = 10^5 0.59-0.64, 0.59-0.64,
# 0.57-0.64 and 0.66; at d = 2 and m = 59 and 60, where the switch fires
# only once a few columns are left, 500 takes 0.89 at n = 10^3 and 0.84
# at n = 2000.
_RID_SPARSE_RATIO = 500

# The good rows of a block's first read by rows.  In CPU time per trial
# at n = 10^4 and d = 3 (same host, 200 trials, each run in turn by this
# read and by a kernel that draws the whole block), 12, 16, 20, 24 and
# 28 take x0.79, 0.76, 0.76, 0.77 and 0.79 of the latter's time at
# m = 133, x0.95, 0.89, 0.88, 0.89 and 0.91 at m = 88, and x1.12, 1.00,
# 0.98, 1.00 and 1.02 at m = 66, where some trials fail; at d = 2 and
# m = 94, x0.74, 0.74, 0.76, 0.81 and 0.85.
_RSSD_FIRST_GOOD = 20

# _words_at advance()s over a gap of more than this many entries, then
# draws one word, and draws through a shorter gap: advance() and one
# word cost as much as a draw of 50-125 words (same host, CPU time,
# medians of 15 rounds).  The gap hardly shows per trial: against 150,
# gaps of 50, 100, 200 and 300 took x0.97-1.04 the time per rid trial
# at n = 10^4 and 10^5 and x1.00-1.07 per rssd trial at n = 10^4 and
# 40000 (medians of 20-30 rounds).
_DRAW_GAP = 150


def trial_disjunct(spec: DesignSpec, d: int, seed) -> bool:
    """is_disjunct(generate(spec, seed), range(1, d + 1)), without the matrix.

    The defective set is items 1..d, the first d columns.  A row with no
    defective is good; the set is disjunct iff every other column has a
    1 in some good row (elimination decoding then strikes it).  Each
    kernel reads the random stream in its generator's layout and selects
    through the generator's support mask, so the verdict is the full
    path's for every seed.  Where a kernel skips part of the stream, it
    reads the entries it needs by position with _words_at.

      rid   _row_chunks: entry (i, j) is the double at stream position
            i*n + j.  Rows shorter than _RID_SKIP_MIN_N are read in
            chunks; in longer ones each row's d head entries are drawn
            as 64-bit words, an entry being positive (double >= p)
            exactly when its word w >= high = ceil(p * 2^53) << 11, as
            the double is (w >> 11) * 2^-53.  A positive row's other
            n - d entries are skipped with advance(), and a good row's
            are drawn as doubles and OR'ed into the coverage until a
            good row leaves at most n / _RID_SPARSE_RATIO columns
            uncovered.  Each later good row reads only the words of the
            columns still uncovered (_words_at), testing each against
            high, and the trial succeeds at the row that covers the
            last of them.  Every row ends where the next starts, at a
            multiple of n.
      rrsd  _row_chunks; a row's support is its r smallest keys
            (_rrsd_mask).  The rows are read head first (_RowCursor):
            each row's d head entries are drawn and the rest of the row
            advance()d over; low is a row's least defective key.  Then
            the rows with low * (n - d) >= r, likely good, are drawn
            whole one at a time in stream order, and after them the
            others, until a good row covers the last column.  A row is
            good when its mask holds no defective, and then ORs the mask
            into the coverage.  Of the rows not likely good, one with at
            most r keys <= low holds that defective (every key below
            the r-th smallest is in the support, ties included), so it
            is skipped before the mask.  Coverage does not depend on the
            order of the rows, so the verdict is the same; a trial that
            fails leaves the stream at row m's start.
      rssd  the spans of _column_blocks; a column's support is its s
            smallest keys (_rssd_mask).  The defective columns'
            supports give the good rows G.  In each block, low is a
            column's least key over rows of G, and the column is covered
            when fewer than s bad keys are <= low, for then its s
            smallest keys hold a key of G, ties included.  Each block is
            read by rows (_BlockRows): each row's defective entries are
            drawn and the rest of the row advance()d over; then every
            bad row and the first _RSSD_FIRST_GOOD rows of G are drawn,
            and each later row of G only while a column is left, just
            those columns' words (_words_at), turned into their doubles,
            once few are.  A column left after all of G goes through
            _rssd_mask and is covered when its support holds a row of
            G.  Each block leaves the stream at its end.
      utdq  _utdq_entries, the m/q x n integers in [1, q], drawn in
            chunks of as many rows as _CHUNK_ENTRIES entries hold (at
            least one); q-ary row i covers column j when entry (i, j) is
            not one of row i's defective symbols (its indicator row is
            then good).  After the first chunk only the columns left
            uncovered are compared, and the trial succeeds at the chunk
            that covers the last of them.
    """
    n, m = spec.n, spec.m
    d = _whole(d, "d")
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


def _trial_rid(n, m, p, d, rng) -> bool:
    covered = np.zeros(n - d, dtype=bool)
    if n < _RID_SKIP_MIN_N:
        for vals in _row_chunks(rng, m, n):
            good = (vals[:, :d] < p).all(axis=1)
            covered |= (vals[good, d:] >= p).any(axis=0)
            if covered.all():
                return True
        return False
    # PCG64's double of a word w is (w >> 11) * 2**-53, so it is >= p
    # exactly when w >= high; Python ints, as numpy 1.x compares a uint64
    # with an int above 2^63 through float64
    high = math.ceil(p * 2.0 ** 53) << 11
    bits = rng.bit_generator
    draw, word, skip = rng.random, bits.random_raw, bits.advance
    tail = np.empty(n - d)
    left = None  # once few are uncovered, their positions in a row
    for _ in range(m):
        for k in range(d):
            if word() >= high:  # a positive row: skip the rest of it
                skip(n - 1 - k)
                break
        else:
            if left is not None:
                end = left[-1] + 1
                left = [j for j, w in zip(left, _words_at(bits, d, left))
                        if w < high]
                skip(n - end)  # to the end of the row
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


def _words_at(bits, at: int, positions):
    """Yield the 64-bit words, as Python ints, of the bit generator bits
    at the given stream positions, read from position at.

    positions increase and none is behind at.  A gap of more than
    _DRAW_GAP entries before a position is advance()d over and its word
    drawn alone; a shorter gap is drawn through.  Once every word is
    read, the stream stands just past the last position.  On PCG64 a
    word w gives the double (w >> 11) * 2**-53 that Generator.random
    draws there.
    """
    word, skip = bits.random_raw, bits.advance
    for j in positions:
        gap = j - at
        if gap > _DRAW_GAP:
            skip(gap)
            yield word()
        else:
            yield int(word(gap + 1)[gap])
        at = j + 1


def _trial_rrsd(n, m, r, d, rng) -> bool:
    if r == 0 or r == n:
        return False  # no row holds anything, or every row every item
    covered = np.zeros(n, dtype=bool)
    covered[:d] = True
    # about low * (n - d) of a row's other keys lie below its least
    # defective key low, and the row is good once r of them do; the rows
    # likely to be good are read first, as coverage does not depend on
    # the order of the rows
    rows = _RowCursor(rng, m, n)
    low = rows.heads(d).min(axis=1)
    likely = low * (n - d) >= r
    keys = np.empty((1, n))
    below = np.empty(n, dtype=bool)
    for i in np.concatenate([np.flatnonzero(likely),
                             np.flatnonzero(~likely)]).tolist():
        rows.draw(i, keys)
        if not likely[i]:  # the filter, by row
            np.less_equal(keys[0], low[i], out=below)
            if np.count_nonzero(below) <= r:
                continue
        mask = _rrsd_mask(keys, r)[0]
        if not mask[:d].any():
            covered |= mask
            if covered.all():
                return True
    rows.finish()
    return False


def _trial_rssd(n, m, s, d, rng) -> bool:
    if s == 0 or s == m:
        return False  # no row holds anything, or every row every item
    good = np.ones(m, dtype=bool)  # the rows that hold no defective
    for start, w in _column_blocks(m, n):
        h = min(max(d - start, 0), w)  # the block's defective columns
        block = _BlockRows(rng, m, w)
        if h:
            good[_rssd_mask(block.heads(h), s).any(axis=1)] = False
            if not good.any():
                return False
        if h < w and not _block_covered(block, good, s, h):
            return False
        block.finish()
    return True


class _RowCursor:
    """The m rows of w doubles that start at the stream's current position
    (row i is the doubles at positions i*w to i*w + w - 1), each drawn
    only when asked for.

    It keeps the stream state at row 0's start: a position ahead is
    reached with advance(), one behind by restoring that state first.
    finish() leaves the stream at row m's start.
    """

    def __init__(self, rng, m: int, w: int):
        self.rng, self.bits, self.m, self.w = rng, rng.bit_generator, m, w
        self.start, self.at = self.bits.state, 0

    def _seek(self, pos: int) -> None:
        if pos < self.at:
            self.bits.state = self.start
            self.at = 0
        if pos > self.at:
            self.bits.advance(pos - self.at)
        self.at = pos

    def heads(self, h: int):
        """The first h keys of every row, each row's drawn alone and the
        rest of it advance()d over."""
        self._seek(0)
        draw, skip = self.rng.random, self.bits.advance
        heads = np.empty((self.m, h))
        for head in heads:
            draw(out=head)
            skip(self.w - h)
        self.at = self.m * self.w
        return heads

    def draw(self, i: int, out) -> None:
        """Draw rows i, i + 1, ... into out, as many as it holds."""
        self._seek(i * self.w)
        self.rng.random(out=out)
        self.at += out.size

    def finish(self) -> None:
        self._seek(self.m * self.w)


class _BlockRows(_RowCursor):
    """The m x w keys of one rssd column block of _column_blocks, read
    by _RowCursor into the key store keys."""

    def __init__(self, rng, m: int, w: int):
        super().__init__(rng, m, w)
        self.keys = np.empty((m, w))

    def read(self, rows) -> None:
        """Draw the given rows (increasing) into keys, each run of
        consecutive rows in one call."""
        for run in np.split(rows, np.flatnonzero(np.diff(rows) != 1) + 1):
            first, last = int(run[0]), int(run[-1]) + 1
            self.draw(first, self.keys[first:last])

    def read_at(self, i: int, cols) -> None:
        """Draw row i's keys in the columns cols (increasing) alone,
        through _words_at."""
        positions = (int(i) * self.w + cols).tolist()
        if positions[0] < self.at:
            self._seek(0)
        words = _words_at(self.bits, self.at, positions)
        self.keys[i, cols] = [(w >> 11) * 2.0 ** -53 for w in words]
        self.at = positions[-1] + 1


def _block_covered(block: _BlockRows, good, s: int, h: int) -> bool:
    """Whether every column of an rssd block past its h defective
    columns has a 1 in a good row, as _rssd_mask selects the s rows of
    each.

    low is a column's least key over the good rows read so far, so it is
    a key of a good row: when fewer than s bad keys are <= low, the s
    smallest keys hold a good key, ties included, and the column is
    covered.  Every bad row is read, and of the good rows the first
    _RSSD_FIRST_GOOD; later good rows are read one at a time while some
    column is left, and only the keys of the columns left while reading
    them alone (about _DRAW_GAP doubles' cost each) is cheaper than the
    row.  A column left after the last good row goes through
    _rssd_mask.
    """
    keys = block.keys[:, h:]
    rows, bad = np.flatnonzero(good), np.flatnonzero(~good)
    read = ~good
    read[rows[:_RSSD_FIRST_GOOD]] = True
    block.read(np.flatnonzero(read))
    low = keys[rows[0]].copy()
    for i in rows[1:_RSSD_FIRST_GOOD]:
        np.minimum(low, keys[i], out=low)
    count = np.zeros(len(low), dtype=np.min_scalar_type(len(good)))
    below = np.empty(len(low), dtype=bool)
    for i in bad:
        np.less_equal(keys[i], low, out=below)
        count += below
    left = np.flatnonzero(count >= s)
    if not left.size:
        return True
    low, bad_keys = low[left], keys[np.ix_(bad, left)]
    for i in rows[_RSSD_FIRST_GOOD:]:
        if len(left) * _DRAW_GAP < len(count):
            block.read_at(i, left + h)
        else:
            block.read([i])
        np.minimum(low, keys[i, left], out=low)
        keep = np.count_nonzero(bad_keys <= low, axis=0) >= s
        left, low, bad_keys = left[keep], low[keep], bad_keys[:, keep]
        if not left.size:
            return True
    return bool(_rssd_mask(keys[:, left], s)[good].any(axis=0).all())


def _trial_utdq(n, m_prime, q, d, rng) -> bool:
    left = None  # the columns that no row read so far covers
    step = max(1, _CHUNK_ENTRIES // n)
    for start in range(0, m_prime, step):
        entries = _utdq_entries(rng, min(step, m_prime - start), n, q)
        if left is None:
            left = np.flatnonzero(_utdq_uncovered(entries, d)) + d
        else:
            left = left[_utdq_uncovered(entries, d, left)]
        if not left.size:
            return True
    return False


def _utdq_uncovered(entries, d: int, cols=None):
    """Which of the columns cols (by default every column past the d
    defective ones) no row of the q-ary entries covers: each of their
    entries is one of its row's defective symbols, so the expansion puts
    every 1 of the column in a row that holds a defective."""
    rest = entries[:, d:] if cols is None else entries[:, cols]
    in_head = rest == entries[:, :1]
    for k in range(1, d):
        in_head |= rest == entries[:, k:k + 1]
    return in_head.all(axis=0)


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
    """Positive root t of t^2 + b t - c = 0, for c > 0.

    t = sqrt(c) u, with u the positive root of u^2 + beta u - 1 = 0 and
    beta = b / sqrt(c): b^2 and 4c are never formed, and c = inf gives
    inf.  For beta > 0, u = 2 / (beta + sqrt(beta^2 + 4)), which does not
    cancel where b^2 dwarfs c.
    """
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


def _sized(bound: str, displays: dict, model: str, n: int, d: int,
           delta: float | None, q) -> SizingResult:
    """Check the arguments, resolve utdq's alphabet q (the rate-optimal one
    when None) and evaluate displays[model](result, n, d, delta, q)."""
    _check_model(model)
    _check_args(d, n, delta=delta)
    result = partial(SizingResult, model=model, bound=bound, n=n, d=d,
                     delta=delta)
    if model == "utdq":
        q = int(spec_at("utdq", n, d, 0, q).param)
        result = partial(result, q=q)
    try:
        return displays[model](result, n, d, delta, q)
    except ArithmeticError:
        return result(reason=_BEYOND_FLOAT)


def upper_bound_m(model: str, n: int, d: int, delta: float,
                  q: int | None = None, exact_utdq: bool = False) -> SizingResult:
    """Tests sufficient for a 1-delta disjunctness guarantee.

    For utdq, q defaults to the rate-optimal alphabet; the default
    display is the simple transversal bound, the exact one (with its
    q^(d+1)-scale correction) sits behind exact_utdq=True.
    """
    return _sized("upper", _EXACT_UPPER if exact_utdq else _UPPER, model,
                  n, d, delta, q)


def _row_upper(result, n: int, d: int, delta: float, q) -> SizingResult:
    ln_2_delta = _LN2 - math.log(delta)
    b = math.sqrt(2.0 * _E * ln_2_delta)
    t = _quadratic_root_plus(-b, _E * d * (ln_2_delta + math.log(n)))
    m_real = t * t
    return result(m=math.ceil(m_real), m_real=m_real, lam=b / t)


def _rssd_upper(result, n: int, d: int, delta: float, q) -> SizingResult:
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
    # the display m - sqrt(scale * m) >= m0, with scale = 2 q^(d+1)
    # ln(2 q^d / delta), is a quadratic in t = sqrt(m); the scale comes
    # first, as its overflow refuses before _ln_p_any's exact sums
    root_scale = math.exp(0.5 * (_LN2 + (d + 1) * ln_q
                                 + math.log(ln_2_delta + d * ln_q)))
    m0 = q * (ln_2_delta + math.log(n)) / -theory._ln_p_any(q, d)
    lam = root_scale / math.sqrt(m0)
    if lam >= 1.0:
        return result(m_prime=m0 / q, lam=lam, reason=(
            f"correction factor {lam:.4g} >= 1; the exact display needs "
            f"m on the order of q^(d+1)"))
    t = _quadratic_root_plus(-root_scale, m0)
    m = q * math.ceil(t * t / q)
    return result(m=m, m_real=t * t, lam=root_scale / t, m_prime=m // q)


_UPPER = {"rid": _row_upper, "rrsd": _row_upper, "rssd": _rssd_upper,
          "utdq": _utdq_upper}
_EXACT_UPPER = {**_UPPER, "utdq": _utdq_upper_exact}


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
    return _sized("lower", _LOWER, model, n, d, None, q)


def _row_lower(result, n: int, d: int, delta, q,
               ln_n: float | None = None) -> SizingResult:
    ln_n = math.log(n) if ln_n is None else ln_n
    t = _quadratic_root_plus(_RRSD_LOWER_B, _E * d * ln_n)
    return result(m=math.ceil(t * t), m_real=t * t)


def _rrsd_lower(result, n: int, d: int, delta, q) -> SizingResult:
    ln_n = math.log(n)
    ln_threshold = 0.5 * ln_n - 3.0 * math.log(ln_n)
    if math.log(d) >= ln_threshold:
        return result(
            reason=f"precondition d < sqrt(n)/ln^3(n) fails (d={d}, "
                   f"threshold {math.exp(ln_threshold):.4g})")
    if ln_n <= 1.0:  # the rrsd display has ln(n / e)
        return result(reason=f"display's ln(n/e) is not positive at n={n}")
    return _row_lower(result, n, d, delta, q, ln_n - 1.0)


def _rssd_lower(result, n: int, d: int, delta, q) -> SizingResult:
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


def _utdq_lower(result, n: int, d: int, delta, q: int) -> SizingResult:
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


_LOWER = {"rid": _row_lower, "rrsd": _rrsd_lower, "rssd": _rssd_lower,
          "utdq": _utdq_lower}
