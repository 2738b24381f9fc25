"""Binary and q-ary test matrices, answer vectors, and their file formats.

A test matrix has one row per pooled test and one column per item.
Rows are stored packed, each row being a single arbitrary-precision int
with bit (n-1-j) holding column j (0-based); whole-row set algebra
(the elimination decoder, the disjunctness check) then runs as big-int
AND/OR at machine word speed.  Dense numpy views exist only at the
boundaries (generation and file I/O).

Items are 1-based everywhere in the public API, matching the on-disk
formats; row/column accessors on the raw matrices are 0-based.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MatrixParseError, ParameterError

__all__ = [
    "BitMatrix",
    "QaryMatrix",
    "AnswerVector",
    "DefectiveSet",
    "or_columns",
    "expand_qary",
    "read_matrix",
    "write_matrix",
    "read_answers",
    "write_answers",
]


class BitMatrix:
    """Immutable m x n binary matrix with packed rows.

    ``rows[t]`` is the int whose bit (n-1-j) is entry (t, j), so the
    binary string of a row reads left to right in column order.  m = 0
    is allowed (an empty design that answers nothing); n must be >= 1.
    """

    __slots__ = ("m", "n", "rows")

    def __init__(self, m: int, n: int, rows):
        if n < 1:
            raise DimensionError("matrix needs at least one column")
        if m < 0:
            raise DimensionError("negative row count")
        rows = tuple(rows)
        if len(rows) != m:
            raise DimensionError(f"expected {m} rows, got {len(rows)}")
        limit = 1 << n
        for t, w in enumerate(rows):
            if not 0 <= w < limit:
                raise DimensionError(f"row {t} does not fit in {n} columns")
        self.m = m
        self.n = n
        self.rows = rows

    # -- construction -------------------------------------------------

    @classmethod
    def from_dense(cls, arr) -> "BitMatrix":
        """Build from any 2-D 0/1 array-like."""
        a = np.asarray(arr)
        if a.ndim != 2:
            raise DimensionError("dense input must be 2-D")
        m, n = a.shape
        if m == 0:
            return cls(0, n, ())
        a = a.astype(np.uint8)
        if a.max(initial=0) > 1:
            raise DimensionError("dense input must be 0/1")
        pad = (-n) % 8
        packed = np.packbits(a, axis=1)
        rows = [int.from_bytes(r.tobytes(), "big") >> pad for r in packed]
        return cls(m, n, rows)

    @classmethod
    def from_strings(cls, lines) -> "BitMatrix":
        """Build from row strings like ("110", "011")."""
        lines = list(lines)
        n = len(lines[0]) if lines else 1
        rows = []
        for s in lines:
            if len(s) != n or set(s) - {"0", "1"}:
                raise DimensionError(f"bad row string {s!r}")
            rows.append(int(s, 2) if s else 0)
        return cls(len(lines), n, rows)

    # -- accessors ----------------------------------------------------

    def get(self, t: int, j: int) -> int:
        """Entry at 0-based row t, column j."""
        if not (0 <= t < self.m and 0 <= j < self.n):
            raise DimensionError(f"index ({t}, {j}) out of range")
        return (self.rows[t] >> (self.n - 1 - j)) & 1

    def row_weight(self, t: int) -> int:
        return self.rows[t].bit_count()

    def column_weight(self, j: int) -> int:
        if not 0 <= j < self.n:
            raise DimensionError(f"column {j} out of range")
        mask = 1 << (self.n - 1 - j)
        return sum(1 for w in self.rows if w & mask)

    def column_words(self):
        """Transpose view: one packed int per column, bit (m-1-t) = row t.

        Handy when many unions of column subsets are needed (the
        separability scan); building it costs one pass over the matrix.
        """
        n, m = self.n, self.m
        cols = [0] * n
        for w in self.rows:
            for j in range(n):
                cols[j] = (cols[j] << 1) | ((w >> (n - 1 - j)) & 1)
        return cols

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.m, self.n), dtype=np.uint8)
        pad = (-self.n) % 8
        nbytes = (self.n + 7) // 8
        for t, w in enumerate(self.rows):
            b = np.frombuffer((w << pad).to_bytes(nbytes, "big"), dtype=np.uint8)
            out[t] = np.unpackbits(b)[: self.n]
        return out

    def row_string(self, t: int) -> str:
        return format(self.rows[t], f"0{self.n}b")

    @property
    def full_row_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other):
        return (isinstance(other, BitMatrix)
                and (self.m, self.n, self.rows) == (other.m, other.n, other.rows))

    def __hash__(self):
        return hash((self.m, self.n, self.rows))

    def __repr__(self):
        return f"BitMatrix(m={self.m}, n={self.n})"


class QaryMatrix:
    """Immutable m' x n matrix over the alphabet {1, ..., q}."""

    __slots__ = ("m", "n", "q", "entries")

    def __init__(self, m: int, n: int, q: int, entries):
        if q < 2:
            raise ParameterError("alphabet size q must be >= 2")
        if n < 1:
            raise DimensionError("matrix needs at least one column")
        a = np.array(entries, dtype=np.int64, copy=True)
        if a.shape != (m, n):
            raise DimensionError(f"expected shape {(m, n)}, got {a.shape}")
        if a.size and (a.min() < 1 or a.max() > q):
            raise DimensionError(f"entries must lie in [1, {q}]")
        a.flags.writeable = False
        self.m = m
        self.n = n
        self.q = q
        self.entries = a

    def __eq__(self, other):
        return (isinstance(other, QaryMatrix)
                and (self.m, self.n, self.q) == (other.m, other.n, other.q)
                and bool(np.array_equal(self.entries, other.entries)))

    def __repr__(self):
        return f"QaryMatrix(m={self.m}, n={self.n}, q={self.q})"


@dataclass(frozen=True)
class AnswerVector:
    """Pooled test outcomes: bit (m-1-t) of ``bits`` is test t (0-based)."""

    m: int
    bits: int

    def __post_init__(self):
        if self.m < 0:
            raise DimensionError("negative length")
        if not 0 <= self.bits < (1 << self.m if self.m else 1):
            raise DimensionError("answer bits do not fit the stated length")

    @classmethod
    def from01(cls, s: str) -> "AnswerVector":
        if set(s) - {"0", "1"}:
            raise DimensionError(f"bad answer string {s!r}")
        return cls(len(s), int(s, 2) if s else 0)

    def bit(self, t: int) -> int:
        if not 0 <= t < self.m:
            raise DimensionError(f"test {t} out of range")
        return (self.bits >> (self.m - 1 - t)) & 1

    def to01(self) -> str:
        return format(self.bits, f"0{self.m}b") if self.m else ""

    def __len__(self):
        return self.m


@dataclass(frozen=True)
class DefectiveSet:
    """A candidate set of defective items (1-based) plus its size budget."""

    items: tuple
    d_bound: int

    def __init__(self, items, d_bound: int | None = None):
        items = tuple(sorted(int(i) for i in items))
        if any(i < 1 for i in items):
            raise DimensionError("items are 1-based; got an index < 1")
        if len(set(items)) != len(items):
            raise DimensionError("duplicate item in defective set")
        if d_bound is None:
            d_bound = len(items)
        if d_bound < len(items):
            raise ParameterError("d_bound smaller than the set itself")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "d_bound", int(d_bound))

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __contains__(self, i):
        return i in self.items


# ---------------------------------------------------------------------
# operations


def _item_mask(matrix: BitMatrix, items) -> int:
    """OR of the column bits for 1-based ``items``; validates range."""
    n = matrix.n
    mask = 0
    for i in items:
        i = int(i)
        if not 1 <= i <= n:
            raise DimensionError(f"item {i} out of range 1..{n}")
        mask |= 1 << (n - i)
    return mask


def or_columns(matrix: BitMatrix, items) -> AnswerVector:
    """Answer vector for a defective set: bitwise OR of its columns.

    An empty set yields the all-negative vector.
    """
    mask = _item_mask(matrix, items)
    acc = 0
    for w in matrix.rows:
        acc = (acc << 1) | (1 if w & mask else 0)
    return AnswerVector(matrix.m, acc)


def expand_qary(mq: QaryMatrix) -> BitMatrix:
    """Expand each q-ary row into q binary indicator rows.

    Row i (0-based) and symbol s produce binary row i*q + (s-1), which
    has a 1 exactly in the columns where row i equals s.  Each group of
    q rows therefore partitions the items.
    """
    q = mq.q
    rows = []
    if mq.m:
        pad = (-mq.n) % 8
        for i in range(mq.m):
            row = mq.entries[i]
            for s in range(1, q + 1):
                packed = np.packbits(row == s)
                rows.append(int.from_bytes(packed.tobytes(), "big") >> pad)
    return BitMatrix(mq.m * q, mq.n, rows)


# ---------------------------------------------------------------------
# file I/O
#
# Binary matrix file:  header "m n", then m lines of exactly n chars 0/1.
# Q-ary matrix file:   header "m n q", then m lines of n space-separated
#                      integers in [1, q].
# Answer vector file:  a single line of m chars 0/1.
#
# All errors name the 1-based offending line.  Writers fill a new file in
# the same directory and rename it over the target, so a failed write
# never leaves a truncated or partial file behind.


def _read_lines(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read().split("\n")
    except OSError as exc:
        raise MatrixParseError(path, 0, f"cannot read: {exc}") from exc


def read_matrix(path) -> BitMatrix | QaryMatrix:
    """Load a matrix file, dispatching on the header arity."""
    lines = _read_lines(path)
    header = lines[0].split() if lines else []
    try:
        nums = [int(x) for x in header]
    except ValueError:
        nums = None
    if nums is None or len(nums) not in (2, 3):
        raise MatrixParseError(path, 1, "header must be 'm n' or 'm n q'")
    if len(nums) == 2:
        m, n = nums
        if m < 0 or n < 1:
            raise MatrixParseError(path, 1, f"bad dimensions {m} x {n}")
        rows = []
        for t in range(m):
            lineno = t + 2
            if lineno - 1 >= len(lines):
                raise MatrixParseError(path, lineno, "missing row")
            s = lines[lineno - 1]
            if len(s) != n:
                raise MatrixParseError(
                    path, lineno, f"expected {n} characters, got {len(s)}")
            if set(s) - {"0", "1"}:
                raise MatrixParseError(path, lineno, "characters must be 0 or 1")
            rows.append(int(s, 2))
        return BitMatrix(m, n, rows)
    m, n, q = nums
    if m < 0 or n < 1 or q < 2:
        raise MatrixParseError(path, 1, f"bad dimensions {m} x {n} over q={q}")
    entries = np.zeros((m, n), dtype=np.int64)
    for t in range(m):
        lineno = t + 2
        if lineno - 1 >= len(lines):
            raise MatrixParseError(path, lineno, "missing row")
        parts = lines[lineno - 1].split()
        if len(parts) != n:
            raise MatrixParseError(
                path, lineno, f"expected {n} entries, got {len(parts)}")
        try:
            vals = [int(x) for x in parts]
        except ValueError:
            raise MatrixParseError(path, lineno, "entries must be integers")
        if any(v < 1 or v > q for v in vals):
            raise MatrixParseError(path, lineno, f"entries must lie in [1, {q}]")
        entries[t] = vals
    return QaryMatrix(m, n, q, entries)


@contextlib.contextmanager
def _replace_on_success(path):
    """Text handle on a new file next to path that replaces path on exit.

    Nothing is written to path itself until the block finishes; on any
    error the new file is removed and path keeps its old contents.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="ascii")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_matrix(path, matrix) -> None:
    with _replace_on_success(path) as fh:
        if isinstance(matrix, BitMatrix):
            fh.write(f"{matrix.m} {matrix.n}\n")
            for t in range(matrix.m):
                fh.write(matrix.row_string(t) + "\n")
        elif isinstance(matrix, QaryMatrix):
            fh.write(f"{matrix.m} {matrix.n} {matrix.q}\n")
            for t in range(matrix.m):
                fh.write(" ".join(str(int(v)) for v in matrix.entries[t]) + "\n")
        else:
            raise TypeError(f"cannot write {type(matrix).__name__}")


def read_answers(path, expected_m: int | None = None) -> AnswerVector:
    lines = _read_lines(path)
    if not lines or not lines[0]:
        if expected_m == 0:
            return AnswerVector(0, 0)
        raise MatrixParseError(path, 1, "empty answer line")
    s = lines[0]
    if set(s) - {"0", "1"}:
        raise MatrixParseError(path, 1, "characters must be 0 or 1")
    if expected_m is not None and len(s) != expected_m:
        raise MatrixParseError(
            path, 1, f"expected {expected_m} answers, got {len(s)}")
    return AnswerVector.from01(s)


def write_answers(path, answers: AnswerVector) -> None:
    with _replace_on_success(path) as fh:
        fh.write(answers.to01() + "\n")
