"""Binary and q-ary test matrices, answer vectors, and their file formats.

A test matrix has one row per pooled test and one column per item.
Rows are stored packed, each row being a single arbitrary-precision int
with bit (n-1-j) holding column j (0-based); whole-row set algebra
(the elimination decoder, the disjunctness check) then runs as big-int
AND/OR at machine word speed.  numpy is imported only inside the
functions that need it: the dense views (``from_dense``, ``to_dense``,
row packing for generation), q-ary matrices and their expansion, and
the q-ary file reader and writer.  A binary matrix file is read line
by line as bytes, and a q-ary file of single-digit entries (q <= 9) is
expanded to its binary rows from bytes, so reading and checking either
never imports numpy.

Items are 1-based everywhere in the public API, matching the on-disk
formats; row/column accessors on the raw matrices are 0-based.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import (
    DimensionError,
    MatrixParseError,
    ParameterError,
    _undecodable,
)

if TYPE_CHECKING:
    import numpy as np

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
        for t, w in enumerate(rows):
            if w < 0 or w >> n:  # no 2^n int: n may be huge while m = 0
                raise DimensionError(f"row {t} does not fit in {n} columns")
        self.m = m
        self.n = n
        self.rows = rows

    # -- construction -------------------------------------------------

    @classmethod
    def from_dense(cls, arr) -> "BitMatrix":
        """Build from any 2-D 0/1 array-like."""
        import numpy as np

        a = np.asarray(arr)
        if a.ndim != 2:
            raise DimensionError("dense input must be 2-D")
        a = a.astype(np.uint8)
        if a.max(initial=0) > 1:
            raise DimensionError("dense input must be 0/1")
        return cls(*a.shape, _pack_rows(a))

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

    def to_dense(self) -> np.ndarray:
        import numpy as np

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
        import numpy as np

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

    @classmethod
    def _drawn(cls, q: int, entries) -> "QaryMatrix":
        """A matrix around a 2-D int64 array that the package has just
        drawn in [1, q] and holds no other reference to: the array is
        made read-only in place, without the copy and range scan of
        __init__, which every array from outside goes through.
        """
        entries.flags.writeable = False
        self = object.__new__(cls)
        self.m, self.n = entries.shape
        self.q = q
        self.entries = entries
        return self

    def __eq__(self, other):
        return (isinstance(other, QaryMatrix)
                and (self.m, self.n, self.q) == (other.m, other.n, other.q)
                and bool((self.entries == other.entries).all()))

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
    """A candidate set of defective items (1-based)."""

    items: tuple

    def __init__(self, items):
        items = tuple(sorted(int(i) for i in items))
        if any(i < 1 for i in items):
            raise DimensionError("items are 1-based; got an index < 1")
        if len(set(items)) != len(items):
            raise DimensionError("duplicate item in defective set")
        object.__setattr__(self, "items", items)

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __contains__(self, i):
        return i in self.items


# ---------------------------------------------------------------------
# operations


def _pack_rows(bits2d) -> list:
    """One packed int per row of a 2-D 0/1 array, column 0 the high bit."""
    import numpy as np

    pad = (-bits2d.shape[1]) % 8
    return [int.from_bytes(r.tobytes(), "big") >> pad
            for r in np.packbits(bits2d, axis=1)]


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

    An empty set yields the all-negative vector.  The answers are built
    as one string of m characters and read with one int(·, 2), which is
    linear in m; shifting an m-bit int once per row would be quadratic.
    """
    mask = _item_mask(matrix, items)
    s = "".join(["1" if w & mask else "0" for w in matrix.rows])
    return AnswerVector(matrix.m, int(s, 2) if s else 0)


def expand_qary(mq: QaryMatrix) -> BitMatrix:
    """Expand each q-ary row into q binary indicator rows.

    Row i (0-based) and symbol s produce binary row i*q + (s-1), which
    has a 1 exactly in the columns where row i equals s.  Each group of
    q rows therefore partitions the items.
    """
    rows = []
    for block in _indicator_rows(mq.entries, mq.q):
        rows += _pack_rows(block)
    return BitMatrix(mq.m * mq.q, mq.n, rows)


def _indicator_rows(entries, q: int):
    """The binary rows of the q-ary rows entries (a 2-D int array over
    [1, q]), as expand_qary numbers them, in consecutive 2-D bool blocks
    of the q indicator rows of as many q-ary rows as _WRITE_BLOCK
    entries hold (at least one)."""
    import numpy as np

    m, n = entries.shape
    symbols = np.arange(1, q + 1)[:, None]
    step = max(1, _WRITE_BLOCK // (q * n))
    for lo in range(0, m, step):
        yield (entries[lo:lo + step, None, :] == symbols).reshape(-1, n)


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
#
# read_matrix parses a q-ary file whose bytes _qary_from_bytes can vouch
# for as whole numpy arrays.  Any other file, every binary one among
# them, goes line by line (_matrix_from_lines), which names the first
# bad line and is the oracle the whole-array reader is tested against.
#
# check and decode want the binary view, a q-ary matrix expanded.  For a
# q-ary file of single digits, _single_digit_expansion builds it from
# the bytes without numpy or a QaryMatrix; a file it does not vouch for
# goes through read_matrix and expand_qary, which are its oracle.
#
# write_matrix writes a q-ary matrix over q <= 9 from a fixed byte layout,
# a digit and then a space or line break per entry, without splitting
# numbers into decimal places; the bytes are the same as formatting each
# number, which is how a larger alphabet is written.
#
# A BitMatrix is written row by row from its packed ints (row_string).
# A design's binary file is written block by block as its rows are drawn
# (_RowBlocks): each dense bool block becomes its file bytes at once
# (_binary_lines), with no packed row and no per-row formatting, and the
# two give the same bytes.  A utdq design's q-ary file and its binary
# expansion are written together, block by block as its q-ary rows are
# drawn (_QaryRowBlocks).  Such a write goes straight into new files
# that its caller replaces the targets with, as `design` writes every
# target all or nothing.

# the bytes of a q-ary file that _qary_from_bytes reads
_QARY_BYTES = b"0123456789 \n"

# the longest entry _qary_from_bytes reads; 10**18 - 1 fits in an int64
_QARY_DIGITS = 18

# entries the writers and expand_qary take at once: bounds their buffers,
# not their output
_WRITE_BLOCK = 1 << 20


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise MatrixParseError(path, 0, f"cannot read: {exc}") from exc


def _lines(path, data: bytes):
    """The lines of an ASCII file as bytes, split as text mode splits
    them: CR LF and a lone CR end a line, as LF does.

    Each line is copied out only when it is reached, so reading a large
    file never holds a copy of every line at once.
    """
    if not data.isascii():
        try:  # fails, but names the line of the first non-ASCII byte
            data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    start = 0
    while (end := data.find(b"\n", start)) >= 0:
        yield data[start:end]
        start = end + 1
    yield data[start:]


def read_matrix(path) -> BitMatrix | QaryMatrix:
    """Load a matrix file, dispatching on the header arity."""
    data = _read_bytes(path)
    return _qary_from_bytes(data) or _matrix_from_lines(path, data)


def _qary_from_bytes(data: bytes) -> QaryMatrix | None:
    """A well-formed q-ary file parsed as whole numpy arrays, or None.

    None means a file this path does not vouch for: a binary or
    malformed header, a byte other than a digit, a space or LF, an
    entry of more than _QARY_DIGITS digits, a row with the wrong count,
    a missing row or an entry outside [1, q].  _matrix_from_lines then
    reads it, or names its first bad line.  Lines after row m are
    ignored, as there.
    """
    end = data.find(b"\n")
    header = data[:end] if end >= 0 else data
    try:
        m, n, q = map(int, header.split())
    except ValueError:  # not three numbers, or one too long for int()
        return None
    if n < 1 or q < 2 or data.translate(None, _QARY_BYTES):
        return None
    import numpy as np

    text = np.frombuffer(data, dtype=np.uint8)[len(header) + 1:]
    breaks = np.flatnonzero(text == ord("\n"))
    if m == 0:
        text = text[:0]
    elif m <= len(breaks):
        text = text[:breaks[m - 1]]
    # else row m is the last line and has no newline
    digit = np.concatenate(([False], text >= ord("0"), [False]))
    starts, stops = np.flatnonzero(digit[1:] != digit[:-1]).reshape(-1, 2).T
    if (len(starts) != m * n or not np.array_equal(
            np.searchsorted(starts, breaks[:max(m - 1, 0)]),
            np.arange(n, m * n, n))):
        return None
    width = stops - starts
    digits = int(width.max(initial=0))
    if digits > _QARY_DIGITS:
        return None
    entries = text[stops - 1] - np.int64(ord("0"))
    for k in range(1, digits):
        # stops - 1 - k may wrap below 0, but only where width <= k
        place = np.where(width > k, text[stops - 1 - k] - ord("0"), 0)
        entries += place * np.int64(10 ** k)
    try:
        return QaryMatrix(m, n, q, entries.reshape(m, n))
    except DimensionError:  # an entry outside [1, q]
        return None


def _single_digit_expansion(path) -> BitMatrix | None:
    """expand_qary(read_matrix(path)) for a q-ary file of single-digit
    entries, built from its bytes alone, or None.

    The header decides first: unless it is three numbers with n >= 1 and
    2 <= q <= 9, this returns None before reading the body, so a binary
    file or a larger alphabet costs one line.  Rows 1..m must then each
    hold n digits in 1..q, apart by spaces.  None means a file this
    reader does not vouch for (an entry of several digits, a CR, a tab,
    a short or bad row, a byte that is not ASCII, or a path that cannot
    be opened), which read_matrix then reads or names the first bad line
    of.  Lines after row m are ignored, as there.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            if header.translate(None, b"0123456789 \n"):
                return None
            try:
                m, n, q = map(int, header.split())
            except ValueError:  # not three numbers, or one too long for int()
                return None
            if n < 1 or not 2 <= q <= 9:
                return None
            body = fh.read()
    except OSError:
        return None
    # a row holds n digits, so m * n bounds m before the body is split
    if not body.isascii() or m * n > len(body):
        return None
    if m == 0:
        return BitMatrix(0, n, ())
    text = b"\n".join(body.split(b"\n", m)[:m])  # rows 1..m
    digits = text.translate(None, b" ")
    symbols = b"123456789"[:q]
    # only symbols and the m - 1 line breaks, each after n symbols
    if (len(digits) != m * (n + 1) - 1
            or digits.translate(None, symbols) != b"\n" * (m - 1)
            or digits[n::n + 1] != b"\n" * (m - 1)):
        return None
    # no two symbols touch; in write_matrix's layout every other byte is
    # a space or a line break, which rules that out without a search
    if (text[1::2].translate(None, b" \n")
            and b"11" in text.translate(bytes.maketrans(symbols, b"1" * q))):
        return None
    # indicator row i*q + s - 1 has a 1 where row i holds symbol s; the
    # q rows of row i partition the columns, so the last is what the
    # others leave
    blocks = []
    for k in range(q - 1):
        table = bytes.maketrans(symbols, b"0" * k + b"1" + b"0" * (q - 1 - k))
        blocks.append([int(r, 2) for r in digits.translate(table).split(b"\n")])
    full = (1 << n) - 1
    rows = []
    for group in zip(*blocks):
        rows += group
        rows.append(full - sum(group))
    return BitMatrix(m * q, n, rows)


def _matrix_from_lines(path, data: bytes) -> BitMatrix | QaryMatrix:
    """Parse a matrix file line by line, naming the first bad line.

    It reads every file read_matrix accepts, so it is the oracle of
    _qary_from_bytes, and it reads every file that reader does not vouch
    for, every binary one among them.  Lines come as bytes; the header
    and a q-ary row are split as str, so that str.split's whitespace
    separates their numbers.
    """
    lines = _lines(path, data)
    header = next(lines).decode().split()
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
        for lineno, s in zip(range(2, m + 2), lines):
            if len(s) != n:
                raise MatrixParseError(
                    path, lineno, f"expected {n} characters, got {len(s)}")
            if s.translate(None, b"01"):
                raise MatrixParseError(path, lineno, "characters must be 0 or 1")
            rows.append(int(s, 2))
        if len(rows) < m:
            raise MatrixParseError(path, len(rows) + 2, "missing row")
        return BitMatrix(m, n, rows)
    m, n, q = nums
    if m < 0 or n < 1 or q < 2:
        raise MatrixParseError(path, 1, f"bad dimensions {m} x {n} over q={q}")
    import numpy as np

    rows = []  # not m x n zeros: the header may promise more than the file
    for lineno, line in zip(range(2, m + 2), lines):
        parts = line.decode().split()
        if len(parts) != n:
            raise MatrixParseError(
                path, lineno, f"expected {n} entries, got {len(parts)}")
        try:
            vals = np.array(list(map(int, parts)), dtype=np.int64)
        except ValueError:
            raise MatrixParseError(path, lineno, "entries must be integers")
        except OverflowError:  # an entry beyond int64 lies outside [1, q]
            vals = None
        if vals is None or vals.min() < 1 or vals.max() > q:
            raise MatrixParseError(path, lineno, f"entries must lie in [1, {q}]")
        rows.append(vals)
    if len(rows) < m:
        raise MatrixParseError(path, len(rows) + 2, "missing row")
    return QaryMatrix(m, n, q, np.array(rows, dtype=np.int64).reshape(m, n))


@contextlib.contextmanager
def _replace_on_success(*paths):
    """Paths of new, empty files, one next to each path, that replace
    the paths when the block finishes.

    Every new file is created before the block starts and no path is
    replaced before it finishes, so an error in the block leaves every
    path with its old contents; the new files are then removed.  An
    OSError about a new file names its path instead, which is the name
    the caller knows.
    """
    targets = {}
    for path in map(os.fspath, paths):
        head, tail = os.path.split(path)
        targets[os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")] = path
    made = []
    try:
        for tmp in targets:
            open(tmp, "x").close()
            made.append(tmp)
        yield made
        for tmp, path in targets.items():
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in made:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename in targets:
            exc.filename = targets[exc.filename]
            del exc.filename2  # unset, not None, or str(exc) shows "-> None"
        raise


def _qary_blocks(entries, q: int):
    """The rows of a q-ary matrix as file bytes, a block at a time:
    " ".join(map(str, row)) + "\\n" for each row.

    Over q <= 9 every entry is one digit, so each becomes two bytes, its
    digit and a space, or a newline after the last entry of a row.  A
    larger alphabet takes one byte per decimal place of the largest
    entry, NUL where a shorter number has no digit, and the NULs are
    then dropped.
    """
    import numpy as np

    m, n = entries.shape
    if q <= 9:
        step = max(1, _WRITE_BLOCK // n)
        for lo in range(0, m, step):
            block = entries[lo:lo + step]
            cells = np.empty((*block.shape, 2), dtype=np.uint8)
            np.add(block, ord("0"), out=cells[..., 0], casting="unsafe")
            cells[..., 1] = ord(" ")
            cells[:, -1, 1] = ord("\n")
            yield cells.ravel()
        return
    width = len(str(entries.max(initial=1)))
    scale = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    step = max(1, _WRITE_BLOCK // (n * width))
    for lo in range(0, m, step):
        block = entries[lo:lo + step, :, None]
        cells = np.empty((*block.shape[:2], width + 1), dtype=np.uint8)
        # entries are >= 1, so every number keeps its units digit
        cells[..., :width] = np.where(block >= scale,
                                      block // scale % 10 + ord("0"), 0)
        cells[..., width] = ord(" ")
        cells[:, -1, width] = ord("\n")
        cells = cells.ravel()
        yield cells[cells != 0]


class _RowBlocks(NamedTuple):
    """An m x n binary matrix on its way to a file: its rows as
    consecutive 2-D bool blocks, each drawn when the writer reaches it,
    so the whole matrix is never held at once."""

    m: int
    n: int
    blocks: Iterable


class _QaryRowBlocks(NamedTuple):
    """An m x n q-ary matrix on its way to a file, and its expansion on
    the way to a new file at expanded: its rows as consecutive 2-D int
    blocks, each drawn when the writer reaches it.  Each block's q-ary
    lines and indicator rows are written before the next is drawn, so
    neither matrix is held whole."""

    m: int
    n: int
    q: int
    blocks: Iterable
    expanded: str


def _binary_lines(block):
    """The binary file lines of the rows of a 2-D bool block, as one
    uint8 array: each row's n cells, ord("0") + bit, and then a "\\n"."""
    import numpy as np

    k, n = block.shape
    cells = np.empty((k, n + 1), dtype=np.uint8)
    # a bool is the byte 0 or 1; adding in uint8 skips a cast per cell
    np.add(block.view(np.uint8), np.uint8(ord("0")), out=cells[:, :n])
    cells[:, n] = ord("\n")
    return cells.ravel()


def write_matrix(path, matrix) -> None:
    """Write a BitMatrix or QaryMatrix to path, all or nothing.

    A _RowBlocks is written into path itself, and a _QaryRowBlocks into
    path and its expanded file, which must be new files that the caller
    replaces its targets with (_replace_on_success).
    """
    if isinstance(matrix, _RowBlocks):
        with open(path, "wb") as fh:
            fh.write(f"{matrix.m} {matrix.n}\n".encode())
            fh.writelines(map(_binary_lines, matrix.blocks))
        return
    if isinstance(matrix, _QaryRowBlocks):
        m, n, q = matrix.m, matrix.n, matrix.q
        with open(path, "wb") as fh, open(matrix.expanded, "wb") as bfh:
            fh.write(f"{m} {n} {q}\n".encode())
            bfh.write(f"{m * q} {n}\n".encode())
            for entries in matrix.blocks:
                fh.writelines(_qary_blocks(entries, q))
                bfh.writelines(map(_binary_lines, _indicator_rows(entries, q)))
        return
    with (_replace_on_success(path) as (tmp,),
          open(tmp, "wb") as fh):
        if isinstance(matrix, BitMatrix):
            fh.write(f"{matrix.m} {matrix.n}\n".encode())
            for t in range(matrix.m):
                fh.write(f"{matrix.row_string(t)}\n".encode())
        elif isinstance(matrix, QaryMatrix):
            fh.write(f"{matrix.m} {matrix.n} {matrix.q}\n".encode())
            fh.writelines(_qary_blocks(matrix.entries, matrix.q))
        else:
            raise TypeError(f"cannot write {type(matrix).__name__}")


def read_answers(path, expected_m: int | None = None) -> AnswerVector:
    s = next(_lines(path, _read_bytes(path))).decode()
    if not s:
        if expected_m == 0:
            return AnswerVector(0, 0)
        raise MatrixParseError(path, 1, "empty answer line")
    if set(s) - {"0", "1"}:
        raise MatrixParseError(path, 1, "characters must be 0 or 1")
    if expected_m is not None and len(s) != expected_m:
        raise MatrixParseError(
            path, 1, f"expected {expected_m} answers, got {len(s)}")
    return AnswerVector.from01(s)


def write_answers(path, answers: AnswerVector) -> None:
    with (_replace_on_success(path) as (tmp,),
          open(tmp, "w", encoding="ascii") as fh):
        fh.write(answers.to01() + "\n")
