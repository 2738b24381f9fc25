import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpool import designs, matrices
from gtpool.cli import _binary_matrix
from gtpool.errors import DimensionError, MatrixParseError
from gtpool.matrices import (
    AnswerVector,
    BitMatrix,
    DefectiveSet,
    QaryMatrix,
    _matrix_from_lines,
    _qary_from_bytes,
    _single_digit_expansion,
    expand_qary,
    or_columns,
    read_answers,
    read_matrix,
    write_answers,
    write_matrix,
)


def dense_matrices(max_m=6, max_n=8):
    return st.integers(1, max_m).flatmap(
        lambda m: st.integers(1, max_n).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                min_size=m, max_size=m)))


# malformed matrix files and the 1-based line their error names
PARSE_ERRORS = [
    ("not a header\n", 1),
    ("2 3\n101\n10\n", 3),          # short row
    ("2 3\n101\n1x1\n", 3),         # bad character
    ("1 2 3\n1 5\n", 2),            # q-ary entry out of range
    ("1 2 3\n0 1\n", 2),            # q-ary entry of 0
    ("1 2 3\n1 2.0\n", 2),          # q-ary entry not an integer
    ("1 3 3\n1 99999999999999999999 x\n", 2),  # beyond int64, then junk
    ("2 3\n101\n1_1\n", 3),        # int(s, 2) would accept it
    ("2 3\n101\n+01\n", 3),        # int(s, 2) would accept it
    ("2 3\n101\n", 3),              # row 2 is empty
]


class TestBitMatrix:
    def test_from_strings_and_get(self):
        m = BitMatrix.from_strings(["101", "010"])
        assert (m.m, m.n) == (2, 3)
        assert [m.get(0, j) for j in range(3)] == [1, 0, 1]
        assert [m.get(1, j) for j in range(3)] == [0, 1, 0]

    def test_row_bit_layout(self):
        # column 0 is the most significant bit of the row word
        m = BitMatrix(1, 4, [0b1000])
        assert m.get(0, 0) == 1
        assert m.row_string(0) == "1000"

    def test_zero_rows_allowed(self):
        m = BitMatrix(0, 3, [])
        assert m.m == 0
        assert m.full_row_mask == 0b111

    def test_row_out_of_range_rejected(self):
        with pytest.raises(DimensionError):
            BitMatrix(1, 2, [4])

    def test_weights(self):
        m = BitMatrix.from_strings(["110", "011", "000"])
        assert [m.row_weight(t) for t in range(3)] == [2, 2, 0]
        assert [m.column_weight(j) for j in range(3)] == [1, 2, 1]

    @given(dense_matrices())
    @settings(max_examples=60)
    def test_dense_round_trip(self, rows):
        arr = np.array(rows, dtype=np.uint8)
        m = BitMatrix.from_dense(arr)
        assert np.array_equal(m.to_dense(), arr)

    @given(dense_matrices())
    @settings(max_examples=60)
    def test_strings_agree_with_dense(self, rows):
        arr = np.array(rows, dtype=np.uint8)
        via_str = BitMatrix.from_strings(
            "".join(str(b) for b in row) for row in rows)
        assert via_str == BitMatrix.from_dense(arr)

    def test_eq_and_hash(self):
        a = BitMatrix.from_strings(["10", "01"])
        b = BitMatrix.from_strings(["10", "01"])
        assert a == b and hash(a) == hash(b)
        assert a != BitMatrix.from_strings(["10", "11"])


class TestAnswerVector:
    def test_from01_round_trip(self):
        v = AnswerVector.from01("1011")
        assert v.to01() == "1011"
        assert [v.bit(t) for t in range(4)] == [1, 0, 1, 1]
        assert len(v) == 4

    def test_bad_chars(self):
        with pytest.raises(DimensionError):
            AnswerVector.from01("10x")


class TestDefectiveSet:
    def test_sorted(self):
        s = DefectiveSet([3, 1])
        assert list(s) == [1, 3]
        assert 3 in s and 2 not in s

    def test_duplicates_rejected(self):
        with pytest.raises(DimensionError):
            DefectiveSet([3, 1, 3])

    def test_one_based(self):
        with pytest.raises(DimensionError):
            DefectiveSet([0, 1])


class TestOrColumns:
    def test_hand_example(self):
        m = BitMatrix.from_strings(["10110", "01011", "00101"])
        assert or_columns(m, [1, 3]).to01() == "101"

    def test_item_out_of_range(self):
        m = BitMatrix.from_strings(["10"])
        with pytest.raises(DimensionError):
            or_columns(m, [3])

    @given(dense_matrices(), st.data())
    @settings(max_examples=60)
    def test_matches_dense_or(self, rows, data):
        arr = np.array(rows, dtype=np.uint8)
        m = BitMatrix.from_dense(arr)
        items = data.draw(st.lists(
            st.integers(1, m.n), min_size=1, max_size=m.n, unique=True))
        got = or_columns(m, items)
        want = np.bitwise_or.reduce(arr[:, [i - 1 for i in items]], axis=1)
        assert got.to01() == "".join(str(b) for b in want)

    @pytest.mark.parametrize("m, n", [(0, 1), (0, 9), (1, 1), (7, 1), (40, 3),
                                      (3, 70), (2000, 2), (300, 65)])
    def test_matches_row_shifts(self, m, n):
        # the oracle shifts the answers once per row, quadratic in m
        rng = np.random.default_rng(1000 * m + n)
        matrix = BitMatrix.from_dense(rng.integers(0, 2, size=(m, n)))
        some = sorted({int(i) for i in rng.integers(1, n + 1, 3)})
        for items in ([], [1], [n], some):
            mask = sum(1 << (n - i) for i in items)
            acc = 0
            for w in matrix.rows:
                acc = (acc << 1) | (1 if w & mask else 0)
            assert or_columns(matrix, items) == AnswerVector(m, acc)


class TestQary:
    def test_entries_validated(self):
        with pytest.raises(DimensionError):
            QaryMatrix(1, 2, 3, [[0, 1]])
        with pytest.raises(DimensionError):
            QaryMatrix(1, 2, 3, [[1, 4]])

    def test_entries_copied_and_read_only(self):
        source = np.array([[1, 2, 3]])
        mq = QaryMatrix(1, 3, 3, source)
        source[0, 0] = 3
        assert mq.entries.tolist() == [[1, 2, 3]]
        assert mq.entries.dtype == np.int64
        with pytest.raises(ValueError):
            mq.entries[0, 0] = 2

    def test_expand_block_structure(self):
        mq = QaryMatrix(2, 3, 3, [[1, 2, 3], [3, 3, 1]])
        e = expand_qary(mq)
        assert (e.m, e.n) == (6, 3)
        # row i*q + (s-1) indicates entries equal to s
        assert e.row_string(0) == "100"   # symbol 1 in q-ary row 0
        assert e.row_string(1) == "010"
        assert e.row_string(2) == "001"
        assert e.row_string(3) == "001"   # symbol 1 in q-ary row 1
        assert e.row_string(5) == "110"

    @given(st.integers(2, 5), st.integers(1, 4), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_expand_column_weight(self, q, m_prime, n, seed):
        rng = np.random.default_rng(seed)
        entries = rng.integers(1, q + 1, size=(m_prime, n))
        e = expand_qary(QaryMatrix(m_prime, n, q, entries))
        # each q-ary row contributes exactly one 1 per column
        assert all(e.column_weight(j) == m_prime for j in range(n))


class TestFileIO:
    def test_binary_round_trip(self, tmp_path):
        m = BitMatrix.from_strings(["1010", "0101", "1111"])
        path = tmp_path / "m.txt"
        write_matrix(path, m)
        assert read_matrix(path) == m

    def test_empty_matrix_with_huge_n(self, tmp_path):
        # the row range check must not build 1 << n, a 125 GB int here
        path = tmp_path / "m.txt"
        path.write_bytes(b"0 1000000000000\n")
        assert read_matrix(path) == BitMatrix(0, 10**12, [])

    def test_qary_round_trip(self, tmp_path):
        mq = QaryMatrix(2, 3, 4, [[1, 4, 2], [3, 3, 3]])
        path = tmp_path / "q.txt"
        write_matrix(path, mq)
        back = read_matrix(path)
        assert isinstance(back, QaryMatrix)
        assert back == mq

    def test_answers_round_trip(self, tmp_path):
        v = AnswerVector.from01("0110")
        path = tmp_path / "a.txt"
        write_answers(path, v)
        assert read_answers(path) == v
        assert read_answers(path, expected_m=4) == v

    def test_answers_length_check(self, tmp_path):
        path = tmp_path / "a.txt"
        write_answers(path, AnswerVector.from01("01"))
        with pytest.raises(MatrixParseError):
            read_answers(path, expected_m=3)

    def test_failed_writes_keep_the_old_file(self, tmp_path):
        class Unwritable(AnswerVector):
            def to01(self):
                raise RuntimeError("fails while writing")

        path = tmp_path / "m.txt"
        write_matrix(path, BitMatrix.from_strings(["10", "01"]))
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_matrix(path, "not a matrix")
        with pytest.raises(RuntimeError):
            write_answers(path, Unwritable(2, 1))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]

    def test_writes_replace_the_old_file(self, tmp_path):
        path = tmp_path / "a.txt"
        write_answers(path, AnswerVector.from01("0110"))
        write_answers(path, AnswerVector.from01("1"))
        assert path.read_text() == "1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    @pytest.mark.parametrize("content,line", PARSE_ERRORS)
    def test_parse_errors_carry_line_numbers(self, tmp_path, content, line):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(MatrixParseError) as err:
            read_matrix(path)
        assert err.value.line == line
        assert str(path) in str(err.value)

    def test_missing_row(self, tmp_path):
        # with no newline after row 1, no line is left for row 2
        path = tmp_path / "bad.txt"
        path.write_bytes(b"2 3\n101")
        with pytest.raises(MatrixParseError, match="missing row") as err:
            read_matrix(path)
        assert err.value.line == 3


def _read_record(read, path):
    """What a reader makes of a file, as JSON: its matrix or answers, or
    its error's line and message without the path."""
    try:
        got = read(path)
    except MatrixParseError as exc:
        return [exc.line, str(exc).removeprefix(f"{exc.path}:{exc.line}: ")]
    if isinstance(got, BitMatrix):
        return {"m": got.m, "n": got.n,
                "rows": [got.row_string(t) for t in range(got.m)]}
    if isinstance(got, QaryMatrix):
        return {"m": got.m, "n": got.n, "q": got.q,
                "entries": got.entries.tolist()}
    return got.to01()


def _read_by_lines(path):
    return _matrix_from_lines(path, path.read_bytes())


@st.composite
def qary_files(draw, max_q=300, max_zeros=3):
    """The bytes of a q-ary file read_matrix accepts, its matrix, and
    whether the whole-array reader must take it.  Entries lie in
    [1, max_q], each led by up to max_zeros zeros."""
    q = draw(st.integers(2, max_q))
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(1, q), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"{m} {n} {q}"]
    for row in rows:
        tokens = [draw(st.text("0", max_size=max_zeros)) + str(v) for v in row]
        gaps = draw(st.lists(st.text(" ", min_size=1, max_size=3),
                             min_size=n + 1, max_size=n + 1))
        gaps[0], gaps[-1] = gaps[0][1:], gaps[-1][1:]  # margins may be empty
        lines.append("".join(g + t for g, t in zip(gaps, tokens)) + gaps[-1])
    lines += draw(st.lists(st.text("0123456789 x", max_size=6), max_size=2))
    data = (eol.join(lines) + draw(st.sampled_from([eol, ""]))).encode()
    return (data, QaryMatrix(m, n, q, np.reshape(rows, (m, n))),
            not data.translate(None, b"0123456789 \n"))


@st.composite
def binary_files(draw):
    """The bytes of a binary file read_matrix accepts, and its matrix."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 9))
    rows = draw(st.lists(st.text("01", min_size=n, max_size=n),
                         min_size=m, max_size=m))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    zeros = draw(st.lists(st.text("0", max_size=2), min_size=2, max_size=2))
    gaps = draw(st.lists(st.text(" ", max_size=2), min_size=3, max_size=3))
    header = f"{gaps[0]}{zeros[0]}{m} {gaps[1]}{zeros[1]}{n}{gaps[2]}"
    junk = draw(st.lists(st.text("01 x\r\t", max_size=6), max_size=2))
    last = draw(st.sampled_from([eol, ""]))
    data = (eol.join([header, *rows, *junk]) + last).encode()
    return data, BitMatrix(m, n, [int(r, 2) for r in rows])


# files for the whole-array reader's edges; each parses or fails the
# same way as line by line
QARY_EDGES = [
    "2 3 7\n1 2 3\n4 5 6\n",
    "2 3 7\n1 2 3\n4 5 6",                  # no final newline
    "0 3 7\n",
    "0 3 7",
    "0 3 7\n\xff\n",                         # non-ASCII after row m
    "1 3 7\n1 2 3\n\xff\n",
    "1 3 7\n1 2 3\nx\n",                     # junk after row m
    "1 2 5\n" + "0" * 17 + "5 1\n",          # 18 digits
    "1 2 5\n" + "0" * 18 + "5 1\n",          # 19 digits
    "1 2 5\n" + "0" * 30 + "5 1\n",          # 31 digits, in range
    "1 2 5\n" + "9" * 19 + " 1\n",           # beyond int64
    "1 2 5\n" + str(2**64 + 3) + " 1\n",     # 3 modulo 2**64
    "1 2 5\n" + "9" * 18 + " 1\n",
    "2 3 7\n1 2 3 4\n5 6 7\n",                # too many entries
    "2 3 7\n1 2\n3 4 5 6\n",                  # right total, wrong rows
    "2 3 7\n1 2 3\n",                        # missing row
    "2 3 7\n1 2 3\n\n",                      # empty row
    "2 2 7\n1 2 3 4\n\n",                    # blank row m, right total
    "2 2 7\n1 2 3 4\n   \n5 6\n",             # all-space row m
    "1 2 7\n   \n",
    "2 3 7\n1 2 3\n4 5 8\n",                  # out of range
    "1 3 7\n1\r2 3\n",                       # lone CR ends a line
    "1 3 7\n1\t2 3\n",
    "1 3 7\n1 +2 3\n",
    "1 3 7\n1 2_0 3\n",
    "1 3 7 \n 1 2 3 \n",
    " 1 3 7\n1 2 3\n",
    "1 3 1\n1 1 1\n",                        # q below 2
    "1 0 7\n\n",                              # n below 1
    "1 3\n101\n",                             # binary
    "1 3 7 9\n1 2 3\n",
    "\n1 2 3\n",
    "",
    "1" * 5000 + " 3 7\n1 2 3\n",             # too long for int()
    "1000000000000 3 7\n1 2 3\n",             # promises more rows
    "1 1000000000000 7\n1 2 3\n",
]


# binary files at the edges of what the reader accepts
BINARY_EDGES = [
    "2 3\n101\n010\n",
    "2 3\n101\n010",                         # no final newline
    "2 3\r\n101\r\n010\r\n",
    "0 3\n",
    "0 3",
    "0 3\n\xff\n",                            # non-ASCII after row m
    "1 3\n101\n\xff\n",
    "1 3\n101\n\xff",
    "1 3\n101\nx\r\t\n",                      # junk after row m
    "1 3\n101\n1\n",
    "2\r3\n101\n010\n",                       # lone CR in the header
    "2 3\r101\n010\n",
    "2 3\n1\r1\n010\n",                       # lone CR in a row
    "2 3\n101\r010\n",
    "2\t3\n101\n010\n",
    "2\x0b3\n101\n010\n",
    "2\x1c3\n101\n010\n",
    "+2 3\n101\n010\n",
    "2_0 3\n" + "101\n" * 20,
    "2 -3\n101\n010\n",
    "1 3\n1011\n",                           # long row
    "2 3\n1010\n101\n",
    "2 3\n10\n1010\n",                       # short row, right total
    "2 3\n1\n01010\n",                      # m LFs, one inside a row
    "2 3\n1\n1\n010\n",                      # an LF inside a row, right total
    "2 3\n1\x001\n010\n",                    # NUL inside a row
    "2 3\n101\n0\x800\n",                    # bytes >= 0x80 inside a row
    "2 3\n101\n0\xff0\n",
    "1 3\n10\n",                             # short row
    "1 3\n121\n",
    "1 3\n1 1\n",
    "1 3\n101",                              # row m without its newline
    "1 3\n\n101\n",
    "\n2 3\n101\n010\n",
    "2 3 \n101\n010\n",
    "1000000000000 3\n101\n",                # promises more rows
    "1 0\n\n",                               # n below 1
    "-1 3\n",
    "1 2 3 4\n101\n",
    "1" * 5000 + " 3\n101\n",                # too long for int()
    "",
]

# answer files and the expected_m read_answers is given
ANSWER_FILES = [
    (b"0110\r\n", None),
    (b"0110\r1\r", 4),          # lone CR line ends
    (b"0110\n\xff\n", None),    # non-ASCII on line 2
    (b"", 0),
    (b"", None),
    (b"011\n", 4),               # wrong length
]


def reader_outputs() -> dict:
    """The reader outcomes tests/output_pins.json pins: read_matrix on
    every malformed and edge file above, read_answers on ANSWER_FILES."""
    out = {}
    contents = [c for c, _ in PARSE_ERRORS] + BINARY_EDGES + QARY_EDGES
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "m.txt")
        for content in contents:
            path.write_bytes(content.encode("latin-1"))
            out[f"read_matrix.{content!r}"] = _read_record(read_matrix, path)
        for data, expected_m in ANSWER_FILES:
            path.write_bytes(data)
            out[f"read_answers.{data!r}.{expected_m}"] = _read_record(
                lambda p: read_answers(p, expected_m), path)
    return out


@pytest.fixture(scope="module")
def pins():
    return json.loads(Path(__file__).with_name("output_pins.json").read_text())


@pytest.fixture(scope="class")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "m.txt"


def _mutated(raw: bytes, data) -> bytes:
    """raw with one byte replaced, inserted or deleted, drawn from data."""
    raw = bytearray(raw)
    at = data.draw(st.integers(0, len(raw)))
    byte = data.draw(st.sampled_from(b"0123456789 \n\r\t+_x\x80")
                     | st.integers(0, 255))
    op = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    if op == "insert":
        raw.insert(at, byte)
    elif at < len(raw):
        if op == "replace":
            raw[at] = byte
        else:
            del raw[at]
    return bytes(raw)


class TestQaryReaderOracle:
    """The whole-array q-ary reader against the line-by-line one."""

    @given(qary_files())
    @settings(max_examples=300)
    def test_valid_files(self, scratch_file, case):
        data, want, takes = case
        scratch_file.write_bytes(data)
        assert read_matrix(scratch_file) == want == _read_by_lines(scratch_file)
        assert _qary_from_bytes(data) == (want if takes else None)

    @pytest.mark.parametrize("content",
                             [c for c, _ in PARSE_ERRORS] + QARY_EDGES)
    def test_edge_files(self, tmp_path, content):
        path = tmp_path / "m.txt"
        path.write_bytes(content.encode("latin-1"))
        assert (_read_record(read_matrix, path)
                == _read_record(_read_by_lines, path))

    @given(qary_files(), st.data())
    @settings(max_examples=500)
    def test_one_byte_mutations(self, scratch_file, case, data):
        scratch_file.write_bytes(_mutated(case[0], data))
        assert (_read_record(read_matrix, scratch_file)
                == _read_record(_read_by_lines, scratch_file))


def _expanded(path):
    """read_matrix, with a q-ary matrix expanded: the oracle of the
    binary view that check and decode read."""
    got = read_matrix(path)
    return expand_qary(got) if isinstance(got, QaryMatrix) else got


# q-ary files of single digits that the expansion from bytes takes
SINGLE_DIGIT_FILES = [
    "3 4 5\n1 2 3 4\n5 4 3 2\n1 1 1 1\n",
    "2 3 5\n1  2   3\n4 5    1\n",           # irregular spacing
    "2 3 5\n  1 2 3  \n 4 5 1 \n",           # leading and trailing spaces
    "2 4 5\n 1 2 3 4\n5 4 3 2\n",            # digits at odd offsets
    "2 3 5\n1 2 3\n4 5 1",                   # no final newline
    "1 3 5\n1 2 3\n99 x\n\n",                # lines after row m
    "1 3 5\n1 2 3\n12\t\r\x01",
    "0 4 5\n",
    "0 4 5",
    "0 4 5\n3 3\n",
    "3 1 2\n1\n2\n1\n",                      # n = 1
    "2 4 2\n1 2 2 1\n2 1 1 2\n",             # q = 2
    "2 9 9\n1 2 3 4 5 6 7 8 9\n9 8 7 6 5 4 3 2 1\n",
    " 01 3 05 \n1 2 3\n",
]

# files read_matrix reads that the expansion from bytes leaves to it
NOT_SINGLE_DIGIT_FILES = [
    "1 3 5\n01 2 3\n",                       # an entry of two digits
    "1 3 5\r\n1 2 3\r\n",
    "0 4 5\r\n",
    "1\t3 5\n1 2 3\n",
    "1 3 5\n1 2 3\r\n",
    "1 3 5\n1\t2 3\n",
    "1 3 5\n1 2\x0b3\n",
    "1 3 12\n1 2 3\n",                       # q > 9
    "1 3 10\n1 2 3\n",
    "1 3\n101\n",                            # binary
]

# single-digit files that read_matrix refuses
SINGLE_DIGIT_ERRORS = [
    "1 3 5\n12 3\n",                          # two digits touch
    "1 3 5\n1 2 3 4\n",
    "1 3 5\n1 2\n",
    "2 3 5\n1 2\n3 4 5 1\n",                 # right total, wrong rows
    "2 3 5\n1 2 3\n",                         # missing row
    "1 3 5\n1 2 6\n",                         # above q
    "1 3 5\n1 0 3\n",
    "1 3 5\n1 2 3\n\xff\n",                   # not ASCII after row m
]


class TestSingleDigitExpansion:
    """The expansion of a single-digit q-ary file from its bytes, and the
    CLI's binary view of every file, against expand_qary(read_matrix())."""

    @pytest.mark.parametrize("content", SINGLE_DIGIT_FILES)
    def test_takes_single_digit_files(self, tmp_path, content):
        path = tmp_path / "m.txt"
        path.write_bytes(content.encode())
        got = _single_digit_expansion(path)
        assert got is not None
        assert got == _expanded(path)

    @pytest.mark.parametrize("content",
                             NOT_SINGLE_DIGIT_FILES + SINGLE_DIGIT_ERRORS)
    def test_leaves_other_files_to_read_matrix(self, tmp_path, content):
        path = tmp_path / "m.txt"
        path.write_bytes(content.encode("latin-1"))
        assert _single_digit_expansion(path) is None

    def test_unreadable_path(self, tmp_path):
        assert _single_digit_expansion(tmp_path / "missing.txt") is None
        assert _single_digit_expansion(tmp_path) is None

    @given(qary_files(max_q=9, max_zeros=0))
    @settings(max_examples=300)
    def test_valid_files(self, scratch_file, case):
        data, want, _ = case
        scratch_file.write_bytes(data)
        # every entry is one digit, so a CR is the one byte of these files
        # that leaves a file to read_matrix
        assert _single_digit_expansion(scratch_file) == (
            None if b"\r" in data else expand_qary(want))

    @pytest.mark.parametrize("content",
                             [c for c, _ in PARSE_ERRORS] + QARY_EDGES
                             + SINGLE_DIGIT_ERRORS)
    def test_edge_files(self, tmp_path, content):
        path = tmp_path / "m.txt"
        path.write_bytes(content.encode("latin-1"))
        assert (_read_record(_binary_matrix, path)
                == _read_record(_expanded, path))

    @given(qary_files(max_q=9, max_zeros=0), st.data())
    @settings(max_examples=500)
    def test_one_byte_mutations(self, scratch_file, case, data):
        scratch_file.write_bytes(_mutated(case[0], data))
        assert (_read_record(_binary_matrix, scratch_file)
                == _read_record(_expanded, scratch_file))


class TestBinaryReaderOracle:
    """The binary reader against its pins, which were recorded while a
    well-formed binary file still had a whole-file reader of its own."""

    @given(binary_files())
    @settings(max_examples=300)
    def test_valid_files(self, scratch_file, case):
        data, want = case
        scratch_file.write_bytes(data)
        assert read_matrix(scratch_file) == want

    @pytest.mark.parametrize("content", BINARY_EDGES)
    def test_edge_files(self, tmp_path, pins, content):
        path = tmp_path / "m.txt"
        path.write_bytes(content.encode("latin-1"))
        assert (_read_record(read_matrix, path)
                == pins[f"read_matrix.{content!r}"])

    @given(binary_files(), st.data())
    @settings(max_examples=500)
    def test_one_byte_mutations(self, scratch_file, case, data):
        scratch_file.write_bytes(_mutated(case[0], data))
        try:
            matrix = read_matrix(scratch_file)
        except MatrixParseError:
            return
        assert isinstance(matrix, (BitMatrix, QaryMatrix))


@pytest.mark.parametrize("matrix", [
    designs.generate(designs.DesignSpec("rid", 300, 40, 0.3), 1),
    expand_qary(designs.gen_utdq(257, 6, 5, 2)),
    BitMatrix(0, 5, []),
    BitMatrix(3, 1, [1, 0, 1]),
    BitMatrix.from_strings(["1" * 64, "0" * 64]),
], ids=["rid", "utdq", "m=0", "n=1", "n=64"])
def test_written_binary_files_read_back(tmp_path, matrix):
    path = tmp_path / "m.txt"
    write_matrix(path, matrix)
    assert read_matrix(path) == matrix


# (q, n, rows): 7 columns and enough rows for every symbol; one column,
# where each row is one entry and a newline; no rows, the header alone
QARY_WRITER_CASES = (
    [pytest.param(q, 7, None, id=f"{q}")
     for q in (2, 5, 9, 10, 11, 99, 100, 101, 289)]
    + [pytest.param(q, 1, None, id=f"{q}-n1") for q in (2, 5, 9, 10, 289)]
    + [pytest.param(q, 7, 0, id=f"{q}-m0") for q in (2, 5, 9, 10, 289)])


@pytest.mark.parametrize("q, n, rows", QARY_WRITER_CASES)
@pytest.mark.parametrize("block", [1, 50, matrices._WRITE_BLOCK])
def test_qary_writer_bytes(tmp_path, monkeypatch, q, n, rows, block):
    # every symbol appears; a block holds block // (n * digits) rows, at
    # least one, so the small blocks split the rows
    default_block = matrices._WRITE_BLOCK
    monkeypatch.setattr(matrices, "_WRITE_BLOCK", block)
    if rows is None:
        m = -(-q // n) + 3
        rng = np.random.default_rng(q)
        entries = rng.permutation(np.concatenate(
            [np.arange(1, q + 1), rng.integers(1, q + 1, size=m * n - q)]))
    else:
        m = rows
        entries = np.ones(m * n, dtype=np.int64)
    entries = entries.reshape(m, n)
    path = tmp_path / "q.txt"
    write_matrix(path, QaryMatrix(m, n, q, entries))
    old = f"{m} {n} {q}\n" + "".join(" ".join(map(str, row)) + "\n"
                                     for row in entries.tolist())
    assert path.read_bytes() == old.encode()
    if m and block < default_block:
        per_block = max(1, block // (n * len(str(q))))
        blocks = list(matrices._qary_blocks(entries, q))
        assert len(blocks) == -(-m // per_block)


def test_qary_writer_wide_entries(tmp_path):
    # 19-digit entries: no table of q + 1 symbols could be built here
    q = 10**18
    entries = [[1, q, 99], [10**17, 5, 123456789]]
    path = tmp_path / "q.txt"
    write_matrix(path, QaryMatrix(2, 3, q, entries))
    old = f"2 3 {q}\n" + "".join(" ".join(map(str, row)) + "\n"
                                 for row in entries)
    assert path.read_bytes() == old.encode()
    assert read_matrix(path) == QaryMatrix(2, 3, q, entries)
