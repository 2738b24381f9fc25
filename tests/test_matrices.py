import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpool.errors import DimensionError, MatrixParseError, ParameterError
from gtpool.matrices import (
    AnswerVector,
    BitMatrix,
    DefectiveSet,
    QaryMatrix,
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

    def test_column_words_transpose(self):
        m = BitMatrix.from_strings(["10", "11", "01"])
        cols = m.column_words()
        # column word bit (m-1-t) is row t
        assert cols[0] == 0b110
        assert cols[1] == 0b011

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

    def test_budget_enforced(self):
        with pytest.raises(ParameterError):
            DefectiveSet([1, 2, 3], d_bound=2)

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


class TestQary:
    def test_entries_validated(self):
        with pytest.raises(DimensionError):
            QaryMatrix(1, 2, 3, [[0, 1]])
        with pytest.raises(DimensionError):
            QaryMatrix(1, 2, 3, [[1, 4]])

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

    @pytest.mark.parametrize("content,line", [
        ("not a header\n", 1),
        ("2 3\n101\n10\n", 3),          # short row
        ("2 3\n101\n1x1\n", 3),         # bad character
        ("1 2 3\n1 5\n", 2),            # q-ary entry out of range
        ("2 3\n101\n", 3),              # missing row
    ])
    def test_parse_errors_carry_line_numbers(self, tmp_path, content, line):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(MatrixParseError) as err:
            read_matrix(path)
        assert err.value.line == line
        assert str(path) in str(err.value)
