import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gtpool
import gtpool.cli
from gtpool.cli import DESIGN_CELL_BUDGET, main
from gtpool.errors import MatrixParseError
from gtpool.matrices import (
    AnswerVector,
    BitMatrix,
    expand_qary,
    or_columns,
    read_matrix,
    write_answers,
    write_matrix,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def small_matrix(tmp_path):
    m = BitMatrix.from_strings(["10110", "01011", "00101"])
    path = tmp_path / "m.txt"
    write_matrix(path, m)
    return str(path), m


class TestDesign:
    def test_writes_matrix_and_record(self, capsys, tmp_path):
        out = tmp_path / "design.txt"
        code, stdout, _ = run(capsys, "design", "--model", "rid",
                              "--n", "100", "--d", "2", "--delta", "0.2",
                              "--seed", "7", "--out", str(out))
        assert code == 0
        rec = json.loads(stdout)
        assert rec["model"] == "rid" and rec["feasible"] is True
        assert rec["seed"] == 7
        m = read_matrix(out)
        assert (m.m, m.n) == (rec["m"], 100)

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            code, _, _ = run(capsys, "design", "--model", "rrsd",
                             "--n", "60", "--d", "2", "--m", "30",
                             "--seed", "5", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_m_skips_sizing(self, capsys, tmp_path):
        code, stdout, _ = run(capsys, "design", "--model", "rid",
                              "--n", "50", "--d", "1", "--m", "20",
                              "--seed", "1", "--out",
                              str(tmp_path / "m.txt"))
        assert code == 0
        rec = json.loads(stdout)
        assert rec["m"] == 20 and rec["lambda"] is None

    def test_refuses_without_seed(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "design", "--model", "rid",
                              "--n", "50", "--d", "1", "--delta", "0.1",
                              "--out", str(tmp_path / "m.txt"))
        assert code == 2
        assert "--seed" in stderr

    def test_entropy_draws_and_echoes_seed(self, capsys, tmp_path):
        code, stdout, _ = run(capsys, "design", "--model", "rid",
                              "--n", "50", "--d", "1", "--m", "20",
                              "--entropy", "--out", str(tmp_path / "m.txt"))
        assert code == 0
        assert isinstance(json.loads(stdout)["seed"], int)

    def test_wrong_param_flag_for_model(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "design", "--model", "rid",
                              "--n", "50", "--d", "1", "--m", "20",
                              "--r", "10", "--seed", "1",
                              "--out", str(tmp_path / "m.txt"))
        assert code == 2
        assert "--r" in stderr

    def test_qary_out_only_for_utdq(self, capsys, tmp_path):
        qout = tmp_path / "qary.txt"
        code, stdout, stderr = run(capsys, "design", "--model", "rid",
                                   "--n", "50", "--d", "1", "--m", "20",
                                   "--seed", "1", "--out",
                                   str(tmp_path / "m.txt"),
                                   "--qary-out", str(qout))
        assert code == 2
        assert stdout == ""
        assert "--qary-out" in stderr
        assert not qout.exists()

    @pytest.mark.parametrize("alias", ["same", "dot"])
    def test_qary_out_and_out_name_one_file(self, capsys, tmp_path,
                                            monkeypatch, alias):
        # the q-ary file would be written, then replaced by the binary one
        def no_work(*args, **kwargs):
            raise AssertionError("sized or drew before the refusal")

        for target in ("upper_bound_m", "gen_utdq", "generate",
                       "_row_blocks", "_utdq_chunks"):
            monkeypatch.setattr(f"gtpool.designs.{target}", no_work)
        monkeypatch.chdir(tmp_path)
        qout = "m.txt" if alias == "same" else "./sub/../m.txt"
        (tmp_path / "sub").mkdir()
        code, stdout, stderr = run(capsys, "design", "--model", "utdq",
                                   "--n", "50", "--d", "2", "--delta", "0.1",
                                   "--seed", "1", "--out", "m.txt",
                                   "--qary-out", qout)
        assert (code, stdout) == (2, "")
        assert "same file" in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]

    def test_infeasible_sizing_exits_3(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "design", "--model", "rssd",
                              "--n", "100", "--d", "1", "--delta", "0.1",
                              "--seed", "1", "--out", str(tmp_path / "m.txt"))
        assert code == 3
        assert "singular" in stderr

    def test_qary_preimage_expands_to_output(self, capsys, tmp_path):
        out, qout = tmp_path / "bin.txt", tmp_path / "qary.txt"
        code, stdout, _ = run(capsys, "design", "--model", "utdq",
                              "--n", "40", "--d", "2", "--delta", "0.2",
                              "--seed", "9", "--out", str(out),
                              "--qary-out", str(qout))
        assert code == 0
        rec = json.loads(stdout)
        from gtpool.matrices import expand_qary
        assert expand_qary(read_matrix(qout)) == read_matrix(out)
        assert rec["m"] % rec["param"] == 0

    @pytest.mark.parametrize("model", ["rid", "rssd", "utdq"])
    def test_size_guard_before_any_draw(self, capsys, tmp_path, monkeypatch,
                                        model):
        # 10^12 columns: a draw or a file of that size could not finish
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a design beyond the budget")

        for target in ("generate", "gen_utdq", "_row_blocks",
                       "_utdq_chunks"):
            monkeypatch.setattr(f"gtpool.designs.{target}", no_draw)
        out, qout = tmp_path / "bin.txt", tmp_path / "qary.txt"
        qary = ["--qary-out", str(qout)] if model == "utdq" else []
        tracemalloc.start()
        try:
            code, stdout, stderr = run(
                capsys, "design", "--model", model, "--n", str(10**12),
                "--d", "3", "--m", "60", "--seed", "1", "--out", str(out),
                *qary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and stdout == ""
        assert "budget" in stderr and "Traceback" not in stderr
        assert peak < 1 << 20
        assert list(tmp_path.iterdir()) == []

    def test_size_guard_admits_the_budget(self, capsys, tmp_path,
                                          monkeypatch):
        # the rows are drawn as the file is written; none here, so the
        # admitted design writes its header alone
        drawn = []
        monkeypatch.setattr("gtpool.designs._row_blocks",
                            lambda spec, seed: drawn.append(spec) or iter(()))
        m = 64
        n = DESIGN_CELL_BUDGET // m
        argv = ["design", "--model", "rid", "--d", "3", "--m", str(m),
                "--seed", "1", "--out", str(tmp_path / "m.txt")]
        assert run(capsys, *argv, "--n", str(n))[0] == 0
        assert run(capsys, *argv, "--n", str(n + 1))[0] == 2
        assert [(spec.m, spec.n) for spec in drawn] == [(m, n)]

    def test_rssd_sized_at_a_million_defectives(self, capsys, tmp_path):
        # alpha* lies below the rssd grid here: the sizing succeeds, and
        # the size guard refuses the draw
        code, stdout, stderr = run(
            capsys, "design", "--model", "rssd", "--n", "2000000",
            "--d", "1000000", "--delta", "0.1", "--seed", "1",
            "--out", str(tmp_path / "m.txt"))
        assert code == 2 and stdout == ""
        assert "budget" in stderr and "Traceback" not in stderr
        assert list(tmp_path.iterdir()) == []

    UTDQ = ("design", "--model", "utdq", "--n", "40", "--d", "2",
            "--delta", "0.2", "--seed", "1")

    @pytest.mark.parametrize("broken", ["--out", "--qary-out"])
    @pytest.mark.parametrize("old", [None, "old\n"])
    def test_unwritable_target_writes_neither(self, capsys, tmp_path,
                                              monkeypatch, broken, old):
        # one target in a directory that does not exist; the other is
        # absent or holds old bytes, and must stay so; nothing is drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before opening the targets")

        for target in ("gen_utdq", "_utdq_chunks"):
            monkeypatch.setattr(f"gtpool.designs.{target}", no_draw)
        kept = tmp_path / "kept.txt"
        if old is not None:
            kept.write_text(old)
        other = "--qary-out" if broken == "--out" else "--out"
        code, stdout, _ = run(capsys, *self.UTDQ,
                              broken, str(tmp_path / "MISSING_DIR" / "x.txt"),
                              other, str(kept))
        assert code == 4 and stdout == ""
        assert list(tmp_path.iterdir()) == ([] if old is None else [kept])
        if old is not None:
            assert kept.read_text() == old

    @pytest.mark.parametrize("target", ["MISSING_DIR/x.txt", "x.txt"])
    def test_io_error_names_the_target(self, capsys, tmp_path, monkeypatch,
                                       target):
        # a missing directory fails the temp file's open; a directory
        # of the target's name fails the final replace
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.txt").mkdir()
        code, stdout, stderr = run(capsys, "design", "--model", "rid",
                                   "--n", "50", "--d", "2", "--delta", "0.2",
                                   "--seed", "1", "--out", target)
        assert code == 4 and stdout == ""
        assert f"'{target}'" in stderr and ".tmp" not in stderr
        assert list(tmp_path.iterdir()) == [tmp_path / "x.txt"]
        assert list((tmp_path / "x.txt").iterdir()) == []

    # both files are written a q-ary row at a time, the q-ary lines and
    # then the binary ones; write 0 (the q-ary pre-image's) or write 1
    # (the binary matrix's) fails at the second row, after the first
    # row has gone into both new files
    @pytest.mark.parametrize("failing", [0, 1])
    def test_failed_write_writes_neither(self, capsys, tmp_path,
                                         monkeypatch, failing):
        calls = []

        def flaky(index, real):
            def write(*args):
                calls.append(index)
                if index == failing and calls.count(index) == 2:
                    raise OSError("no space left")
                return real(*args)
            return write

        for index, name in enumerate(("_qary_blocks", "_binary_lines")):
            real = getattr(gtpool.matrices, name)
            monkeypatch.setattr(gtpool.matrices, name, flaky(index, real))
        monkeypatch.setattr("gtpool.designs._CHUNK_ENTRIES", 40)
        out, qout = tmp_path / "bin.txt", tmp_path / "q.txt"
        out.write_text("old\n")
        code, stdout, stderr = run(capsys, *self.UTDQ, "--out", str(out),
                                   "--qary-out", str(qout))
        assert code == 4 and stdout == "" and "no space left" in stderr
        assert calls == [0, 1, 0, 1][:failing + 3]
        assert out.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("qary", [False, True], ids=["rid", "utdq"])
    def test_failure_after_the_first_block_writes_neither(
            self, capsys, tmp_path, monkeypatch, qary):
        # the binary file is written into its new file as the rows are
        # drawn; an error after a block is written leaves both targets
        # as they were and no new file behind
        def one_block(blocks):
            yield next(iter(blocks))
            raise OSError("no space left")

        if qary:
            real = gtpool.matrices._indicator_rows
            monkeypatch.setattr("gtpool.matrices._indicator_rows",
                                lambda *args: one_block(real(*args)))
            argv = [*self.UTDQ, "--qary-out", str(tmp_path / "q.txt")]
        else:
            real = gtpool.designs._row_blocks
            monkeypatch.setattr("gtpool.designs._row_blocks",
                                lambda *args: one_block(real(*args)))
            argv = ["design", "--model", "rid", "--n", "40", "--d", "2",
                    "--m", "30", "--seed", "1"]
        monkeypatch.setattr("gtpool.designs._CHUNK_ENTRIES", 40)
        monkeypatch.setattr("gtpool.matrices._WRITE_BLOCK", 40)
        out = tmp_path / "bin.txt"
        out.write_text("old\n")
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        assert code == 4 and stdout == "" and "no space left" in stderr
        assert out.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [out]


# `design` command lines whose binary rows are drawn in several blocks,
# with block edges mid-matrix: n above _CHUNK_ENTRIES (a row a block), n
# that does not divide it, m = 0, the constant rows of rrsd r = 0 or n
# and rssd s = 0 or m, and utdq over q = 2 and q = 12, with and without
# the q-ary file; --seed is appended
STREAMED_DESIGNS = {
    "rid-sized": "--model rid --n 1000 --d 3 --delta 0.1",
    "rid-wide": "--model rid --n 40000 --d 3 --m 3",
    "rid-m0": "--model rid --n 33000 --d 2 --m 0",
    "rrsd": "--model rrsd --n 1000 --d 3 --m 70",
    "rrsd-r0": "--model rrsd --n 1000 --d 3 --m 70 --r 0",
    "rrsd-rn": "--model rrsd --n 1000 --d 3 --m 70 --r 1000",
    "rssd": "--model rssd --n 1000 --d 3 --m 70",
    "rssd-s0": "--model rssd --n 1000 --d 3 --m 70 --s 0",
    "rssd-sm": "--model rssd --n 1000 --d 3 --m 70 --s 70",
    "utdq-sized": "--model utdq --n 1000 --d 3 --delta 0.1",
    "utdq-q2": "--model utdq --n 300 --d 3 --q 2 --m 80",
    "utdq-q2-qary": "--model utdq --n 300 --d 3 --q 2 --m 80 --qary-out",
    "utdq-q12-qary": "--model utdq --n 300 --d 3 --q 12 --m 48 --qary-out",
}


class TestStreamedDesign:
    """`design` writes the binary file block by block from the drawn
    rows; its bytes are those of write_matrix(generate(...)), which
    formats the packed rows one at a time (BitMatrix.row_string)."""

    @pytest.mark.parametrize("chunk", [None, 7], ids=["default", "small"])
    @pytest.mark.parametrize("name", list(STREAMED_DESIGNS))
    def test_bytes_match_the_row_writer(self, capsys, tmp_path, monkeypatch,
                                        name, chunk):
        from gtpool import designs

        if chunk is not None:  # a row or a q-ary row a block
            monkeypatch.setattr(designs, "_CHUNK_ENTRIES", chunk)
            monkeypatch.setattr(gtpool.matrices, "_WRITE_BLOCK", chunk)
        argv = ["design", *STREAMED_DESIGNS[name].split(), "--seed", "17"]
        if argv[-3] == "--qary-out":
            argv[-2:-2] = [str(tmp_path / "q.txt")]
        code, stdout, _ = run(capsys, *argv, "--out",
                              str(tmp_path / "bin.txt"))
        assert code == 0
        rec = json.loads(stdout)
        spec = designs.spec_at(rec["model"], rec["n"], rec["d"], rec["m"],
                               rec["param"])
        write_matrix(tmp_path / "want.txt", designs.generate(spec, 17))
        assert ((tmp_path / "bin.txt").read_bytes()
                == (tmp_path / "want.txt").read_bytes())
        if "--qary-out" in argv:
            q = int(spec.param)
            write_matrix(tmp_path / "want-q.txt",
                         designs.gen_utdq(spec.n, spec.m // q, q, 17))
            assert ((tmp_path / "q.txt").read_bytes()
                    == (tmp_path / "want-q.txt").read_bytes())

    def test_rid_memory_is_one_block(self, capsys, tmp_path):
        # at n = 10^5 and m = 172 (the cli-pipeline design) the packed
        # rows alone take m * n / 8 = 2.1 MB, and the draw packed and
        # formatted row by row peaked at 3.11 MiB; written block by block
        # (a row of 10^5 doubles, its bits and its bytes) it peaks at
        # about 1.0 MiB; a small design first imports what a design loads
        argv = ["design", "--model", "rid", "--d", "3", "--m", "172",
                "--seed", "3", "--out", str(tmp_path / "bin.txt")]
        assert run(capsys, *argv, "--n", "100")[0] == 0
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, *argv, "--n", "100000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (tmp_path / "bin.txt").stat().st_size == 11 + 172 * 100001
        assert peak < 1.5 * 2 ** 20

    def test_qary_files_match_the_whole_matrix_writers(self, capsys,
                                                       tmp_path):
        # at n = 40000, above the 2^15 entries of a chunk, each chunk is
        # one q-ary row, whose lines and indicator rows are written
        # before the next row is drawn
        from gtpool import designs

        out, qout = tmp_path / "bin.txt", tmp_path / "q.txt"
        code, _, _ = run(capsys, "design", "--model", "utdq", "--n", "40000",
                         "--d", "3", "--q", "4", "--m", "48", "--seed", "17",
                         "--out", str(out), "--qary-out", str(qout))
        assert code == 0
        mq = designs.gen_utdq(40000, 12, 4, 17)
        write_matrix(tmp_path / "want-q.txt", mq)
        write_matrix(tmp_path / "want.txt", expand_qary(mq))
        assert qout.read_bytes() == (tmp_path / "want-q.txt").read_bytes()
        assert out.read_bytes() == (tmp_path / "want.txt").read_bytes()

    def test_utdq_qary_memory_is_one_chunk(self, capsys, tmp_path):
        # at n = 10^5, d = 3 and delta = 0.1 (q = 5, m = 100) the q-ary
        # draw alone takes 20 x 10^5 int64 entries, 15.3 MiB: drawn whole
        # before either file was written it peaked at 19.11 MiB; written
        # a q-ary row at a time it peaks at about 1.75 MiB; a small
        # design first imports what a design loads
        argv = ["design", "--model", "utdq", "--d", "3", "--delta", "0.1",
                "--seed", "3", "--out", str(tmp_path / "bin.txt"),
                "--qary-out", str(tmp_path / "q.txt")]
        assert run(capsys, *argv, "--n", "100")[0] == 0
        tracemalloc.start()
        try:
            code, stdout, _ = run(capsys, *argv, "--n", "100000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        rec = json.loads(stdout)
        assert (rec["m"], rec["param"]) == (100, 5)
        assert (tmp_path / "q.txt").stat().st_size == 12 + 20 * 200000
        assert peak < 4 * 2 ** 20


class TestCheck:
    def test_verdicts(self, capsys, small_matrix):
        path, _ = small_matrix
        code, stdout, _ = run(capsys, "check", "--matrix", path,
                              "--defectives", "1,3", "--separable")
        assert code == 0
        rec = json.loads(stdout)
        assert rec["disjunct"] is True
        assert rec["separable"] is False   # {3} answers the same as {1,3}
        assert rec["d"] == 2

    def test_without_separable_flag(self, capsys, small_matrix):
        path, _ = small_matrix
        code, stdout, _ = run(capsys, "check", "--matrix", path,
                              "--defectives", "2")
        assert code == 0
        assert json.loads(stdout)["separable"] is None

    def test_bad_item_list(self, capsys, small_matrix):
        path, _ = small_matrix
        code, _, _ = run(capsys, "check", "--matrix", path,
                         "--defectives", "1,zebra")
        assert code == 2

    @pytest.mark.parametrize("d", ["-1", "0", "1"])
    def test_separable_budget_below_set_size(self, capsys, small_matrix, d):
        path, _ = small_matrix
        code, stdout, stderr = run(capsys, "check", "--matrix", path,
                                   "--defectives", "1,3", "--separable",
                                   "--d", d)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: ")

    def test_separable_beyond_the_full_scan_budget(self, capsys, tmp_path):
        # a scan of all C(4000, <= 3) candidate sets exceeds the budget
        # (exit 2); a disjunct set leaves only its own 8 subsets
        path = str(tmp_path / "m.txt")
        code, _, _ = run(capsys, "design", "--model", "rid", "--n", "4000",
                         "--d", "3", "--delta", "0.1", "--seed", "1",
                         "--out", path)
        assert code == 0
        code, stdout, _ = run(capsys, "check", "--matrix", path,
                              "--defectives", "1,2,3", "--separable")
        assert code == 0
        rec = json.loads(stdout)
        assert (rec["disjunct"], rec["separable"], rec["d"]) == (True, True, 3)

    @pytest.mark.parametrize("command, flags", [
        ("check", ()), ("check", ("--separable",)), ("decode", ()),
    ])
    def test_repeated_item_rejected(self, capsys, small_matrix, command,
                                    flags):
        path, _ = small_matrix
        code, stdout, stderr = run(capsys, command, "--matrix", path,
                                   "--defectives", "1,3,1", *flags)
        assert code == 2 and stdout == ""
        assert "duplicate item" in stderr


class TestDecode:
    def test_with_simulated_defectives(self, capsys, small_matrix):
        path, _ = small_matrix
        code, stdout, _ = run(capsys, "decode", "--matrix", path,
                              "--defectives", "1,3")
        assert code == 0
        assert json.loads(stdout)["candidates"] == [1, 3]

    def test_with_answers_file(self, capsys, small_matrix, tmp_path):
        path, m = small_matrix
        answers = tmp_path / "a.txt"
        write_answers(answers, or_columns(m, [2]))
        code, stdout, _ = run(capsys, "decode", "--matrix", path,
                              "--answers", str(answers))
        assert code == 0
        assert 2 in json.loads(stdout)["candidates"]

    def test_answer_length_mismatch_exits_4(self, capsys, small_matrix,
                                            tmp_path):
        path, _ = small_matrix
        answers = tmp_path / "a.txt"
        write_answers(answers, AnswerVector.from01("10"))
        code, _, _ = run(capsys, "decode", "--matrix", path,
                         "--answers", str(answers))
        assert code == 4

    def test_needs_exactly_one_source(self, capsys, small_matrix, tmp_path):
        path, m = small_matrix
        answers = tmp_path / "a.txt"
        write_answers(answers, or_columns(m, [2]))
        code, _, _ = run(capsys, "decode", "--matrix", path)
        assert code == 2
        code, _, _ = run(capsys, "decode", "--matrix", path,
                         "--answers", str(answers), "--defectives", "2")
        assert code == 2

    def test_qary_input_is_expanded(self, capsys, tmp_path):
        qpath = tmp_path / "q.txt"
        qpath.write_text("2 3 3\n1 2 3\n2 2 1\n")
        code, stdout, _ = run(capsys, "decode", "--matrix", str(qpath),
                              "--defectives", "1")
        assert code == 0
        rec = json.loads(stdout)
        assert rec["m"] == 6   # q rows per q-ary test
        assert 1 in rec["candidates"]


@pytest.mark.parametrize("argv", [
    ("check", "--defectives", "1,zebra"),
    ("check", "--defectives", "1,3,1", "--separable"),
    ("check", "--defectives", "0,2"),
    ("decode", "--defectives", ""),
    ("decode", "--defectives", "2,2"),
    ("decode",),
    ("decode", "--defectives", "2", "--answers", "a.txt"),
])
def test_arguments_checked_before_the_matrix_is_read(capsys, monkeypatch,
                                                     argv):
    # a bad argument exits 2 even when the matrix file is bad too
    def unreadable(path):
        raise MatrixParseError(path, 1, "read before the arguments")

    monkeypatch.setattr("gtpool.cli.read_matrix", unreadable)
    code, stdout, stderr = run(capsys, argv[0], "--matrix", "m.txt",
                               *argv[1:])
    assert code == 2 and stdout == ""
    assert "read before the arguments" not in stderr


@pytest.mark.parametrize("argv, missing", [
    (("design", "--model", "rid", "--n", "50"), "--d, --out"),
    (("check", "--separable"), "--matrix, --defectives"),
    (("decode", "--defectives", "1"), "--matrix"),
    (("mc", "--model", "rid", "--n", "50", "--seed", "1"),
     "--d, --m, --trials"),
    (("sweep", "--d", "2", "--trials", "40"), "--model, --n-list, --target"),
], ids=["design", "check", "decode", "mc", "sweep"])
def test_missing_required_flags(capsys, monkeypatch, argv, missing):
    # every missing flag is named, before anything expensive starts
    def expensive(*args, **kwargs):
        raise AssertionError("started work with required flags missing")

    for target in ("gtpool.designs.upper_bound_m", "gtpool.designs.generate",
                   "gtpool.cli.read_matrix", "gtpool.sim.run_trials",
                   "gtpool.sim.run_sweep"):
        monkeypatch.setattr(target, expensive)
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: missing required flag(s): {missing}\n"


@pytest.mark.parametrize("header", ["0 1000000000000", "0 1000000000000 5"])
@pytest.mark.parametrize("argv", [
    ("check", "--defectives", "1,2"),
    ("check", "--defectives", "1,2", "--separable"),
    ("decode", "--defectives", "1,2"),
    ("decode", "--answers"),
])
def test_size_guard_before_any_mask(capsys, tmp_path, monkeypatch, header,
                                    argv):
    # 10^12 columns: a mask of n bits would be a 125 GB int
    def no_mask(*args, **kwargs):
        raise AssertionError("built n-bit masks beyond the budget")

    for name in ("is_disjunct", "is_separable", "or_columns",
                 "decode_eliminate", "expand_qary"):
        monkeypatch.setattr(f"gtpool.cli.{name}", no_mask)
    path = tmp_path / "m.txt"
    path.write_text(header + "\n")
    if argv[-1] == "--answers":
        answers = tmp_path / "a.txt"
        answers.write_text("")  # m = 0 answers
        argv += (str(answers),)
    tracemalloc.start()
    try:
        code, stdout, stderr = run(capsys, argv[0], "--matrix", str(path),
                                   *argv[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and stdout == ""
    assert "budget" in stderr and "Traceback" not in stderr
    assert peak < 1 << 20


@pytest.mark.parametrize("flags", [
    *[("--d", "2", "--delta", delta) for delta in ("0", "1", "7", "nan", "inf")],
    ("--d", "50"),
    ("--d", "100"),
], ids=["delta0", "delta1", "delta7", "nan", "inf", "d=n", "d>n"])
@pytest.mark.parametrize("command", ["design", "mc"])
def test_run_arguments_checked_without_sizing(capsys, tmp_path, command,
                                              flags):
    # design --m skips sizing and mc never sizes; both still need
    # d < n and delta in (0, 1)
    out = tmp_path / "m.txt"
    extra = ("--out", str(out)) if command == "design" else ("--trials", "5")
    code, stdout, stderr = run(capsys, command, "--model", "rid", "--n", "50",
                               "--m", "20", "--seed", "1", *extra, *flags)
    assert (code, stdout) == (2, "")
    want = ("delta=" if "--delta" in flags else "need 1 <= d < n")
    assert stderr.startswith("error: " + want)
    assert not out.exists()


@pytest.mark.parametrize("flags, want", [
    (("--model", "rid", "--n", "50", "--delta", "1e-308"), 0),
    (("--model", "rrsd", "--n", "50", "--delta", "5e-324"), 0),
    (("--model", "utdq", "--n", "50", "--delta", "1e-308"), 0),
    (("--model", "rssd", "--n", "50", "--delta", "5e-324"), 3),
    (("--model", "utdq", "--n", "1000000000", "--delta", "1e-300",
      "--exact-utdq-sizing"), 3),
], ids=["rid", "rrsd", "utdq", "rssd", "utdq-exact"])
def test_design_sized_where_the_quotients_overflow(capsys, tmp_path, flags,
                                                   want):
    # n / delta leaves the float range: a finite size or a refusal (n
    # stays within DESIGN_CELL_BUDGET, past which design refuses to size)
    code, stdout, stderr = run(capsys, "design", *flags, "--d", "2",
                               "--seed", "1", "--out", str(tmp_path / "m.txt"))
    assert code == want
    if want == 0:
        assert json.loads(stdout)["m"] > 0
    else:
        assert stdout == "" and stderr.startswith("infeasible sizing: ")


@pytest.mark.parametrize("n", [10**20, 10**309], ids=["n1e20", "n1e309"])
@pytest.mark.parametrize("model", ["rid", "rrsd", "rssd", "utdq"])
def test_size_guard_before_any_spec(capsys, tmp_path, monkeypatch, model, n):
    # refused before a spec is built, a trial drawn or a search begun
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a size beyond the budget")

    for target in ("sim.run_trials", "sim.find_min_m", "designs.spec_at"):
        monkeypatch.setattr(f"gtpool.{target}", no_work)
    for argv in (
        ("design", "--model", model, "--n", str(n), "--d", "2",
         "--delta", "0.1", "--seed", "1", "--out", str(tmp_path / "m.txt")),
        ("mc", "--model", model, "--n", str(n), "--d", "2", "--m", "8",
         "--trials", "1", "--seed", "1"),
        ("sweep", "--model", model, "--d", "2", "--n-list", f"100,{n}",
         "--target", "0.9", "--trials", "40", "--seed", "1"),
    ):
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (2, ""), argv
        assert stderr.startswith("error: ") and "budget" in stderr, argv
    assert list(tmp_path.iterdir()) == []


def test_search_reads_spec_at_and_optimal_param_at_call_time():
    # in a fresh process: a patch of designs made before sim is first
    # imported must end when it is undone, and one made after must reach
    # the search
    code = """
from gtpool import designs
names = ("spec_at", "optimal_param")
real = {name: getattr(designs, name) for name in names}
calls = []
def patch():
    for name in names:
        def spy(*args, fn=real[name], **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        setattr(designs, name, spy)
def search():
    calls.clear()
    sim.find_min_m("utdq", 50, 2, 0.5, 20, 1)
    return sorted(set(calls))
patch()
from gtpool import sim
for name in names:
    setattr(designs, name, real[name])
print(search())
patch()
print(search())
"""
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['optimal_param', 'spec_at']"]


def test_design_refuses_n_beyond_the_budget_before_sizing(capsys, tmp_path,
                                                          monkeypatch):
    # d = 10^340 does not convert to a float: sizing it would overflow
    def no_sizing(*args, **kwargs):
        raise AssertionError("sized an n beyond the budget")

    monkeypatch.setattr("gtpool.designs.upper_bound_m", no_sizing)
    code, stdout, stderr = run(
        capsys, "design", "--model", "rid", "--delta", "0.1",
        "--n", str(10**700), "--d", str(10**340), "--seed", "1",
        "--out", str(tmp_path / "m.txt"))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: a 1 x 1000") and "budget" in stderr
    assert list(tmp_path.iterdir()) == []


def test_design_refuses_sizing_beyond_the_float_range(capsys, tmp_path):
    # at q = 3 the transversal bound's m grows like 1.5^d
    code, stdout, stderr = run(
        capsys, "design", "--model", "utdq", "--q", "3", "--n", "100000",
        "--d", "10000", "--delta", "0.1", "--seed", "1",
        "--out", str(tmp_path / "m.txt"))
    assert (code, stdout) == (3, "")
    assert stderr == ("infeasible sizing: test count beyond float range "
                      "at this d\n")
    assert list(tmp_path.iterdir()) == []


class TestMc:
    ARGS = ("mc", "--model", "rid", "--n", "60", "--d", "2", "--m", "40",
            "--trials", "30", "--seed", "3")

    def test_json_record(self, capsys):
        code, stdout, _ = run(capsys, *self.ARGS)
        assert code == 0
        rec = json.loads(stdout)
        assert rec["trials"] == 30
        assert rec["master_seed"] == 3
        assert 0 <= rec["frequency"] <= 1

    def test_csv_round_trip(self, capsys):
        code, stdout, _ = run(capsys, *self.ARGS, "--format", "csv")
        assert code == 0
        header, row = stdout.splitlines()
        assert header.split(",")[:3] == ["model", "n", "m"]
        assert row.split(",")[0] == "rid"

    def test_jobs_invariant(self, capsys):
        _, solo, _ = run(capsys, *self.ARGS, "--jobs", "1")
        _, team, _ = run(capsys, *self.ARGS, "--jobs", "4")
        assert solo == team

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, stdout, stderr = run(capsys, *self.ARGS, "--jobs", jobs)
        assert code == 2
        assert stdout == ""
        assert "jobs" in stderr


class TestSweep:
    ARGS = ("sweep", "--model", "rid", "--d", "1", "--n-list", "30,90",
            "--target", "0.75", "--trials", "40", "--seed", "12")

    def test_json_payload(self, capsys):
        code, stdout, _ = run(capsys, *self.ARGS)
        assert code == 0
        rec = json.loads(stdout)
        assert [pt["n"] for pt in rec["points"]] == [30, 90]
        assert rec["slope"] == pytest.approx(rec["slope_per_d"] * 1)
        assert all(pt["probes"] for pt in rec["points"])

    def test_csv_rows(self, capsys):
        code, stdout, _ = run(capsys, *self.ARGS, "--format", "csv")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "n,m_star,target,trials_per_probe"
        assert len(lines) == 3

    def test_jobs_invariant(self, capsys):
        _, solo, _ = run(capsys, *self.ARGS, "--jobs", "1")
        _, team, _ = run(capsys, *self.ARGS, "--jobs", "3")
        assert solo == team

    @pytest.mark.parametrize("flags", [
        ("--n-list", "400,400", "--d", "2", "--target", "0.9",
         "--trials", "40"),                              # one distinct n
        ("--n-list", "400", "--d", "2", "--target", "0.9", "--trials", "40"),
        ("--n-list", "2,400", "--d", "2", "--target", "0.9",
         "--trials", "40"),                              # n <= d
        ("--n-list", "50,400", "--d", "0", "--target", "0.9",
         "--trials", "40"),
        ("--n-list", "50,400", "--d", "2", "--target", "0.9",
         "--trials", "0"),
        ("--n-list", "50,400", "--d", "2", "--target", "1.0",
         "--trials", "40"),
        ("--n-list", "50,400", "--d", "2", "--target", "-0.1",
         "--trials", "40"),
        ("--n-list", "50,400", "--d", "2", "--target", "0.9",
         "--trials", "40", "--jobs", "0"),
    ])
    def test_rejected_before_any_search(self, capsys, monkeypatch, flags):
        def no_search(*args, **kwargs):
            raise AssertionError("find_min_m ran before validation")

        monkeypatch.setattr("gtpool.sim.find_min_m", no_search)
        code, stdout, stderr = run(capsys, "sweep", "--model", "rid",
                                   "--seed", "3", *flags)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ")


def test_sweep_refuses_a_target_its_trials_cannot_reach(capsys,
                                                        monkeypatch):
    # 40 trials cap the Wilson lower bound at 0.912 < 0.99 - 0.03
    def no_probe(*args, **kwargs):
        raise AssertionError("probed a target no probe can pass")

    monkeypatch.setattr("gtpool.sim.run_trials", no_probe)
    code, stdout, stderr = run(capsys, "sweep", "--model", "utdq", "--d", "2",
                               "--n-list", "50,100", "--target", "0.99",
                               "--trials", "40", "--seed", "1")
    assert (code, stdout) == (3, "")
    assert stderr.startswith("infeasible: target 0.99 is out of reach with "
                             "40 trials per probe")


class TestTable:
    def test_csv_header_extended(self, capsys):
        code, stdout, _ = run(capsys, "table1", "--dmax", "3")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == ("d,rid,rrsd,rssd,rssd_alpha,utdq,utdq_q,"
                            "rssd_published,utdq_published,flags")
        assert len(lines) == 4   # d=2, d=3, asymptote
        assert lines[-1].startswith("inf,")

    def test_json_rows(self, capsys):
        code, stdout, _ = run(capsys, "table1", "--dmax", "3",
                              "--format", "json")
        assert code == 0
        rows = json.loads(stdout)["rows"]
        assert rows[0]["d"] == 2 and rows[0]["flags"] == []
        assert rows[0]["rssd_published"] == 1.95

    def test_dmax_validated(self, capsys):
        for dmax in ("0", "1"):
            code, stdout, _ = run(capsys, "table1", "--dmax", dmax)
            assert code == 2, dmax
            assert stdout == "", dmax


def _parser_exit(capsys, *argv):
    """Exit code, stdout and stderr of a command line the parser ends."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestParser:
    @pytest.mark.parametrize("command", list(gtpool.cli._COMMANDS))
    def test_the_named_command_is_the_only_one_built(self, command):
        _, commands = gtpool.cli._build_parser([command, "--help"])
        assert list(commands) == [command]

    def test_an_unnamed_command_line_builds_every_command(self):
        _, commands = gtpool.cli._build_parser(["--help"])
        assert list(commands) == list(gtpool.cli._COMMANDS)

    def test_usage_lists_every_command(self, capsys):
        code, stdout, stderr = _parser_exit(capsys, "check", "--frobnicate")
        assert (code, stdout) == (2, "")
        assert stderr.startswith(
            "usage: gtpool [-h] {design,check,decode,mc,sweep,table1} ...\n")
        assert stderr.endswith("unrecognized arguments: --frobnicate\n")

    def test_leading_double_dash_is_an_invalid_choice(self, capsys):
        # argparse refuses "--" as the command, so the table1 after it
        # reaches no subparser: the error is that of an unknown command
        got = _parser_exit(capsys, "--", "table1", "--dmax", "2")
        code, stdout, stderr = _parser_exit(capsys, "frobnicate")
        assert got == (code, stdout, stderr.replace("frobnicate", "--"))
        assert code == 2 and "invalid choice: '--'" in got[2]


class TestConfigAndErrors:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = rid\nn = 50\nd = 1\nm = 25\nseed = 4\n")
        out = tmp_path / "m.txt"
        code, stdout, _ = run(capsys, "design", "--config", str(cfg),
                              "--m", "30", "--out", str(out))
        assert code == 0
        rec = json.loads(stdout)
        assert rec["m"] == 30          # flag beats config
        assert rec["seed"] == 4        # config fills the gap

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("modle = rid\n")
        code, _, stderr = run(capsys, "table1", "--config", str(cfg))
        assert code == 2
        assert "modle" in stderr

    def test_config_value_of_wrong_type_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = rid\nn = abc\nd = 1\nm = 25\nseed = 4\n")
        code, stdout, stderr = run(capsys, "design", "--config", str(cfg),
                                   "--out", str(tmp_path / "m.txt"))
        assert code == 2 and stdout == ""
        assert "config n:" in stderr and "abc" in stderr

    def test_config_value_outside_choices_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        code, stdout, stderr = run(capsys, "table1", "--dmax", "2",
                                   "--config", str(cfg))
        assert code == 2 and stdout == ""
        assert "format" in stderr and "xml" in stderr

    def test_config_values_typed_like_flags(self, capsys, small_matrix,
                                            tmp_path):
        path, _ = small_matrix
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"matrix = {path}\ndefectives = 1,3\nseparable = yes\n")
        code, stdout, _ = run(capsys, "check", "--config", str(cfg))
        assert code == 0
        assert json.loads(stdout)["separable"] is False  # as in test_verdicts

    def test_config_boolean_must_be_a_boolean_word(self, capsys,
                                                   small_matrix, tmp_path):
        # a misspelled word must not read as "unset" and skip the check
        path, _ = small_matrix
        cfg = tmp_path / "run.cfg"
        for word, separable in [("ON", False), ("Off", None), ("0", None)]:
            cfg.write_text(f"matrix = {path}\ndefectives = 1,3\n"
                           f"separable = {word}\n")
            code, stdout, _ = run(capsys, "check", "--config", str(cfg))
            assert code == 0, word
            assert json.loads(stdout)["separable"] is separable, word
        for word in ("ture", "", "2", "y"):
            cfg.write_text(f"matrix = {path}\ndefectives = 1,3\n"
                           f"separable = {word}\n")
            code, stdout, stderr = run(capsys, "check", "--config", str(cfg))
            assert code == 2 and stdout == "", word
            assert "config separable:" in stderr and repr(word) in stderr

    def test_unreadable_config_exits_4(self, capsys, tmp_path):
        code, stdout, stderr = run(capsys, "table1", "--config",
                                   str(tmp_path))
        assert (code, stdout) == (4, "")
        assert stderr.startswith(f"error: {tmp_path}:0: cannot read config: ")

    def test_config_line_without_equals_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\ndmax 3\n")
        code, stdout, stderr = run(capsys, "table1", "--config", str(cfg))
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {cfg}:2: config lines are key=value\n"

    def test_design_auto_sizing_needs_delta(self, capsys, tmp_path):
        code, stdout, stderr = run(capsys, "design", "--model", "rid",
                                   "--n", "50", "--d", "2", "--seed", "1",
                                   "--out", str(tmp_path / "m.txt"))
        assert (code, stdout) == (2, "")
        assert stderr == "error: auto-sizing needs --delta (or pass --m)\n"

    @pytest.mark.parametrize("header, answers, message", [
        ("3 5", "", "empty answer line"),
        ("3 5", "1x0\n", "characters must be 0 or 1"),
        ("0 5", "", None),
    ])
    def test_answer_file_edges(self, capsys, tmp_path, header, answers,
                               message):
        matrix, answer_file = tmp_path / "m.txt", tmp_path / "a.txt"
        matrix.write_text(header + "\n" + "10110\n" * int(header[0]))
        answer_file.write_text(answers)
        code, stdout, stderr = run(capsys, "decode", "--matrix", str(matrix),
                                   "--answers", str(answer_file))
        if message is None:  # no tests: every item stays a candidate
            assert code == 0
            assert json.loads(stdout)["candidates"] == [1, 2, 3, 4, 5]
        else:
            assert (code, stdout) == (4, "")
            assert stderr == f"error: {answer_file}:1: {message}\n"

    def test_missing_matrix_file_exits_4(self, capsys, tmp_path):
        code, _, _ = run(capsys, "decode", "--matrix",
                         str(tmp_path / "nope.txt"), "--defectives", "1")
        assert code == 4

    def test_malformed_matrix_exits_4(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 3\n101\n1x1\n")
        code, _, stderr = run(capsys, "decode", "--matrix", str(bad),
                              "--defectives", "1")
        assert code == 4
        assert ":3:" in stderr

    @pytest.mark.parametrize("case", ["qary", "binary", "answers", "config"])
    def test_non_ascii_byte_exits_4(self, capsys, small_matrix, tmp_path,
                                    case):
        # the bad byte sits on line 2 of a q-ary matrix, line 3 of a
        # binary one, line 1 of an answer file and line 2 of a config
        path, _ = small_matrix
        bad = tmp_path / "bad.txt"
        data, line, argv = {
            "qary": (b"1 2 3\n\xd9\xa3 1\n", 2,
                     ["check", "--matrix", str(bad), "--defectives", "1"]),
            "binary": (b"2 3\n101\n1\xff1\n", 3,
                       ["decode", "--matrix", str(bad), "--defectives", "1"]),
            "answers": (b"\xff01\n", 1,
                        ["decode", "--matrix", path, "--answers", str(bad)]),
            "config": (b"dmax = 2\n\xff\n", 2,
                       ["table1", "--config", str(bad)]),
        }[case]
        bad.write_bytes(data)
        code, stdout, stderr = run(capsys, *argv)
        assert code == 4 and stdout == ""
        assert f"{bad}:{line}:" in stderr
        assert "Traceback" not in stderr


def _python(code, *argv):
    """A fresh interpreter running code, with this checkout's gtpool."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def _modules_after_import(prefixes):
    """The modules named in prefixes, or inside them, that a fresh
    `import gtpool.cli` loads."""
    code = ("import sys, gtpool.cli; "
            "print(sorted(m for m in sys.modules for p in "
            f"{prefixes!r} if m == p or m.startswith(p + '.')))")
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("prefixes", [
    ("scipy",),
    # run_trials imports the pool only when it runs with jobs > 1
    ("multiprocessing", "concurrent.futures.process"),
    # gtpool.matrices and gtpool.decoding, which the CLI imports, load
    # numpy only where a q-ary matrix or a dense view needs it
    ("numpy",),
], ids=["scipy", "process-pool", "numpy"])
def test_import_loads_none_of(prefixes):
    assert _modules_after_import(prefixes) == "[]"


# runs `python -m gtpool ARGV...` in a process where importing numpy fails
_NO_NUMPY = """
import runpy, sys
sys.modules["numpy"] = None
sys.argv = ["gtpool", *sys.argv[1:]]
runpy.run_module("gtpool", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, pin", [
    (["table1"], "cli.table1"),
    (["table1", "--dmax", "12", "--format", "json"], "cli.table1.dmax12.json"),
], ids=["csv", "json"])
def test_table1_runs_without_numpy(argv, pin):
    pins = json.loads((Path(__file__).with_name("output_pins.json"))
                      .read_text())
    proc = _python(_NO_NUMPY, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == pins[pin]


def test_help_runs_without_numpy():
    proc = _python(_NO_NUMPY, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: gtpool")


_BINARY_COMMANDS = [
    ["check", "--defectives", "3,17"],
    ["check", "--defectives", "3,17", "--separable"],
    ["check", "--defectives", "3,17", "--separable", "--d", "3"],
    ["decode", "--defectives", "3,17"],
    ["decode", "--answers", "answers.txt"],
]


@pytest.mark.parametrize("q, argv", [
    *((None, argv) for argv in _BINARY_COMMANDS),
    *((5, argv) for argv in _BINARY_COMMANDS if "--d" not in argv),
], ids=["check", "separable", "separable-d3", "decode", "decode-answers",
        "q5-check", "q5-separable", "q5-decode", "q5-decode-answers"])
def test_binary_commands_run_without_numpy(capsys, tmp_path, q, argv):
    # check and decode of a binary file, or of a q-ary one of single
    # digits (utdq's q = 5): big-int algebra from bytes
    from gtpool import designs

    path = tmp_path / "m.txt"
    if q is None:
        matrix = designs.generate(designs.DesignSpec("rid", 120, 40, 0.7), 5)
        write_matrix(path, matrix)
    else:
        qary = designs.gen_utdq(120, 8, q, 5)
        matrix = expand_qary(qary)
        write_matrix(path, qary)
    write_answers(tmp_path / "answers.txt", or_columns(matrix, [3, 17]))
    argv = [argv[0], "--matrix", str(path),
            *(str(tmp_path / arg) if arg.endswith(".txt") else arg
              for arg in argv[1:])]
    code, want, _ = run(capsys, *argv)
    assert code == 0
    proc = _python(_NO_NUMPY, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


def test_decode_reads_larger_alphabets_with_numpy(capsys, tmp_path,
                                                  monkeypatch):
    # q = 12 has entries of two digits: read_matrix parses the file, and
    # the candidates are those of its binary expansion
    from gtpool import designs

    qary = designs.gen_utdq(150, 10, 12, 3)
    write_matrix(tmp_path / "q.txt", qary)
    write_matrix(tmp_path / "b.txt", expand_qary(qary))
    reads = []

    def spy(path):
        reads.append(os.path.basename(path))
        return read_matrix(path)

    monkeypatch.setattr(gtpool.cli, "read_matrix", spy)
    records = []
    for name in ("q.txt", "b.txt"):
        code, stdout, _ = run(capsys, "decode", "--matrix",
                              str(tmp_path / name), "--defectives", "3,17,90")
        assert code == 0
        records.append(json.loads(stdout))
    assert reads == ["q.txt", "b.txt"]
    assert records[0]["candidates"] == records[1]["candidates"]
    assert 3 in records[0]["candidates"]
    assert (records[0]["m"], records[0]["n"]) == (120, 150)


def test_table1_config_error_without_numpy(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"dmax = 2\n\xff\n")
    proc = _python(_NO_NUMPY, "table1", "--config", str(bad))
    assert proc.returncode == 4 and proc.stdout == ""
    assert f"{bad}:2:" in proc.stderr
    assert "Traceback" not in proc.stderr


class TestPackageSurface:
    def test_exports_are_the_module_objects(self):
        assert len(gtpool.__all__) == 45
        assert gtpool.__all__ == sorted(gtpool.__all__)
        for module, names in gtpool._EXPORTS.items():
            home = importlib.import_module(f"gtpool.{module}")
            for name in names:
                assert getattr(gtpool, name) is getattr(home, name), name
        assert set(gtpool.__all__) <= set(dir(gtpool))

    def test_star_import(self):
        ns = {}
        exec("from gtpool import *", ns)
        assert set(ns) - {"__builtins__"} == set(gtpool.__all__)

    def test_submodule_after_bare_import(self):
        proc = _python("import gtpool; "
                       "print(gtpool.sim.run_trials.__module__)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "gtpool.sim\n"

    def test_unknown_attribute(self):
        for module in (gtpool, gtpool.cli):
            with pytest.raises(AttributeError, match="no_such_name"):
                module.no_such_name
