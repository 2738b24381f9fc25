import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from gtpool.cli import DESIGN_CELL_BUDGET, main
from gtpool.errors import MatrixParseError
from gtpool.matrices import (
    AnswerVector,
    BitMatrix,
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

        monkeypatch.setattr("gtpool.designs.generate", no_draw)
        monkeypatch.setattr("gtpool.designs.gen_utdq", no_draw)
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
        drawn = []
        monkeypatch.setattr("gtpool.designs.generate",
                            lambda spec, seed: drawn.append(spec) or
                            BitMatrix(0, 1, []))
        m = 64
        n = DESIGN_CELL_BUDGET // m
        argv = ["design", "--model", "rid", "--d", "3", "--m", str(m),
                "--seed", "1", "--out", str(tmp_path / "m.txt")]
        assert run(capsys, *argv, "--n", str(n))[0] == 0
        assert run(capsys, *argv, "--n", str(n + 1))[0] == 2
        assert [(spec.m, spec.n) for spec in drawn] == [(m, n)]

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

        monkeypatch.setattr("gtpool.designs.gen_utdq", no_draw)
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

    # write 0 is the q-ary pre-image, write 1 the binary matrix
    @pytest.mark.parametrize("failing", [0, 1])
    def test_failed_write_writes_neither(self, capsys, tmp_path,
                                         monkeypatch, failing):
        calls = []

        def flaky_write(path, matrix):
            calls.append(path)
            if len(calls) == failing + 1:
                raise OSError("no space left")
            write_matrix(path, matrix)

        monkeypatch.setattr("gtpool.cli.write_matrix", flaky_write)
        out, qout = tmp_path / "bin.txt", tmp_path / "q.txt"
        out.write_text("old\n")
        code, stdout, _ = run(capsys, *self.UTDQ, "--out", str(out),
                              "--qary-out", str(qout))
        assert code == 4 and stdout == ""
        assert len(calls) == failing + 1
        assert out.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [out]


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


def _modules_after_import(prefixes):
    """The modules named in prefixes, or inside them, that a fresh
    `import gtpool.cli` loads."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, gtpool.cli; "
            "print(sorted(m for m in sys.modules for p in "
            f"{prefixes!r} if m == p or m.startswith(p + '.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    assert _modules_after_import(("scipy",)) == "[]"


def test_import_loads_no_process_pool():
    # run_trials imports the pool only when it runs with jobs > 1
    loaded = _modules_after_import(("multiprocessing",
                                    "concurrent.futures.process"))
    assert loaded == "[]"
