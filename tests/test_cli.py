import json

import pytest

from gtpool.cli import main
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
        code, _, _ = run(capsys, "table1", "--dmax", "1")
        assert code == 2


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
