"""Output bytes pinned across changes to how a design is drawn.

``output_pins.json`` holds the records and the CLI stdout below as they
were before the per-trial kernel (``designs.trial_disjunct``) replaced
the full-matrix path in ``sim``.  Equality here means the kernel draws
the same numbers and reaches the same verdict on every pinned trial.

It also holds the stdout of ``gtpool table1`` (CSV at the default
``--dmax`` and JSON at ``--dmax 12``), recorded before the table came to
be rendered from one record per row, and its CSV at ``--dmax 64``, the
cap, recorded while ``rssd_alpha_star`` and ``utdq_q_star`` still walked
their grid and their alphabets one point at a time.

It also holds sha256 digests of ``generate`` matrices and of the files
``gtpool design`` writes, recorded before the generators and the trial
kernels came to share one stream reader per model.  The cases span
several row chunks, several rssd column blocks, m = 0 and the extreme
parameters, so they guard the stream layout that the kernels, the
generators and the oracle ``sim.reference_trial`` all read.

It also holds the stdout of ``gtpool check`` (with and without
``--separable``, ``--d`` at and above the set's size) and of ``gtpool
decode --defectives`` on seeded ``gtpool design`` files, a q-ary one
among them, recorded while ``is_separable`` still scanned every set of
size <= d among all n items.  The sets include disjunct and non-disjunct
ones, and disjunct sets that a proper subset impersonates.

It also holds the probe list of a ``utdq`` search, whose bisection runs
in steps of q, and the JSON of ``upper_bound_m``/``lower_bound_m``
records on all four models, infeasible ones among them, recorded while
those records were still written out key by key.  The sizing records
are pinned as JSON strings, so their key order is pinned too.

It also holds the exit code, stdout and stderr of the parser's own
output (``gtpool`` bare and with ``--help``, each command's ``--help``,
an unknown command, an unknown flag, a bad flag value and a ``--config``
key of another command) at COLUMNS=80, recorded while ``main`` still
added every command's arguments on each call.  argparse words its text
differently across Python versions, so the pins carry the version they
were recorded under.

It also holds what ``read_matrix`` makes of the edge and malformed
matrix files of ``test_matrices.py``, and ``read_answers`` of a few
answer files (CR LF and lone CR line ends, a non-ASCII byte, an empty
file, a wrong length): the matrix or the answers, or the error's line
and message.  They were recorded while a well-formed binary file still
had a reader of its own besides the line-by-line one.

Regenerate only for a change that is meant to alter output bytes, and
say so in CHANGES.md:

    PYTHONPATH=src python tests/test_output_pins.py > tests/output_pins.json
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from gtpool import cli
from gtpool.cli import main
from gtpool.designs import (
    DesignSpec,
    generate,
    lower_bound_m,
    optimal_param,
    upper_bound_m,
)
from gtpool.sim import find_min_m, run_trials
from test_matrices import reader_outputs

PIN_FILE = Path(__file__).with_name("output_pins.json")
SEED = 20261018

# (model, n, d, delta) sized by upper_bound_m, as in the mc benchmark
SIZED = [("rid", 2000, 3, 0.1), ("rrsd", 2000, 3, 0.1),
         ("rssd", 10 ** 4, 3, 0.1), ("utdq", 2000, 3, 0.1)]
CLI_RUNS = {
    "mc.rid": ["mc", "--model", "rid", "--n", "1000", "--d", "2",
               "--m", "40", "--trials", "40"],
    "mc.rid.n120": ["mc", "--model", "rid", "--n", "120", "--d", "3",
                     "--m", "45", "--trials", "60", "--format", "csv"],
    "mc.rrsd": ["mc", "--model", "rrsd", "--n", "500", "--d", "2",
                "--m", "30", "--trials", "40"],
    "mc.rssd": ["mc", "--model", "rssd", "--n", "500", "--d", "2",
                "--m", "30", "--trials", "40"],
    "mc.utdq": ["mc", "--model", "utdq", "--n", "500", "--d", "2",
                "--m", "32", "--trials", "40"],
    "sweep.rid": ["sweep", "--model", "rid", "--d", "2",
                  "--n-list", "100,1000", "--target", "0.9",
                  "--trials", "100"],
    "sweep.utdq.csv": ["sweep", "--model", "utdq", "--d", "2",
                       "--n-list", "50,400", "--target", "0.8",
                       "--trials", "60", "--format", "csv"],
}
# unseeded: the constants table as CSV at the default --dmax and at the cap,
# and as JSON
TABLE_RUNS = {
    "table1": ["table1"],
    "table1.dmax12.json": ["table1", "--dmax", "12", "--format", "json"],
    "table1.dmax64": ["table1", "--dmax", "64"],
}

# (model, n, m, param) drawn by generate: several row chunks at n=1000,
# m=130; ten rssd column blocks at m=601, n=60,000; m = 0; r in {0, n};
# s in {0, m}; rows shorter than a byte; rid and rrsd matrices of more
# than 4 * 10^6 entries, the size of the blocks the generators drew when
# the digests were recorded
GENERATED = [
    ("rid", 1000, 130, math.exp(-1.0 / 3)), ("rid", 7, 5, 0.5),
    ("rid", 1, 3, 0.5), ("rid", 60_000, 70, 0.6), ("rid", 50, 0, 0.5),
    ("rrsd", 1000, 130, 283), ("rrsd", 1000, 130, 0),
    ("rrsd", 1000, 130, 1000), ("rrsd", 13, 9, 4), ("rrsd", 50, 0, 10),
    ("rrsd", 70_000, 60, 17_000),
    ("rssd", 60_000, 601, 172), ("rssd", 1000, 130, 37),
    ("rssd", 1000, 130, 0), ("rssd", 1000, 130, 130), ("rssd", 9, 11, 3),
    ("rssd", 50, 0, 0),
    ("utdq", 1000, 130, 5), ("utdq", 1000, 130, 2), ("utdq", 11, 12, 3),
    ("utdq", 50, 0, 4),
]
# seeded designs written into one directory, then read by check and decode
MATRIX_DESIGNS = {
    "rid.txt": ["--model", "rid", "--n", "80", "--d", "2", "--delta", "0.2"],
    "rid.m10.txt": ["--model", "rid", "--n", "60", "--d", "2", "--m", "10"],
    "rssd.s1.txt": ["--model", "rssd", "--n", "30", "--d", "2", "--m", "24",
                    "--s", "1"],
    "utdq.txt": ["--model", "utdq", "--n", "50", "--d", "2", "--delta", "0.2",
                 "--qary-out", "utdq.qary.txt"],
}
# each command line is its own pin key; in these designs 6,71, 1,2 on
# rid.m10.txt, 1,2,3 and 8,15 are not disjunct, while 13, 3,13 and 2,16
# are disjunct but impersonated by a proper subset
MATRIX_RUNS = [
    "check --matrix rid.txt --defectives 1,2",
    "check --matrix rid.txt --defectives 1,2 --separable",
    "check --matrix rid.txt --defectives 1,2 --separable --d 3",
    "check --matrix rid.txt --defectives 6,71 --separable",
    "check --matrix rid.txt --defectives 6,71 --separable --d 3",
    "check --matrix rid.m10.txt --defectives 1,2 --separable --d 2",
    "check --matrix rid.m10.txt --defectives 13 --separable",
    "check --matrix rid.m10.txt --defectives 13 --separable --d 2",
    "check --matrix rid.m10.txt --defectives 3,13 --separable --d 3",
    "check --matrix rssd.s1.txt --defectives 2,16",
    "check --matrix rssd.s1.txt --defectives 2,16 --separable",
    "check --matrix rssd.s1.txt --defectives 1,2,3 --separable",
    "check --matrix rssd.s1.txt --defectives 1,5,10 --separable",
    "check --matrix rssd.s1.txt --defectives 1,5,10 --separable --d 4",
    "check --matrix utdq.txt --defectives 1,4",
    "check --matrix utdq.qary.txt --defectives 1,2 --separable --d 3",
    "check --matrix utdq.qary.txt --defectives 8,15 --separable",
    "decode --matrix rid.txt --defectives 1,2",
    "decode --matrix rid.txt --defectives 6,71",
    "decode --matrix rid.m10.txt --defectives 1,2",
    "decode --matrix rid.m10.txt --defectives 3,13",
    "decode --matrix rssd.s1.txt --defectives 1,2,3",
    "decode --matrix utdq.qary.txt --defectives 8,15",
    "decode --matrix utdq.txt --defectives 1,4",
]
# (bound, model, n, d, delta or None, keyword arguments) for the sizing
# records: the four models at one scale, each infeasible path (rssd's
# singular d = 1 display and its correction factor >= 1, utdq's exact
# display, rrsd's lower precondition, rssd's lower positive-test rate,
# utdq's lower correction overflow and its missing positive root) and
# the scales where the exact utdq and rrsd lower displays hold
SIZINGS = {
    **{f"upper.{model}": ("upper", model, 2000, 3, 0.1, {})
       for model in ("rid", "rrsd", "rssd", "utdq")},
    **{f"lower.{model}": ("lower", model, 2000, 3, None, {})
       for model in ("rid", "rrsd", "rssd", "utdq")},
    "upper.rssd.d1": ("upper", "rssd", 2000, 1, 0.1, {}),
    "upper.rssd.n40": ("upper", "rssd", 40, 2, 0.01, {}),
    "upper.utdq.q7": ("upper", "utdq", 2000, 3, 0.1, {"q": 7}),
    "upper.utdq.exact": ("upper", "utdq", 2000, 3, 0.1,
                         {"exact_utdq": True}),
    "upper.utdq.exact.n1e12": ("upper", "utdq", 10 ** 12, 1, 0.1,
                               {"exact_utdq": True}),
    "lower.rrsd.n1e12": ("lower", "rrsd", 10 ** 12, 2, None, {}),
    "lower.rssd.d1": ("lower", "rssd", 2000, 1, None, {}),
    "lower.utdq.q3": ("lower", "utdq", 10 ** 6, 1, None, {"q": 3}),
    "lower.utdq.overflow": ("lower", "utdq", 1000, 240, None, {"q": 20}),
    "lower.utdq.noroot": ("lower", "utdq", 1000, 200, None, {"q": 20}),
}
# calls whose exit code, stdout and stderr come from the parser, or from
# the config check; table1.cfg holds `dmax = 3`, a flag of table1 alone
PARSER_RUNS = [
    "",
    "--help",
    *(f"{command} --help"
      for command in ("design", "check", "decode", "mc", "sweep", "table1")),
    "frobnicate",
    "check --frobnicate",
    "check --d x",
    "check --config table1.cfg",
]
PARSER_PYTHON = "parser.python"
DESIGN_RUNS = {
    "rid": ["--model", "rid", "--n", "3000", "--d", "3", "--delta", "0.1"],
    "utdq": ["--model", "utdq", "--n", "3000", "--d", "3", "--delta", "0.1"],
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _matrix_digest(mat) -> str:
    width = (mat.n + 7) // 8
    head = f"{mat.m} {mat.n}\n".encode()
    return _digest(head + b"".join(w.to_bytes(width, "big")
                                   for w in mat.rows))


def _design_digests(flags) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out, qout = Path(tmp, "bin.txt"), Path(tmp, "qary.txt")
        argv = ["design", *flags, "--out", str(out)]
        if flags[1] == "utdq":
            argv += ["--qary-out", str(qout)]
        record = json.loads(_stdout(argv))
        del record["out"]
        digests = {"stdout": record, "out": _digest(out.read_bytes())}
        if qout.exists():
            digests["qary_out"] = _digest(qout.read_bytes())
    return digests


def _stdout(argv, seeded=True) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + (["--seed", str(SEED)] if seeded else []))
    assert code == 0
    return buf.getvalue()


def _outcome(argv) -> dict:
    """Exit code, stdout and stderr of main(argv) at COLUMNS=80."""
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, {"COLUMNS": "80"}),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def parser_outputs() -> dict:
    out = {PARSER_PYTHON: "%d.%d" % sys.version_info[:2]}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "table1.cfg")
        cfg.write_text("dmax = 3\n")
        for call in PARSER_RUNS:
            argv = [str(cfg) if arg == cfg.name else arg
                    for arg in call.split()]
            out[f"parser.gtpool {call}".rstrip()] = _outcome(argv)
    return out


def pinned_outputs() -> dict:
    out = {}
    for model, n, d, delta in SIZED:
        sizing = upper_bound_m(model, n, d, delta)
        param = (sizing.q if model == "utdq"
                 else optimal_param(model, n, d, m_hint=sizing.m))
        spec = DesignSpec(model, n, sizing.m, param)
        out[f"run_trials.{model}"] = run_trials(spec, d, 12, SEED).as_record()
        # at about two thirds of the sized m, where trials fail
        step = int(param) if model == "utdq" else 1
        m = sizing.m * 2 // 3 // step * step
        if model == "rssd":
            param = optimal_param(model, n, d, m_hint=m)
        out[f"run_trials.{model}.short_m"] = run_trials(
            DesignSpec(model, n, m, param), d, 12, SEED).as_record()
    short = DesignSpec("rid", 150, 40, math.exp(-1.0 / 3))
    out["run_trials.rid.n150"] = run_trials(short, 3, 50, SEED).as_record()
    # the mc benchmark's rid shape, at its sized m and two thirds of it:
    # rows long enough that the kernel's late good rows leave a few dozen
    # columns to read
    sized = upper_bound_m("rid", 10 ** 4, 3, 0.1).m
    for name, m in (("n1e4", sized), ("n1e4.short_m", sized * 2 // 3)):
        spec = DesignSpec("rid", 10 ** 4, m, math.exp(-1.0 / 3))
        out[f"run_trials.rid.{name}"] = run_trials(spec, 3, 40,
                                                   SEED).as_record()
    # the mc benchmark's rrsd shape, at its sized m and two thirds of it
    sized = upper_bound_m("rrsd", 10 ** 4, 3, 0.1).m
    for name, m in (("n1e4", sized), ("n1e4.short_m", sized * 2 // 3)):
        spec = DesignSpec("rrsd", 10 ** 4, m,
                          optimal_param("rrsd", 10 ** 4, 3, m_hint=m))
        out[f"run_trials.rrsd.{name}"] = run_trials(spec, 3, 40,
                                                    SEED).as_record()
    out["find_min_m.rid"] = find_min_m("rid", 1000, 2, 0.9, 100,
                                       SEED).probe_records()
    # q = 4 at d = 2: bracketing, then three bisection steps of q
    out["find_min_m.utdq"] = find_min_m("utdq", 400, 2, 0.8, 60,
                                        SEED).probe_records()
    for name, (bound, model, n, d, delta, kw) in SIZINGS.items():
        sizing = (upper_bound_m(model, n, d, delta, **kw) if bound == "upper"
                  else lower_bound_m(model, n, d, **kw))
        out[f"sizing.{name}"] = json.dumps(sizing.as_record())
    for name, argv in CLI_RUNS.items():
        out[f"cli.{name}"] = _stdout(argv)
    for name, argv in TABLE_RUNS.items():
        out[f"cli.{name}"] = _stdout(argv, seeded=False)
    for model, n, m, param in GENERATED:
        out[f"generate.{model}.n{n}.m{m}.{param:g}"] = _matrix_digest(
            generate(DesignSpec(model, n, m, param), SEED))
    for name, flags in DESIGN_RUNS.items():
        out[f"cli.design.{name}"] = _design_digests(flags)
    # relative matrix names, as the pinned stdout shows them (by hand:
    # contextlib.chdir needs Python 3.11)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, flags in MATRIX_DESIGNS.items():
                _stdout(["design", *flags, "--out", name])
            for command in MATRIX_RUNS:
                out[f"cli.{command}"] = _stdout(command.split(), seeded=False)
        finally:
            os.chdir(cwd)
    return {**out, **reader_outputs()}


def _pins(parser: bool) -> dict:
    pins = json.loads(PIN_FILE.read_text())
    return {key: value for key, value in pins.items()
            if key.startswith("parser.") == parser}


def test_outputs_match_the_pins():
    want = _pins(parser=False)
    got = json.loads(json.dumps(pinned_outputs()))
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_parser_output_matches_the_pins():
    want = _pins(parser=True)
    if want[PARSER_PYTHON] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"parser text pinned under Python {want[PARSER_PYTHON]}")
    got = parser_outputs()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_lazy_parser_matches_the_full_one(monkeypatch):
    # on any Python: the parser built for the one command named prints
    # what a parser with every command's arguments prints
    lazy = parser_outputs()
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda argv: build(list(cli._COMMANDS)))
    assert parser_outputs() == lazy


if __name__ == "__main__":
    print(json.dumps({**pinned_outputs(), **parser_outputs()}, indent=1,
                     sort_keys=True))
