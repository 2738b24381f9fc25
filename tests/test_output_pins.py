"""Output bytes pinned across changes to how a trial is computed.

``output_pins.json`` holds the records and the CLI stdout below as they
were before the per-trial kernel (``designs.trial_disjunct``) replaced
the full-matrix path in ``sim``.  Equality here means the kernel draws
the same numbers and reaches the same verdict on every pinned trial.

Regenerate only for a change that is meant to alter output bytes, and
say so in CHANGES.md:

    PYTHONPATH=src python tests/test_output_pins.py > tests/output_pins.json
"""

import contextlib
import io
import json
import math
from pathlib import Path

from gtpool.cli import main
from gtpool.designs import DesignSpec, optimal_param, upper_bound_m
from gtpool.sim import find_min_m, run_trials

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


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--seed", str(SEED)])
    assert code == 0
    return buf.getvalue()


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
    out["find_min_m.rid"] = find_min_m("rid", 1000, 2, 0.9, 100,
                                       SEED).probe_records()
    for name, argv in CLI_RUNS.items():
        out[f"cli.{name}"] = _stdout(argv)
    return out


def test_outputs_match_the_pins():
    want = json.loads(PIN_FILE.read_text())
    got = json.loads(json.dumps(pinned_outputs()))
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    print(json.dumps(pinned_outputs(), indent=1, sort_keys=True))
