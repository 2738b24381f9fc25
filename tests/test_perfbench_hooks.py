"""The benchmark's hooks into gtpool still resolve.

``perfbench/spans.py`` patches gtpool call sites by attribute name, and
``perfbench/worker.py`` clears the theory caches by name; renaming or
dropping one of them passes every other test but stops the benchmark
with an AttributeError.  Both files are loaded by path, as they are.

``worker.py`` also reads ``sim``'s records: ``mc_call`` reads a
``run_trials`` report's ``as_record()``, ``disjunct_successes`` and
``trials``, and ``sweep_call``/``sweep_verify`` unpack ``run_sweep`` as
``(point, search)`` pairs and read ``n``, ``m_star`` and the probe keys.
Its set-up sizes the mc designs and the ``check --separable`` matrix
with ``upper_bound_m`` and reads ``m`` (and ``q`` for utdq).
"""

import importlib.util
import sys
from pathlib import Path

import gtpool
import gtpool.cli
from gtpool.designs import DesignSpec, upper_bound_m
from gtpool.sim import run_sweep, run_trials

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, monkeypatch):
    """Import perfbench/<name>.py under its own name, as run.py's
    workers do (worker.py imports spans by that name)."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_spans_and_cache_names_resolve(monkeypatch):
    spans = _load("spans", monkeypatch)
    worker = _load("worker", monkeypatch)
    for name in worker.THEORY_CACHES:
        assert callable(getattr(gtpool.theory, name).cache_clear), name
    write_matrix = gtpool.cli.write_matrix
    for harness in (True, False):
        with spans.installed(spans.Recorder(), gtpool, harness=harness):
            assert gtpool.cli.write_matrix is not write_matrix
    assert gtpool.cli.write_matrix is write_matrix


def test_trial_report_surface():
    rep = run_trials(DesignSpec("rid", 40, 12, 0.6), 2, 3, 5)
    record = rep.as_record()
    assert record["disjunct_successes"] == rep.disjunct_successes
    assert record["trials"] == rep.trials == 3


def test_sweep_surface():
    res = run_sweep("rid", 1, [20, 40], 0.5, 10, 5)
    assert [pt.n for pt, _ in res] == [20, 40]
    for pt, search in res:
        assert pt.m_star == search.m_star
        assert search.probe_records()
        for probe in search.probe_records():
            assert set(probe) == {"m", "successes", "trials", "wilson_low",
                                  "accepted"}


def test_sizing_surface(monkeypatch):
    _load("spans", monkeypatch)
    worker = _load("worker", monkeypatch)
    sizings = [upper_bound_m(model, worker.MC_N, worker.MC_D, worker.MC_DELTA)
               for model in worker.MODELS]
    sizings += [upper_bound_m("rid", n, worker.CLI_D, worker.CLI_DELTA)
                for n in worker.CLI_SEP_N.values()]
    for sizing in sizings:
        assert sizing.feasible is True, sizing
        assert type(sizing.m) is int and sizing.m > 0, sizing
    assert type(sizings[worker.MODELS.index("utdq")].q) is int
