"""The benchmark's hooks into gtpool still resolve.

``perfbench/spans.py`` patches gtpool call sites by attribute name, and
``perfbench/worker.py`` clears the theory caches by name; renaming or
dropping one of them passes every other test but stops the benchmark
with an AttributeError.  Both files are loaded by path, as they are.
"""

import importlib.util
import sys
from pathlib import Path

import gtpool
import gtpool.cli

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
