"""Span recording around calls into gtpool, from outside the package.

The gtpool modules bind their collaborators with from-imports, so a call
is intercepted by replacing the attribute under the name its *caller*
looks it up by (``gtpool.sim.generate``, ``gtpool.cli.read_matrix``, ...),
not by patching the defining module alone.  Spans stay in memory; the
per-layer figures are derived from them after the traced pass.

Only calls made in this process are seen: work done inside worker
processes of a ``jobs > 1`` run leaves no spans.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    def next_op(self) -> None:
        """Start a new operation id (one benchmark call = one operation)."""
        self.op += 1

    def wrap(self, name, fn, info=None, skip_inside=None):
        """Return fn wrapped so each call records a span called ``name``.

        info(args, kwargs, result) adds fields to the span; skip_inside
        names a span inside which the call is passed through unrecorded
        (it is then part of that span's own time).
        """
        rec = self

        def wrapper(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else None
            if (skip_inside is not None and parent is not None
                    and rec.spans[parent].name == skip_inside):
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            span = Span(name, 0.0, 0.0, parent, rec.op)
            rec.spans.append(span)
            rec._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if info is not None:
                span.info.update(info(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- derived figures ----------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the part of the interval its children cover.

        Children of one span never overlap (one thread), so the covered
        part is the sum of their durations clipped to the parent.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                par = self.spans[span.parent]
                lo, hi = max(span.start, par.start), min(span.end, par.end)
                covered[span.parent] += max(0.0, hi - lo)
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def by_name(self, name: str):
        return [(i, s) for i, s in enumerate(self.spans) if s.name == name]


def _spec_info(args, kwargs, result):
    spec = args[0]
    return {"model": spec.model, "cells": spec.m * spec.n}


def _gen_utdq_info(args, kwargs, result):
    n, m_prime, q = args[0], args[1], int(args[2])
    return {"model": "utdq", "cells": m_prime * q * n}


def _trials_info(args, kwargs, result):
    return {"trials": int(args[2])}


def _file_bytes(args, kwargs, result):
    """Size of the matrix file a read or write call was given."""
    return {"bytes": os.path.getsize(os.fspath(args[0]))}


@contextlib.contextmanager
def installed(rec: Recorder, gtpool, harness=True):
    """Patch gtpool's call sites for the duration of the block.

    The generation, matrix, decoding, rng and theory call sites are
    always patched; harness adds the sim drivers and the CLI entry point.
    """
    cli, designs, decoding, sim, theory = (
        gtpool.cli, gtpool.designs, gtpool.decoding, gtpool.sim, gtpool.theory)
    # (module, attribute, span name, info, skip_inside)
    sites = [
        (sim, "generate", "designs.generate", _spec_info, None),
        (designs, "generate", "designs.generate", _spec_info, None),
        (designs, "gen_utdq", "designs.generate", _gen_utdq_info,
         "designs.generate"),
        (designs, "upper_bound_m", "designs.upper_bound_m", None, None),
        (designs, "expand_qary", "matrices.expand_qary", None, None),
        (cli, "expand_qary", "matrices.expand_qary", None, None),
        (sim, "or_columns", "matrices.or_columns", None, None),
        (cli, "or_columns", "matrices.or_columns", None, None),
        (decoding, "or_columns", "matrices.or_columns", None, None),
        (cli, "write_matrix", "matrices.write_matrix", _file_bytes, None),
        (cli, "read_matrix", "matrices.read_matrix", _file_bytes, None),
        (sim, "is_disjunct", "decoding.is_disjunct", None, None),
        (cli, "is_disjunct", "decoding.is_disjunct", None, None),
        (sim, "decode_eliminate", "decoding.decode_eliminate", None, None),
        (cli, "decode_eliminate", "decoding.decode_eliminate", None, None),
        (cli, "is_separable", "decoding.is_separable", None, None),
        (sim, "substream", "rng.substream", None, None),
        (theory, "table1", "theory.table1", None, None),
        (theory, "rssd_alpha_star", "theory.rssd_alpha_star", None, None),
        (theory, "utdq_q_star", "theory.utdq_q_star", None, None),
    ]
    if harness:
        sites += [
            (cli, "main", "cli.main", None, None),
            (sim, "run_sweep", "sim.run_sweep", None, None),
            (sim, "find_min_m", "sim.find_min_m", None, None),
            (sim, "run_trials", "sim.run_trials", _trials_info, None),
            (sim, "wilson_interval", "sim.wilson_interval", None, None),
        ]
    saved = []
    try:
        for module, attr, name, info, skip in sites:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            wrapped = rec.wrap(name, fn, info=info, skip_inside=skip)
            if attr in ("rssd_alpha_star", "utdq_q_star"):
                wrapped = _mark_cache_misses(rec, fn, wrapped)
            setattr(module, attr, wrapped)
        yield rec
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _mark_cache_misses(rec: Recorder, cached, wrapped):
    """Tag the span with cold=True when the lru_cache missed."""

    def call(*args, **kwargs):
        idx, misses = len(rec.spans), cached.cache_info().misses
        result = wrapped(*args, **kwargs)
        rec.spans[idx].info["cold"] = cached.cache_info().misses > misses
        return result

    return call
