"""One benchmark process: set up a workload, then run it timed or traced.

run.py starts this file in a fresh interpreter with ``src`` on
PYTHONPATH.  The worker builds every input from the workload seed,
warms the gtpool caches, prints ``READY`` (the end of set-up), then runs
the workload and prints one JSON object with its samples, checks and
spans as its last line.  A timed run is split into shards, one worker
process each, so that every sample pools several processes.

Every workload runs all three user-facing operations, so every
end-to-end metric has a value on every workload; the workload decides
which one runs at full size and fills the measured time (its *primary*),
while the other two run small and a fixed number of times.  Outside the
cli-pipeline workload the CLI steps run in-process: a run has room for
only a few 1.5 s cold starts, and single cold starts vary by +-25%.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np

import gtpool
import gtpool.cli
from gtpool import designs, rng, sim, theory

import spans

ROOT = Path(__file__).resolve().parent.parent

MODELS = ("rid", "rrsd", "rssd", "utdq")

# mc: run_trials at the sized m of each model, rate-optimal parameter.
MC_N, MC_D, MC_DELTA = 10**4, 3, 0.1
TRIALS_PER_CALL = {"rid": 12, "rrsd": 4, "rssd": 3, "utdq": 50}
# Each model's success count, pooled over a run, must be consistent with
# the 1 - delta guarantee: run.py fails it only when its Wilson upper
# bound (95%) lies below the guarantee minus the search's own guard.
FREQ_TARGET = 1.0 - MC_DELTA - sim.WILSON_GUARD
# sweep: minimal-m search for rid at d=2, two decades of n.  The light
# sweep runs at jobs=1: at n <= 10^3 a probe is mostly pool start-up,
# whose time varies by +-40% from run to run.
SWEEP_N = {"full": (10**3, 10**4), "light": (10**2, 10**3)}
SWEEP_JOBS = {"full": 2, "light": 1}
SWEEP_D, SWEEP_TARGET, SWEEP_TRIALS = 2, 0.9, 200

# cli: one fresh `python -m gtpool` process per step.
CLI_N = {"full": 10**5, "light": 10**3}
CLI_SEP_N = {"full": 300, "light": 100}
CLI_D, CLI_DELTA, CLI_DMAX = 3, 0.1, 10
CLI_STEPS = ("table1", "design", "design-qary", "check", "check-separable",
             "decode")

PRIMARY = {"mc-sized": "mc", "sweep-rid": "sweep", "cli-pipeline": "cli"}
# Fixed repetitions of the non-primary operations in each shard of a
# timed run, and the least number of repetitions of the primary one in
# a whole run, dealt out to the shards in turn.
LIGHT_REPEATS = {"mc": 2, "sweep": 1, "cli": 3}
PRIMARY_MIN = {"mc": 12, "sweep": 2, "cli": 3}

# lru_caches a fresh process starts without.
THEORY_CACHES = ("rssd_alpha_star", "utdq_q_star", "_surjections_raw",
                 "_log_surjection_table")


def speed_probe() -> tuple:
    """Seconds for two fixed kinds of work gtpool does, independent of it.

    The array part is a numpy draw, a row-wise argpartition as in the
    rrsd generator and bit packing.  The interpreter part is big-int row
    algebra, an OR over column triples as in is_separable, and a plain
    Python loop.  The machine's speed drifts by 20% and more between runs
    on a shared host, and interpreted code slows more than array code
    when it does, so run.py scales each timed sample on the pinned CPU by
    the part of the probes around it that matches its work (README.md).
    """
    gen = np.random.default_rng(0)
    start = time.perf_counter()
    keys = gen.random((60, 10_000))
    idx = np.argpartition(keys, 29, axis=1)[:, :30]
    dense = np.zeros((60, 10_000), dtype=np.uint8)
    dense[np.arange(60)[:, None], idx] = 1
    dense |= keys >= 0.7
    packed = np.packbits(dense, axis=1)
    middle = time.perf_counter()
    rows = [int.from_bytes(r.tobytes(), "big") for r in packed]
    acc = 0
    for _ in range(20):
        for w in rows:
            acc |= w & (w >> 3)
    cols = [w & ((1 << 100) - 1) for w in rows[:50]]
    for a, b, c in combinations(range(50), 3):
        acc |= cols[a] | cols[b] | cols[c]
    total = 0
    for i in range(50_000):
        total += i * i
    return middle - start, time.perf_counter() - middle


def sub_seed(seed: int, *path) -> int:
    """A 63-bit seed that depends only on the workload seed and path."""
    key = "/".join(str(part) for part in (seed, *path))
    return random.Random(key).getrandbits(63)


def pick_items(seed: int, n: int, k: int, *path) -> list:
    return sorted(random.Random("/".join(map(str, (seed, *path))))
                  .sample(range(1, n + 1), k))


class Bench:
    def __init__(self, workload: str, seed: int, tmp: Path, cpus=None,
                 shard=0, shards=1):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.cpus = cpus  # all usable CPUs, for the jobs>1 sweep
        # Shard 0 of a timed run also runs the costly checks: the replays
        # of mc calls and sweep probes, and the numpy oracles of the CLI
        # outputs.  run.py compares the other shards' outputs with its.
        self.shard, self.shards = shard, shards
        self.primary = PRIMARY[workload]
        self.size = {op: "full" if op == self.primary else "light"
                     for op in ("mc", "sweep", "cli")}
        self.samples = defaultdict(list)  # raw seconds (ms for trial_ms.*)
        self.intervals = defaultdict(list)  # (start, end) of each sample
        self.unscaled = set()  # metrics of work spread over several CPUs
        self.attempted = 0
        self.failures = []
        self.recorder = None
        self.probes = None  # (time, array s, interpreter s) of each speed
        # probe, while a timed run is on
        self._caches = {name: getattr(theory, name) for name in THEORY_CACHES}

        # mc inputs: the sizing also warms rssd_alpha_star(3), utdq_q_star(3)
        self.specs = {}
        for model in MODELS:
            sizing = designs.upper_bound_m(model, MC_N, MC_D, MC_DELTA)
            param = (sizing.q if model == "utdq" else
                     designs.optimal_param(model, MC_N, MC_D, m_hint=sizing.m))
            self.specs[model] = designs.DesignSpec(model, MC_N, sizing.m, param)
        self.mc_calls = defaultdict(int)
        self.mc_success = defaultdict(int)
        self.mc_trials = defaultdict(int)
        self.mc_first = {}

        self.sweep_seed = sub_seed(seed, "sweep")
        self.sweep_records = None

        self.cli = self._cli_inputs()
        self.cli_outputs = None
        self._pass = {}
        self.decode_exact = None

    # -- bookkeeping ---------------------------------------------------

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"check failed: {what}", file=sys.stderr)

    def attempt(self, what: str, fn, *args):
        """Run one operation; an exception counts as a failed operation.

        In a timed run a speed probe follows each operation (and the
        first one precedes it), and the time span of each sample the
        operation adds is kept, so that run.py can scale the sample by the
        probes around it.
        """
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.next_op()
        if self.probes is None:
            return self._guarded(what, fn, *args)
        if not self.probes:
            self.probe()
        marks = {name: len(vals) for name, vals in self.samples.items()}
        start = time.perf_counter()
        got = self._guarded(what, fn, *args)
        end = time.perf_counter()
        self.probe()
        for name, vals in self.samples.items():
            added = len(vals) - marks.get(name, 0)
            self.intervals[name] += [(start, end)] * added
        return got

    def probe(self):
        start = time.perf_counter()
        array_s, python_s = speed_probe()
        self.probes.append((start + (array_s + python_s) / 2, array_s,
                            python_s))

    def _guarded(self, what: str, fn, *args):
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - the benchmark must keep running
            traceback.print_exc()
            self.fail(f"{what} raised")
            return None

    # -- mc ------------------------------------------------------------

    def mc_call(self, model: str, master_seed=None):
        spec, trials = self.specs[model], TRIALS_PER_CALL[model]
        k = self.mc_calls[model]
        self.mc_calls[model] += 1
        if master_seed is None:
            master_seed = sub_seed(self.seed, "mc", model, k)
        start = time.perf_counter()
        # run_trials raises on any trial where the decoder and the
        # disjunctness test disagree; attempt() counts that as a failure.
        rep = gtpool.sim.run_trials(spec, MC_D, trials, master_seed, jobs=1)
        self.samples[f"trial_ms.{model}"].append(
            (time.perf_counter() - start) / trials * 1e3)
        self.mc_success[model] += rep.disjunct_successes
        self.mc_trials[model] += rep.trials
        self.mc_first.setdefault(model, (master_seed, rep.as_record()))
        return rep

    def mc_verify(self):
        """Per model: the first call replays to the same record, and its
        success count matches a numpy decoder on the same matrices.
        (run.py checks the success counts pooled over the shards.)"""
        for model in MODELS:
            if self.shard == 0 and model in self.mc_first:
                self.attempt(f"replay {model}", self._mc_replay, model)

    def _mc_replay(self, model: str):
        master_seed, record = self.mc_first[model]
        spec, trials = self.specs[model], TRIALS_PER_CALL[model]
        rep = gtpool.sim.run_trials(spec, MC_D, trials, master_seed)
        if rep.as_record() != record:
            self.fail(f"{model}: replay at seed {master_seed} differs")
        # the determinism contract: trial t draws from (master_seed, t)
        items = list(range(1, MC_D + 1))
        wins = sum(
            survivors(bool_matrix(designs.generate(spec, rng.substream(
                master_seed, t))), items) == items
            for t in range(trials))
        if wins != record["disjunct_successes"]:
            self.fail(f"{model}: numpy decoder recovers {wins} of {trials} "
                      f"trials, run_trials counted "
                      f"{record['disjunct_successes']}")

    # -- sweep ---------------------------------------------------------

    def sweep_call(self, jobs=None, timed=True):
        jobs = jobs or SWEEP_JOBS[self.size["sweep"]]
        pinned = os.sched_getaffinity(0)
        if jobs > 1 and self.cpus:
            os.sched_setaffinity(0, self.cpus)
            # the probe measures only the pinned CPU
            self.unscaled.add("search_s")
        start = time.perf_counter()
        try:
            res = gtpool.sim.run_sweep(
                "rid", SWEEP_D, SWEEP_N[self.size["sweep"]], SWEEP_TARGET,
                SWEEP_TRIALS, self.sweep_seed, jobs=jobs)
        finally:
            os.sched_setaffinity(0, pinned)
        if timed:
            self.samples["search_s"].append(time.perf_counter() - start)
        records = [(pt.n, pt.m_star, search.probe_records())
                   for pt, search in res]
        if self.sweep_records is None:
            self.sweep_records = records
        elif records != self.sweep_records:
            self.fail(f"sweep at jobs={jobs} differs from the first sweep")
        return records

    def sweep_verify(self):
        """The record is consistent and its deciding probes replay at jobs=1.

        For each n: accepted means Wilson low >= target - guard; m* is the
        smallest accepted probe and m* - 1 was probed and rejected.  The
        probes at m* and m* - 1 are then re-run at jobs=1 from the seeds
        the determinism contract gives them.
        """
        if self.sweep_records is None:
            return
        guard = SWEEP_TARGET - sim.WILSON_GUARD
        replay = self.shard == 0
        for n, m_star, probes in self.sweep_records:
            by_m = {p["m"]: p for p in probes}
            if any(p["accepted"] != (p["wilson_low"] >= guard) for p in probes):
                self.fail(f"sweep n={n}: accepted flag disagrees with bound")
            accepted = [p["m"] for p in probes if p["accepted"]]
            if not accepted or min(accepted) != m_star:
                self.fail(f"sweep n={n}: m*={m_star} is not the least accepted")
            if m_star - 1 not in by_m or by_m[m_star - 1]["accepted"]:
                self.fail(f"sweep n={n}: m*-1 not probed and rejected")
            for m in (m_star - 1, m_star):
                if replay and m in by_m:
                    self.attempt(f"probe replay n={n} m={m}",
                                 self._probe_replay, n, m, by_m[m])

    def _probe_replay(self, n: int, m: int, probe: dict):
        spec = designs.DesignSpec(
            "rid", n, m, designs.optimal_param("rid", n, SWEEP_D))
        seed = rng.derive_seed(rng.derive_seed(self.sweep_seed, n), m)
        rep = gtpool.sim.run_trials(spec, SWEEP_D, SWEEP_TRIALS, seed, jobs=1)
        if rep.disjunct_successes != probe["successes"]:
            self.fail(f"sweep n={n} m={m}: jobs=1 replay gives "
                      f"{rep.disjunct_successes}, the sweep gave "
                      f"{probe['successes']}")

    # -- cli -----------------------------------------------------------

    def _cli_inputs(self) -> dict:
        size = self.size["cli"]
        n, sep_n = CLI_N[size], CLI_SEP_N[size]
        paths = {name: self.tmp / f"{name}.txt"
                 for name in ("rid", "utdq", "qary", "sep")}
        # the separability input is a rid matrix drawn here, at sized m
        sep_m = designs.upper_bound_m("rid", sep_n, CLI_D, CLI_DELTA).m
        gen = np.random.default_rng(sub_seed(self.seed, "cli", "sep"))
        dense = gen.random((sep_m, sep_n)) >= np.exp(-1.0 / CLI_D)
        write_binary(paths["sep"], dense)
        items = {
            "check": pick_items(self.seed, n, CLI_D, "cli", "check"),
            "check-separable": pick_items(self.seed, sep_n, CLI_D, "cli", "sep"),
            "decode": pick_items(self.seed, n, CLI_D, "cli", "decode"),
        }
        common = ["--n", str(n), "--d", str(CLI_D), "--delta", str(CLI_DELTA)]
        argv = {
            "table1": ["table1", "--dmax", str(CLI_DMAX)],
            "design": ["design", "--model", "rid", *common,
                       "--seed", str(sub_seed(self.seed, "cli", "rid")),
                       "--out", str(paths["rid"])],
            "design-qary": ["design", "--model", "utdq", *common,
                            "--seed", str(sub_seed(self.seed, "cli", "utdq")),
                            "--out", str(paths["utdq"]),
                            "--qary-out", str(paths["qary"])],
            "check": ["check", "--matrix", str(paths["rid"]),
                      "--defectives", join_items(items["check"])],
            "check-separable": ["check", "--matrix", str(paths["sep"]),
                                "--defectives",
                                join_items(items["check-separable"]),
                                "--separable"],
            "decode": ["decode", "--matrix", str(paths["qary"]),
                       "--defectives", join_items(items["decode"])],
        }
        return {"n": n, "sep": dense, "paths": paths, "items": items,
                "argv": argv}

    def cli_step_subprocess(self, step: str):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gtpool",
                               *self.cli["argv"][step]],
                              capture_output=True, text=True, cwd=self.tmp,
                              timeout=120)
        self.samples[f"cli_s.{step}"].append(time.perf_counter() - start)
        return proc.returncode, proc.stdout

    def cli_step_inprocess(self, step: str):
        """main(argv) in this process, from the theory caches of a fresh one."""
        for name in THEORY_CACHES:
            self._caches[name].cache_clear()
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = gtpool.cli.main(list(self.cli["argv"][step]))
        self.samples[f"cli_s.{step}"].append(time.perf_counter() - start)
        return code, out.getvalue()

    def cli_step(self, step: str, in_process=False):
        """One step; the last step of a pass checks the whole pass."""
        if step == CLI_STEPS[0]:
            self._pass = {}
        run = self.cli_step_inprocess if in_process else self.cli_step_subprocess
        got = self.attempt(f"cli {step}", run, step)
        if got is not None and got[0] != 0:
            self.fail(f"cli {step}: exit {got[0]}")
        elif got is not None:
            self._pass[step] = got[1]
        if step != CLI_STEPS[-1] or len(self._pass) != len(CLI_STEPS):
            return
        if self.cli_outputs is None:
            self.cli_outputs = self._pass
            if self.shard == 0:
                self.cli_verify(self._pass)
        elif self._pass != self.cli_outputs:
            self.fail("cli pass output differs from the first pass")

    def cli_verify(self, out: dict):
        """Parse every step's stdout and compare it with numpy oracles."""
        try:
            self._cli_verify(out)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            self.fail(f"cli output unreadable: {exc!r}")

    def _cli_verify(self, out: dict):
        n, paths, items = self.cli["n"], self.cli["paths"], self.cli["items"]
        lines = out["table1"].splitlines()
        if (not lines[0].startswith("d,rid,rrsd,rssd,rssd_alpha,utdq,utdq_q")
                or [ln.split(",")[0] for ln in lines[1:]]
                != [str(d) for d in range(2, CLI_DMAX + 1)] + ["inf"]
                or any(ln.split(",")[1] != "2.718282" for ln in lines[1:])):
            self.fail("table1: unexpected CSV")

        design = json.loads(out["design"])
        rid = read_binary(paths["rid"])
        if not design["feasible"] or rid.shape != (design["m"], n):
            self.fail(f"design: header/rows {rid.shape} vs m={design['m']}")
        qdesign = json.loads(out["design-qary"])
        q = int(qdesign["param"])
        binary = read_binary(paths["utdq"])
        qary, qary_q = read_qary(paths["qary"])
        if (binary.shape != (qdesign["m"], n) or qary_q != q
                or qary.shape != (qdesign["m"] // q, n)
                or not np.array_equal(binary, expand(qary, q))):
            self.fail("design-qary: files disagree with the record")

        got = json.loads(out["check"])
        want = survivors(rid, items["check"]) == items["check"]
        if got["disjunct"] != want or got["defectives"] != items["check"]:
            self.fail(f"check: disjunct {got['disjunct']}, oracle {want}")

        got = json.loads(out["check-separable"])
        sep = self.cli["sep"]
        target = items["check-separable"]
        want_disjunct = survivors(sep, target) == target
        want_separable = separable(sep, target, CLI_D)
        if (got["disjunct"], got["separable"], got["d"]) != (
                want_disjunct, want_separable, CLI_D):
            self.fail(f"check --separable: {got}, oracle "
                      f"{want_disjunct}/{want_separable}")

        got = json.loads(out["decode"])
        want = survivors(expand(qary, q), items["decode"])
        if (got["candidates"] != want or got["m"] != qdesign["m"]
                or got["n"] != n):
            self.fail(f"decode: {got['candidates']} vs oracle {want}")
        self.decode_exact = want == items["decode"]

    # -- programs ------------------------------------------------------

    def calls(self, op: str, repeats: int, in_process=False) -> list:
        """Operation ``op`` repeated, split into its separately timed calls."""
        if op == "mc":
            one = [partial(self.attempt, f"run_trials {model}", self.mc_call,
                           model) for model in MODELS]
        elif op == "sweep":
            one = [partial(self.attempt, "run_sweep", self.sweep_call)]
        else:
            one = [partial(self.cli_step, step, in_process)
                   for step in CLI_STEPS]
        return one * repeats

    def run_timed(self, seconds: float):
        """This shard's part of a timed run.

        First the other operations' fixed calls, then the primary until
        the shard's share of ``seconds`` is up and the shard has run its
        share of PRIMARY_MIN.  Every shard's calls come in the same
        order, so each CLI pass starts from the same state.
        """
        quota = len(range(self.shard, PRIMARY_MIN[self.primary], self.shards))
        for model in MODELS:  # distinct mc calls in every shard
            self.mc_calls[model] = self.shard * 10**6
        self.probes = []
        start = time.perf_counter()
        for op in ("mc", "sweep", "cli"):
            if op != self.primary:
                for call in self.calls(op, LIGHT_REPEATS[op], in_process=True):
                    call()
        done = 0
        while done < quota or (
                quota and time.perf_counter() - start < seconds / self.shards):
            for call in self.calls(self.primary, 1):
                call()
            done += 1
        self.probes, probes = None, self.probes
        self.verify()
        return probes

    def verify(self):
        self.mc_verify()
        self.sweep_verify()

    def run_fixed(self):
        """The fixed program of a traced run, CLI steps in-process.

        Each operation runs once at its workload size, the mc rounds as
        often as a timed run runs them at least.
        """
        mc_rounds = PRIMARY_MIN["mc"] if self.primary == "mc" else \
            LIGHT_REPEATS["mc"] * self.shards
        for op, repeats in (("mc", mc_rounds), ("sweep", 1), ("cli", 1)):
            for call in self.calls(op, repeats, in_process=True):
                call()


def join_items(items) -> str:
    return ",".join(str(i) for i in items)


# ---------------------------------------------------------------------
# oracles: plain numpy, independent of gtpool


def write_binary(path: Path, dense) -> None:
    m, n = dense.shape
    body = (dense.astype(np.uint8) + ord("0")).tobytes()
    with open(path, "wb") as fh:
        fh.write(f"{m} {n}\n".encode())
        for t in range(m):
            fh.write(body[t * n:(t + 1) * n] + b"\n")


def bool_matrix(matrix) -> np.ndarray:
    """Bool array of a matrix given as row words (column 1 = top bit)."""
    nbytes = (matrix.n + 7) // 8
    pad = nbytes * 8 - matrix.n
    raw = b"".join((w << pad).to_bytes(nbytes, "big") for w in matrix.rows)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    return bits.reshape(matrix.m, nbytes * 8)[:, :matrix.n].astype(bool)


def read_binary(path: Path) -> np.ndarray:
    header, _, body = path.read_bytes().partition(b"\n")
    m, n = (int(x) for x in header.split())
    rows = np.frombuffer(body, dtype=np.uint8).reshape(m, n + 1)
    return (rows[:, :n] - ord("0")).astype(bool)


def read_qary(path: Path):
    header, _, body = path.read_bytes().partition(b"\n")
    m, n, q = (int(x) for x in header.split())
    return np.array(body.split(), dtype=np.int64).reshape(m, n), q


def expand(qary: np.ndarray, q: int) -> np.ndarray:
    """Row i, symbol s -> binary row i*q + s - 1."""
    return (qary[:, None, :] == np.arange(1, q + 1)[None, :, None]).reshape(
        -1, qary.shape[1])


def survivors(matrix: np.ndarray, items) -> list:
    """Items left by elimination decoding of the answers of ``items``."""
    cols = np.asarray(items) - 1
    negative = ~matrix[:, cols].any(axis=1)
    return [int(j) + 1 for j in np.flatnonzero(~matrix[negative].any(axis=0))]


def separable(matrix: np.ndarray, items, d: int) -> bool:
    """No other set of size <= d has the same answers.

    A set with the same answers avoids every negative test, so it lies
    among the elimination survivors; only their subsets are scanned.
    """
    answers = matrix[:, np.asarray(items) - 1].any(axis=1)
    alive = survivors(matrix, items)
    for k in range(0, d + 1):
        for combo in combinations(alive, k):
            if list(combo) == list(items):
                continue
            got = (matrix[:, np.asarray(combo, dtype=int) - 1].any(axis=1)
                   if combo else np.zeros(matrix.shape[0], dtype=bool))
            if np.array_equal(got, answers):
                return False
    return True


# ---------------------------------------------------------------------
# traced run


def traced_run(bench: Bench) -> dict:
    """Untraced then traced pass of the fixed program, then a jobs=1 sweep
    where the program's sweep ran at jobs=2.

    Returns the per-layer metrics and the end-to-end figures of both
    passes, whose difference is the tracing overhead.
    """
    bench.run_fixed()
    untraced = {k: list(v) for k, v in bench.samples.items()}
    bench.samples.clear()

    bench.mc_calls.clear()  # the traced pass repeats the same calls
    rec = spans.Recorder()
    bench.recorder = rec
    with spans.installed(rec, gtpool):
        bench.run_fixed()
    traced = {k: list(v) for k, v in bench.samples.items()}
    if SWEEP_JOBS[bench.size["sweep"]] > 1:
        # kernel spans of the search come from a jobs=1 pass: spans made
        # in worker processes are lost.  Its record must equal the other.
        with spans.installed(rec, gtpool, harness=False):
            bench.attempt("run_sweep jobs=1", bench.sweep_call, 1, False)
    bench.recorder = None
    bench.verify()
    return {"per_layer": layer_metrics(rec), "untraced": untraced,
            "traced": traced}


def layer_metrics(rec: spans.Recorder) -> dict:
    own = rec.self_times()

    def total(name):
        return sum(own[i] for i, _ in rec.by_name(name))

    def count(name):
        return len(rec.by_name(name))

    out = {
        "cli.main.self_s": total("cli.main"),
        "theory.table1.self_s": total("theory.table1"),
    }
    for fn in ("rssd_alpha_star", "utdq_q_star"):
        out[f"theory.{fn}.cold_s"] = sum(
            s.duration for _, s in rec.by_name(f"theory.{fn}")
            if s.info.get("cold"))
    gen = rec.by_name("designs.generate")
    for model in MODELS:
        mine = [(own[i], s.info["cells"]) for i, s in gen
                if s.info["model"] == model]
        secs = sum(t for t, _ in mine)
        cells = sum(c for _, c in mine)
        out[f"designs.generate.{model}.self_s"] = secs
        out[f"designs.generate.{model}.ns_per_cell"] = (
            secs / cells * 1e9 if cells else 0.0)
    out["designs.generate.calls"] = len(gen)
    out["designs.upper_bound_m.self_s"] = total("designs.upper_bound_m")
    for fn in ("expand_qary", "or_columns", "write_matrix", "read_matrix"):
        out[f"matrices.{fn}.self_s"] = total(f"matrices.{fn}")
    for fn in ("write_matrix", "read_matrix"):
        moved = sum(s.info["bytes"] for _, s in rec.by_name(f"matrices.{fn}"))
        secs = out[f"matrices.{fn}.self_s"]
        out[f"matrices.{fn}.MB_per_s"] = moved / secs / 1e6 if secs else 0.0
    for fn in ("is_disjunct", "decode_eliminate", "is_separable"):
        out[f"decoding.{fn}.self_s"] = total(f"decoding.{fn}")
    out["sim.run_trials.self_s"] = total("sim.run_trials")
    out["sim.wilson_interval.self_s"] = total("sim.wilson_interval")
    out["sim.wilson_interval.calls"] = count("sim.wilson_interval")
    probes = [s for _, s in rec.by_name("sim.run_trials")
              if s.parent is not None
              and rec.spans[s.parent].name == "sim.find_min_m"]
    out["sim.find_min_m.probes"] = len(probes)
    out["sim.find_min_m.draws"] = sum(s.info["trials"] for s in probes)
    out["rng.substream.self_s"] = total("rng.substream")
    out["rng.substream.calls"] = count("rng.substream")
    return out


# ---------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(PRIMARY), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--shard", type=int, default=0)
    ap.add_argument("--shards", type=int, default=1)
    ap.add_argument("--cpus", type=lambda v: {int(c) for c in v.split(",")},
                    help="CPUs the jobs>1 sweep may use")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(gtpool.__file__).resolve().parents:
        print(f"gtpool was imported from {gtpool.__file__}, not {src}",
              file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.tmp, args.cpus,
                  args.shard, args.shards)
    print("READY", flush=True)

    result = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        result.update(traced_run(bench))
    else:
        result["probes"] = bench.run_timed(args.seconds)
        result["samples"] = bench.samples
        result["intervals"] = bench.intervals
        result["unscaled"] = sorted(bench.unscaled)
        # pooled and compared over the shards by run.py
        result["mc_counts"] = {model: [bench.mc_success[model],
                                       bench.mc_trials[model]]
                               for model in bench.mc_trials}
        result["freq_target"] = FREQ_TARGET
        result["sweep_records"] = bench.sweep_records
        result["cli_outputs"] = bench.cli_outputs
    result.update(attempted=bench.attempted, failures=bench.failures,
                  decode_exact=bench.decode_exact)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
