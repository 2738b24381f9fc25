"""gtpool benchmark: one command, one workload, one JSON result.

    python3 perfbench/run.py --workload mc-sized --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; gtpool is loaded from its ``src``.
Workloads: mc-sized, sweep-rid, cli-pipeline (see perfbench/README.md).

--trace 0 runs the workload in a few worker processes in turn (shards)
and prints every end-to-end metric: the median over the run of the
samples, each scaled by the speed probes just before and after it;
--trace 1 runs a fixed program in one worker, once untraced and once
traced, and prints the per-layer metrics.  Earlier stdout lines carry
the environment, the raw medians, sample counts and high percentiles,
the raw samples with their times and the probes, and the tracing
overhead; the last line is ``{"correct", "attempted", "failed",
"metrics"}``.

Files go to a private directory under ``.perfbench-tmp`` in the checkout
and are removed at exit.  BLAS/OpenMP pools are capped at one thread in
every child, so ``jobs=2`` in the search is the only parallelism, and
every child runs on one CPU, the one the worker's speed probe measures.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-sized", "sweep-rid", "cli-pipeline")
MODELS = ("rid", "rrsd", "rssd", "utdq")
CLI_STEPS = ("table1", "design", "design-qary", "check", "check-separable",
             "decode")
END_TO_END = ("setup_s", *(f"trial_ms.{m}" for m in MODELS), "search_s",
              *(f"cli_s.{s}" for s in CLI_STEPS))
IMPORT_SAMPLES = 3
# Worker processes of a timed run, one after the other.  Each one adds a
# set-up sample, and a run's medians pool them: a process can run some
# operations 20% slower or faster than the next for all its life.  On
# cli-pipeline every CLI sample is a process of its own anyway.
SHARDS = {"mc-sized": 4, "sweep-rid": 3, "cli-pipeline": 3}
DEADLINE_S = 170.0
# Timed samples are scaled to these times of the two parts of the speed
# probe (worker.speed_probe), typical values on the 2-core host the
# benchmark was defined on.  Trials are scaled by the array part, as
# generation is over 97% of them; everything else by the interpreter
# part.
PROBE_NOMINAL_S = {"array": 0.008, "python": 0.011}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def unit_of(name: str) -> str:
    if name.startswith("trial_ms."):
        return "ms"
    if name.endswith(".ns_per_cell"):
        return "ns"
    if name.endswith(".MB_per_s"):
        return "MB/s"
    if name.endswith((".calls", ".probes", ".draws")):
        return "count"
    return "s"


def high_percentile(values):
    """Highest of a few percentiles with at least ten samples above it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        cut = ordered[min(len(ordered) - 1, int(p / 100 * len(ordered)))]
        if sum(v > cut for v in ordered) >= 10:
            best = {"percentile": p, "value": cut}
    return best


def summarize(samples: dict) -> dict:
    return {name: {"median": statistics.median(vals), "samples": len(vals),
                   "high": high_percentile(vals), "unit": unit_of(name)}
            for name, vals in sorted(samples.items()) if vals}


def probe_part(name: str) -> str:
    return "array" if name.startswith("trial_ms.") else "python"


def scaled_samples(out: dict) -> dict:
    """Each timed sample times the nominal time of its probe part over
    the mean time of that part in the probes just before and just after
    it (the first set-up has only the one after it)."""
    probes = out["probes"]
    times = [t for t, *_ in probes]
    scaled = {}
    for name, vals in out["samples"].items():
        if name in out["unscaled"]:
            scaled[name] = list(vals)
            continue
        part = probe_part(name)
        column = 1 if part == "array" else 2
        scaled[name] = []
        for value, (start, end) in zip(vals, out["intervals"][name]):
            lo = max(0, bisect.bisect_left(times, start) - 1)
            hi = bisect.bisect_right(times, end) + 1
            near = [probe[column] for probe in probes[lo:hi]
                    if not start < probe[0] < end]
            scaled[name].append(value * PROBE_NOMINAL_S[part]
                                / statistics.mean(near))
    return scaled


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    try:  # kernel-provided, read-only
        text = Path("/proc/cpuinfo").read_text()
        env["cpu"] = re.search(r"model name\s*:\s*(.*)", text).group(1)
    except (OSError, AttributeError):
        env["cpu"] = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return env


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Children:
    """Every process started here; all are killed and reaped at exit.

    Each child leads its own process group, so the processes it starts
    (CLI steps, pool workers) are killed with it.
    """

    def __init__(self):
        self.procs = []

    def start(self, argv, env, **kw):
        proc = subprocess.Popen(argv, env=env, start_new_session=True, **kw)
        self.procs.append(proc)
        return proc

    def stop_all(self):
        for proc in self.procs:
            if proc.poll() is None:
                kill_group(proc.pid)
            proc.wait()
            kill_group(proc.pid)  # anything it left behind


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_worker(children, env, args, tmp, deadline, shard=0):
    """Start worker.py; return its parsed last line, with the times it
    started and printed READY as ``setup``."""
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--tmp", str(tmp), "--cpus", ",".join(map(str, args.cpus)),
            "--shard", str(shard), "--shards", str(SHARDS[args.workload])]
    start = time.perf_counter()
    proc = children.start(argv, env, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                            kill_group, (proc.pid,))
    timer.start()
    try:
        setup = last = None
        for line in proc.stdout:
            if setup is None and line.strip() == "READY":
                setup = (start, time.perf_counter())
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
    if code != 0 or setup is None or last is None:
        raise RuntimeError(f"worker exited with {code}")
    out = json.loads(last)
    out["setup"] = setup
    return out


def run_timed(children, env, args, tmp, deadline) -> dict:
    """Every shard in turn; their samples, probes and checks merged.

    The workers' clocks are this one's (perf_counter is system-wide), so
    each set-up sample goes into the timeline with the probes around it.
    The checks that need the whole run are made here: the success counts
    pooled over the shards, and the sweep record and CLI output of every
    shard that ran a sweep or a CLI pass against the first shard's (shard
    0 runs both).
    """
    run = {"samples": {}, "intervals": {}, "probes": [], "unscaled": set(),
           "attempted": 0, "failures": [], "decode_exact": None}
    shards = [run_worker(children, env, args, tmp, deadline, shard)
              for shard in range(SHARDS[args.workload])]
    for out in shards:
        start, ready = out["setup"]
        out["samples"]["setup_s"] = [ready - start]
        out["intervals"]["setup_s"] = [(start, ready)]
        for key in ("samples", "intervals"):
            for name, vals in out[key].items():
                run[key].setdefault(name, []).extend(vals)
        run["probes"].extend(out["probes"])
        run["unscaled"].update(out["unscaled"])
        run["attempted"] += out["attempted"]
        run["failures"] += out["failures"]
    run["probes"].sort()
    run["unscaled"] = sorted(run["unscaled"])
    run["decode_exact"] = shards[0]["decode_exact"]

    def check(ok: bool, what: str) -> None:
        run["attempted"] += 1
        if not ok:
            run["failures"].append(what)
            print(f"check failed: {what}", file=sys.stderr)

    target = shards[0]["freq_target"]
    for model in shards[0]["mc_counts"]:
        wins = sum(out["mc_counts"][model][0] for out in shards)
        trials = sum(out["mc_counts"][model][1] for out in shards)
        check(wilson_high(wins, trials) >= target,
              f"{model}: {wins}/{trials} successes, Wilson upper bound "
              f"below {target}")
    for key in ("sweep_records", "cli_outputs"):
        check(shards[0][key] is not None
              and all(out[key] in (None, shards[0][key]) for out in shards),
              f"{key} differ between shards")
    return run


def wilson_high(successes: int, trials: int, z: float = 1.959964) -> float:
    """Upper end of the 95% Wilson score interval."""
    p = successes / trials
    centre = p + z * z / (2 * trials)
    half = z * (p * (1 - p) / trials + z * z / (4 * trials * trials)) ** 0.5
    return (centre + half) / (1 + z * z / trials)


def import_times(children, env, deadline) -> dict:
    """cli.import_s and cli.import.scipy_s from -X importtime, medians."""
    total, scipy = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = children.start(
            [sys.executable, "-X", "importtime", "-c", "import gtpool.cli"],
            env, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError("import gtpool.cli failed")
        t, s = parse_importtime(err)
        total.append(t)
        scipy.append(s)
    return {"cli.import_s": statistics.median(total),
            "cli.import.scipy_s": statistics.median(scipy)}


def parse_importtime(text: str):
    """Cumulative seconds of gtpool.cli, and of scipy outside scipy."""
    nodes = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)", line)
        if m:
            nodes.append((len(m.group(3)), m.group(4), int(m.group(2)) / 1e6))
    total = scipy = 0.0
    stack = []  # ancestors, walking the post-order listing backwards
    for depth, name, cum in reversed(nodes):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "gtpool.cli":
            total = cum
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for _, a in stack):
            scipy += cum
        stack.append((depth, name))
    return total, scipy


def main() -> int:
    ap = argparse.ArgumentParser(description="gtpool benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gtpool" / "__init__.py").is_file():
        print(f"error: no gtpool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    # Every child inherits one CPU, the one the speed probe measures;
    # only the search's jobs=2 pool is given all of them.
    args.cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {args.cpus[-1]})
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    children = Children()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        env = child_env(tmp)
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src" / "gtpool")], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        if args.trace:
            out = run_worker(children, env, args, tmp, deadline)
            extra = import_times(children, env, deadline)
        else:
            out = run_timed(children, env, args, tmp, deadline)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        children.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
        with_contents = any(scratch.iterdir()) if scratch.exists() else True
        if not with_contents:
            scratch.rmdir()

    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace,
                      "decode_exact": out["decode_exact"]}))
    if args.trace:
        metrics = {**out["per_layer"], **extra}
        untraced = summarize(out["untraced"])
        traced = summarize(out["traced"])
        print(json.dumps({"tracing_overhead": {
            name: {"untraced": untraced[name]["median"],
                   "traced": traced[name]["median"],
                   "share": traced[name]["median"] / untraced[name]["median"]
                   - 1.0}
            for name in untraced if name in traced}}))
    else:
        summary = summarize(out["samples"])
        scaled = scaled_samples(out)
        metrics = {name: statistics.median(scaled[name])
                   for name in END_TO_END if scaled.get(name)}
        probes = out["probes"]
        print(json.dumps({"speed_probe": {
                              "array_median_s": statistics.median(
                                  p[1] for p in probes),
                              "python_median_s": statistics.median(
                                  p[2] for p in probes),
                              "samples": len(probes),
                              "unscaled": out["unscaled"]},
                          "summary": summary,
                          "timeline": {key: out[key] for key in
                                       ("samples", "intervals", "probes",
                                        "unscaled")}}))
    failed = len(out["failures"])
    missing = [name for name in END_TO_END if name not in metrics] \
        if not args.trace else []
    for name in missing:
        print(f"error: no samples for {name}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": max(1, out["attempted"]),
        "failed": failed + len(missing),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
