"""Command-line interface.

Subcommands: design, check, decode, mc, sweep, table1.  Structured
output is JSON (one object) or CSV on stdout; diagnostics go to stderr.

Exit codes: 0 success, 2 usage or parameter problem, 3 infeasible
sizing or search, 4 unreadable, malformed or non-ASCII input file.

Randomized commands (design, mc, sweep) refuse to run without --seed;
pass --entropy to draw a seed from the OS, which is then echoed in the
output so the run can be replayed.

A config file (--config PATH, lines of key=value, '#' comments) may
supply any long flag's value; flags given on the command line win.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import designs, sim, theory
from .decoding import decode_eliminate, is_disjunct, is_separable
from .errors import (
    GroupTestError,
    InfeasibleError,
    MatrixParseError,
    ParameterError,
    SizeGuardError,
)
from .matrices import (
    BitMatrix,
    DefectiveSet,
    QaryMatrix,
    _replace_on_success,
    _undecodable,
    expand_qary,
    read_answers,
    read_matrix,
    or_columns,
    write_matrix,
)
from .rng import check_seed

__all__ = ["main"]

_BOOL_TRUE = ("1", "true", "yes", "on")

# Largest m * n that `design` draws and writes: the binary file takes a
# byte per entry and the rssd draw a dense boolean matrix, so about 1 GiB
# each.  The n = 10^5 designs of the benchmark take about 10^7 entries.
DESIGN_CELL_BUDGET = 1 << 30


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MatrixParseError(path, 0, f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    out = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: config lines are key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _merge_config(ns: dict, config: dict, parser) -> None:
    """Fill unset flags from config, each converted as parser would."""
    actions = {a.dest: a for a in parser._actions if a.dest in ns}
    for key, raw in config.items():
        action = actions.get(key)
        if action is None:
            raise ParameterError(f"unknown config key {key!r}")
        if ns[key] is not None:
            continue
        if action.nargs == 0:  # store_true flag
            ns[key] = raw.lower() in _BOOL_TRUE
            continue
        conv = action.type or str
        try:
            ns[key] = conv(raw)
        except ValueError:
            raise ParameterError(
                f"config {key}: invalid {conv.__name__} value {raw!r}")
        if action.choices is not None and ns[key] not in action.choices:
            raise ParameterError(
                f"config {key}: {raw!r} is not one of {action.choices}")


def _require(ns: dict, *names: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if ns.get(n) is None]
    if missing:
        raise ParameterError("missing required flag(s): " + ", ".join(missing))


def _resolve_seed(ns: dict) -> int:
    if ns.get("seed") is not None:
        return check_seed(ns["seed"])
    if ns.get("entropy"):
        return int.from_bytes(os.urandom(8), "big")
    raise ParameterError(
        "randomized command refuses to run without --seed "
        "(pass --entropy to draw one)")


def _parse_items(text: str) -> list:
    try:
        items = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParameterError(f"bad item list {text!r}; expected e.g. 1,4,7")
    if not items:
        raise ParameterError("empty item list")
    return items


def _explicit_param(ns: dict, model: str):
    """The one parameter flag matching the model, if given; reject others."""
    by_model = {"rid": "p", "rrsd": "r", "rssd": "s", "utdq": "q"}
    wanted = by_model[model]
    for name in ("p", "r", "s", "q"):
        if ns.get(name) is not None and name != wanted:
            raise ParameterError(
                f"--{name} does not apply to model {model!r} (expects --{wanted})")
    return ns.get(wanted)


def _jobs(ns: dict) -> int:
    """--jobs, 1 when not given; sim rejects counts below 1."""
    return 1 if ns.get("jobs") is None else ns["jobs"]


def _binary_matrix(path: str) -> BitMatrix:
    loaded = read_matrix(path)
    # check and decode build n-bit masks: refuse an n no design could have
    if loaded.n > DESIGN_CELL_BUDGET:
        raise SizeGuardError(
            f"a matrix of {loaded.n} columns is beyond the budget of "
            f"{DESIGN_CELL_BUDGET}")
    if isinstance(loaded, QaryMatrix):
        return expand_qary(loaded)
    return loaded


def _emit(obj) -> None:
    print(json.dumps(obj))


def _emit_csv(records) -> None:
    """Header from the first record's keys, then one line per record."""
    print(",".join(records[0]))
    for rec in records:
        print(",".join("" if v is None else str(v) for v in rec.values()))


# ---------------------------------------------------------------------
# subcommands


def cmd_design(ns: dict) -> int:
    _require(ns, "model", "n", "d", "out")
    model = ns["model"]
    n, d = ns["n"], ns["d"]
    seed = _resolve_seed(ns)
    explicit = _explicit_param(ns, model)
    if ns.get("qary_out") is not None and model != "utdq":
        raise ParameterError(
            f"--qary-out does not apply to model {model!r} (utdq only)")
    delta = ns.get("delta")

    if ns.get("m") is not None:
        m = ns["m"]
        lam = None
    else:
        if delta is None:
            raise ParameterError("auto-sizing needs --delta (or pass --m)")
        sizing = designs.upper_bound_m(
            model, n, d, delta,
            q=explicit if model == "utdq" else None,
            exact_utdq=bool(ns.get("exact_utdq_sizing")))
        if not sizing.feasible:
            print(f"infeasible sizing: {sizing.reason}", file=sys.stderr)
            return 3
        m, lam = sizing.m, sizing.lam

    spec = designs.spec_at(model, n, d, m, explicit)
    if m * n > DESIGN_CELL_BUDGET:
        raise SizeGuardError(
            f"a {m} x {n} design has {m * n} entries, beyond the budget of "
            f"{DESIGN_CELL_BUDGET}")
    qary_out = ns.get("qary_out")
    # all or nothing, and an unwritable target fails before the draw
    with _replace_on_success(*filter(None, (qary_out, ns["out"]))) as tmps:
        if model == "utdq":
            q = int(spec.param)
            mq = designs.gen_utdq(n, m // q, q, seed)
            if qary_out:
                write_matrix(tmps[0], mq)
            matrix = expand_qary(mq)
        else:
            matrix = designs.generate(spec, seed)
        write_matrix(tmps[-1], matrix)
    _emit({
        "model": model, "n": n, "d": d, "delta": delta, "m": m,
        "param": spec.param, "lambda": lam, "feasible": True, "seed": seed,
        "out": ns["out"],
    })
    return 0


def cmd_check(ns: dict) -> int:
    _require(ns, "matrix", "defectives")
    items = list(DefectiveSet(_parse_items(ns["defectives"])))
    matrix = _binary_matrix(ns["matrix"])
    record = {
        "matrix": ns["matrix"],
        "defectives": items,
        "disjunct": is_disjunct(matrix, items),
        "separable": None,
        "d": None,
    }
    if ns.get("separable"):
        d = ns["d"] if ns.get("d") is not None else len(items)
        record["separable"] = is_separable(matrix, items, d)
        record["d"] = d
    _emit(record)
    return 0


def cmd_decode(ns: dict) -> int:
    _require(ns, "matrix")
    defectives = ns.get("defectives")
    if (ns.get("answers") is None) == (defectives is None):
        raise ParameterError("pass exactly one of --answers or --defectives")
    if defectives is not None:
        defectives = DefectiveSet(_parse_items(defectives))
    matrix = _binary_matrix(ns["matrix"])
    if defectives is None:
        answers = read_answers(ns["answers"], expected_m=matrix.m)
    else:
        answers = or_columns(matrix, defectives)
    candidates = sorted(decode_eliminate(matrix, answers))
    _emit({"matrix": ns["matrix"], "m": matrix.m, "n": matrix.n,
           "candidates": candidates})
    return 0


def cmd_mc(ns: dict) -> int:
    _require(ns, "model", "n", "d", "m", "trials")
    model = ns["model"]
    n, d, m = ns["n"], ns["d"], ns["m"]
    seed = _resolve_seed(ns)
    spec = designs.spec_at(model, n, d, m, _explicit_param(ns, model))
    report = sim.run_trials(spec, d, ns["trials"], seed,
                            jobs=_jobs(ns), delta=ns.get("delta"))
    if (ns.get("format") or "json") == "csv":
        _emit_csv([report.as_record()])
    else:
        _emit(report.as_record())
    return 0


def cmd_sweep(ns: dict) -> int:
    _require(ns, "model", "d", "n_list", "target", "trials")
    model = ns["model"]
    d = ns["d"]
    n_list = _parse_items(ns["n_list"])
    seed = _resolve_seed(ns)
    results = sim.run_sweep(model, d, n_list, ns["target"], ns["trials"],
                            seed, jobs=_jobs(ns))
    points = [point for point, _ in results]
    slope_per_d = sim.slope_fit(points, d)
    if (ns.get("format") or "json") == "csv":
        _emit_csv([dataclasses.asdict(point) for point in points])
    else:
        _emit({
            "model": model, "d": d, "target": ns["target"],
            "trials_per_probe": ns["trials"], "master_seed": seed,
            "points": [
                {"n": point.n, "m_star": point.m_star,
                 "probes": search.probe_records()}
                for point, search in results
            ],
            "slope": slope_per_d * d,
            "slope_per_d": slope_per_d,
        })
    return 0


def cmd_table1(ns: dict) -> int:
    rows = theory.table1(10 if ns.get("dmax") is None else ns["dmax"])
    if (ns.get("format") or "csv") == "json":
        _emit({"rows": [row.as_record() for row in rows]})
    else:
        print(theory.table1_csv(rows), end="")
    return 0


# ---------------------------------------------------------------------
# wiring


def _add_common(p, *names):
    if "model" in names:
        p.add_argument("--model", choices=list(designs.MODELS))
    if "seed" in names:
        p.add_argument("--seed", type=int)
        p.add_argument("--entropy", action="store_true", default=None,
                       help="draw a seed from the OS instead of --seed")
    if "params" in names:
        p.add_argument("--p", type=float, help="rid zero-probability")
        p.add_argument("--r", type=int, help="rrsd row weight")
        p.add_argument("--s", type=int, help="rssd column weight")
        p.add_argument("--q", type=int, help="utdq alphabet size")
    if "jobs" in names:
        p.add_argument("--jobs", type=int,
                       help="worker processes (results identical for any count)")
    p.add_argument("--config", help="key=value file supplying defaults")


def _build_parser() -> tuple:
    parser = argparse.ArgumentParser(
        prog="gtpool",
        description="Randomized pool designs for non-adaptive group testing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="size and write a test matrix")
    _add_common(p, "model", "seed", "params")
    p.add_argument("--n", type=int, help="number of items")
    p.add_argument("--d", type=int, help="defective budget")
    p.add_argument("--delta", type=float, help="failure budget for auto-sizing")
    p.add_argument("--m", type=int, help="explicit test count (skips sizing)")
    p.add_argument("--exact-utdq-sizing", action="store_true", default=None,
                   dest="exact_utdq_sizing",
                   help="use the exact utdq display instead of the "
                        "transversal bound")
    p.add_argument("--out", help="matrix file to write")
    p.add_argument("--qary-out", dest="qary_out",
                   help="also write the q-ary pre-image (utdq only)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("check", help="disjunct / separable verdicts")
    _add_common(p)
    p.add_argument("--matrix", help="matrix file")
    p.add_argument("--defectives", help="comma-separated 1-based items")
    p.add_argument("--separable", action="store_true", default=None)
    p.add_argument("--d", type=int, help="candidate-set size budget for "
                                         "--separable (default: set size)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decode", help="run the elimination decoder")
    _add_common(p)
    p.add_argument("--matrix", help="matrix file")
    p.add_argument("--answers", help="answer vector file")
    p.add_argument("--defectives",
                   help="simulate answers for these 1-based items")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("mc", help="Monte Carlo success-rate estimate")
    _add_common(p, "model", "seed", "params", "jobs")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--delta", type=float, help="recorded for context only")
    p.add_argument("--format", choices=["json", "csv"])
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("sweep", help="minimal test count across several n")
    _add_common(p, "model", "seed", "jobs")
    p.add_argument("--d", type=int)
    p.add_argument("--n-list", dest="n_list",
                   help="comma-separated item counts, e.g. 1000,10000")
    p.add_argument("--target", type=float, help="success probability to reach")
    p.add_argument("--trials", type=int, help="trials per probe")
    p.add_argument("--format", choices=["json", "csv"])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table1", help="per-model rate constants table")
    _add_common(p)
    p.add_argument("--dmax", type=int, help="largest d row (default 10)")
    p.add_argument("--format", choices=["csv", "json"])
    p.set_defaults(func=cmd_table1)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    ns = vars(args)
    try:
        if ns.get("config"):
            _merge_config(ns, _load_config(ns["config"]),
                          commands[ns["command"]])
        return args.func(ns)
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except GroupTestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
