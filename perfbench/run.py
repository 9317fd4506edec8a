"""End-to-end benchmark of the reproduction's CLI protocols.

Run from the repository root (nothing to build; numpy and scipy must be
importable)::

    python3 perfbench/run.py --workload learn_single --seed 1 --seconds 28 --trace 0

Each measured run is a fresh ``python3 perfbench/child.py`` process
that calls the experiment function the matching CLI command calls, with
a config built from the workload and ``--seed``, and renders the result.
Runs repeat serially until ``--seconds`` is spent (at least
``MIN_RUNS``); the reported figures are medians over runs.  The
workloads and their reasons are listed in ``BENCHMARK.json``.

Times are in seconds of the reference host: each run samples the host's
speed while it runs (:mod:`calibrate`) and divides its times by the
host's mean slowdown over them, so a spell of contention from other
tenants of a shared host does not read as a change of the program.
The record keeps each run's raw figures (``raw_*``) and its
``slowdown``.  Per-layer times are raw.

``--trace 0`` reports the end-to-end metrics from untraced runs.
``--trace 1`` adds two traced runs, whose spans give the per-layer
metrics (medians of the two; every work count must agree exactly) and
whose wall time against the untraced runs gives ``trace.overhead``.

Every run's output is checked outside its timed region: the first run
re-runs one sampled chunk on the program's scalar reference, and every
later run must reproduce the first run's result bit for bit.  A run
fails on a non-zero exit, an exception (including an invariant
violation raised by the runners) or a failed check.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` runs, and ``metrics`` (name -> value and
unit).  The lines before it print every metric by name with its unit,
plus the error rate and the optimality gap; the full record (host,
seed, reason, every run) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

# standard library only: this process never imports the program
import calibrate
import probes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: untraced runs per invocation, however long each takes
MIN_RUNS = 3
#: traced runs per ``--trace 1`` invocation; two, so counts can be compared
TRACED_RUNS = 2
#: the whole invocation must end within 180 s; runs are cut at this
DEADLINE_S = 170.0
#: stop starting runs once the invocation has spent this long
BUDGET_CAP_S = 150.0


def fail(message: str) -> None:
    """Exit without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def launch(args, kind: str, check: bool, index: int,
           deadline: float) -> Dict[str, Any]:
    """One measured run; returns its JSON line plus ``ok`` and timing."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if kind == "traced" else "0",
        "--check", "1" if check else "0",
        "--tiny", "1" if args.tiny else "0",
    ]
    if kind == "traced":
        cmd += ["--spans-out", os.path.join(
            OUT_DIR, f"spans-{args.workload}-{index}.json")]
    started = time.monotonic()
    cmd += ["--launch", repr(started)]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        return {"kind": kind, "ok": False, "error": "timeout",
                "elapsed": time.monotonic() - started}
    elapsed = time.monotonic() - started
    run: Dict[str, Any] = {"kind": kind, "ok": False, "elapsed": elapsed}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        run["error"] = f"exit {proc.returncode}: " + " | ".join(tail)
        return run
    try:
        run.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    except (ValueError, IndexError):
        run["error"] = "no result line"
        return run
    run["ok"] = True
    return run


def plan_done(args, runs: List[Dict[str, Any]], started: float) -> bool:
    """True once no further untraced run fits the time budget."""
    elapsed = time.monotonic() - started
    untraced = sum(r["kind"] == "untraced" for r in runs)
    if untraced < (2 if args.trace else MIN_RUNS):
        return False
    if elapsed >= min(args.seconds, BUDGET_CAP_S):
        return True
    typical = statistics.median(r["elapsed"] - r.get("check_s", 0.0)
                                for r in runs)
    return elapsed + typical > args.seconds


def validate(runs: List[Dict[str, Any]]) -> List[str]:
    """Problems with the runs: failures, outputs that differ from the
    checked first run, and work counts that differ between traced runs.
    A run whose output differs is marked failed."""
    problems = [f"run {i} ({r['kind']}): {r['error']}"
                for i, r in enumerate(runs) if not r["ok"]]
    ref = runs[0]
    if not ref["ok"]:
        problems.append("run 0 carried the output check and failed")
    for i, run in enumerate(runs[1:], start=1):
        if ref["ok"] and run["ok"] and (
            run["fingerprint"] != ref["fingerprint"]
            or run["render_sha256"] != ref["render_sha256"]
            or run["work"] != ref["work"]
        ):
            run["ok"] = False
            run["error"] = "output differs from the checked run"
            problems.append(f"run {i} ({run['kind']}): {run['error']}")
    traced = [r for r in runs if r["kind"] == "traced" and r["ok"]]
    if traced:
        first = traced[0]["layers"]
        for run in traced[1:]:
            for name in probes.COUNT_METRICS:
                if run["layers"][name] != first[name]:
                    problems.append(
                        f"work count {name} differs between traced runs: "
                        f"{first[name]} vs {run['layers'][name]}")
        seen = (first["batched_env.replica_slots"]
                if traced[0]["work_name"] == "slots_per_s"
                else first["dispatch.requests"])
        if seen != traced[0]["work"]:
            problems.append(f"traced work count {seen} != result's "
                            f"{traced[0]['work']}")
    return problems


def quartiles(values: List[float]) -> Dict[str, float]:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def print_report(record: Dict[str, Any], ref: Dict[str, Any],
                 wanted: List[Dict[str, str]]) -> None:
    """The human-readable lines: every metric by name with its unit."""
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}: {record['attempted']} runs, "
          f"{record['failed']} failed")
    print("host: " + " ".join(f"{k}={v}" for k, v in record["host"].items()))
    print(f"why: {record['why']}")
    summary = record["summary"]
    work_name = ref.get("work_name", "work_per_s")
    for key, label, unit in (("wall_s", "wall_s", "s"),
                             ("setup_s", "setup_s", "s"),
                             ("work_per_s", work_name, "1/s"),
                             ("peak_rss_mb", "peak_rss_mb", "MB"),
                             ("raw_wall_s", "raw wall_s", "s"),
                             ("slowdown", "host slowdown", "ratio")):
        if key in summary:
            s = summary[key]
            spread = (f" [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]"
                      if "q1" in s else "")
            print(f"  {label:<16} {s['median']:<12.6g} {unit:<5} "
                  f"median of {s['n']}{spread}")
    print(f"  (times are raw times divided by the host slowdown: mean "
          f"sampled loop time / {calibrate.REFERENCE_S} s)")
    print(f"  {'error_rate':<16} {record['error_rate']:<12.6g} "
          f"{'ratio':<5} {record['failed']}/{record['attempted']} runs failed")
    if record["optimality_gap"] is not None:
        print(f"  {'optimality_gap':<16} {record['optimality_gap']:<12.6g} "
              f"payoff/slot (optimum minus learned; fixed by the seed)")
    if "check_s" in ref:
        print(f"output check: sampled chunk matches the scalar reference "
              f"({ref['check_s']:.2f} s, untimed)")
    if record["trace"]:
        for spec in wanted:
            if spec["name"] in record["metrics"]:
                print(f"  {spec['name']:<34} "
                      f"{record['metrics'][spec['name']]['value']:<12.6g} "
                      f"{spec['unit']}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-test only)")
    args = parser.parse_args()

    bench = load_benchmark()
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in whys:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(whys)}")
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail(f"no program sources under {os.path.join(ROOT, 'src')}")
    # compile and cache the program's bytecode, as any earlier CLI run
    # would have, so the first measured run pays no compilation
    invoked = time.monotonic()
    warm = subprocess.run(
        [sys.executable, "-c", "import repro.cli"], env=child_env(),
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    if warm.returncode != 0:
        fail(f"cannot import the program: {warm.stderr.strip()[-500:]}")
    os.makedirs(OUT_DIR, exist_ok=True)

    started = time.monotonic()
    kinds = ["untraced", "traced"] * TRACED_RUNS if args.trace else []
    runs: List[Dict[str, Any]] = []
    while kinds or not plan_done(args, runs, started):
        kind = kinds.pop(0) if kinds else "untraced"
        runs.append(launch(args, kind, check=not runs, index=len(runs),
                           deadline=invoked + DEADLINE_S))

    problems = validate(runs)
    ok_untraced = [r for r in runs if r["ok"] and r["kind"] == "untraced"]
    ok_traced = [r for r in runs if r["ok"] and r["kind"] == "traced"]
    n_failed = sum(not r["ok"] for r in runs)
    correct = not problems

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    summary: Dict[str, Dict[str, float]] = {}
    values: Dict[str, float] = {}
    if ok_untraced:
        for name in ("wall_s", "setup_s", "work_per_s", "peak_rss_mb",
                     "raw_wall_s", "raw_setup_s", "raw_work_per_s",
                     "slowdown"):
            summary[name] = quartiles([r[name] for r in ok_untraced])
        for name in ("wall_s", "setup_s", "work_per_s", "peak_rss_mb"):
            values[name] = summary[name]["median"]
    if ok_traced and ok_untraced:
        for name in ok_traced[0]["layers"]:
            # counts agree across traced runs (validate), so stay integers
            values[name] = (ok_traced[0]["layers"][name]
                            if name in probes.COUNT_METRICS
                            else statistics.median(
                                r["layers"][name] for r in ok_traced))
        values["trace.overhead"] = (
            statistics.median(r["wall_s"] for r in ok_traced)
            / values["wall_s"])
    metrics = {}
    for spec in wanted:
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]],
                                     "unit": spec["unit"]}
        elif correct:
            correct = False
            problems.append(f"metric {spec['name']} was not measured")

    ref = next((r for r in runs if r["ok"]), {})
    host = {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": ref.get("numpy"),
    }
    record = {
        "workload": args.workload, "why": whys[args.workload],
        "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "tiny": args.tiny, "host": host, "correct": correct,
        "attempted": len(runs), "failed": n_failed,
        "error_rate": n_failed / len(runs), "problems": problems,
        "optimality_gap": ref.get("optimality_gap"),
        "summary": summary, "metrics": metrics,
        "bindings": ok_traced[0]["bindings"] if ok_traced else [],
        "runs": [{k: v for k, v in r.items() if k != "bindings"}
                 for r in runs],
    }
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-tiny" if args.tiny else ""))
    with open(os.path.join(OUT_DIR, name + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print_report(record, ref, wanted)
    print(json.dumps({"correct": correct, "attempted": len(runs),
                      "failed": n_failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
