"""Self-test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

For each workload in ``BENCHMARK.json`` it runs ``run.py --tiny`` with
``--trace 0`` and ``--trace 1`` and asserts that the result line is
correct and carries exactly the metrics ``BENCHMARK.json`` lists, each
with its unit; that the printed lines name every end-to-end metric with
its unit; and that the probes rebound the functions under the names
their callers look up.  Last, it runs the benchmark in a directory that
holds only ``BENCHMARK.json`` and ``perfbench/`` and asserts that it
fails without a result line.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: end-to-end metrics printed by name, with their units, per workload
PRINTED = {
    "learn": (("wall_s", "s"), ("setup_s", "s"), ("slots_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("error_rate", "ratio"),
              ("optimality_gap", "payoff/slot")),
    "fleet": (("wall_s", "s"), ("setup_s", "s"), ("requests_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("error_rate", "ratio")),
}

#: bindings a traced run must have replaced (``from x import f`` copies)
BINDINGS = (
    "repro.fleet.evaluate.run_step_batched",
    "repro.fleet.sweep.bootstrap_ci",
    "repro.runtime.sweep.bootstrap_ci",
    "repro.runtime.grid.run_chunk",
    "repro.runtime.grid.build_dpm_model",
    "repro.experiments.fig1_convergence.build_dpm_model",
    "repro.fleet.sweep.check_fleet_report",
    "repro.runtime.sweep.check_seed_run",
    "repro.fleet.evaluate.resolve_fault_schedule",
    "repro.fleet.evaluate.build_fleet_report",
    "repro.runtime.batched_env.BatchedSlottedEnv.step",
    "repro.fleet.dispatch.Dispatcher.dispatch_with_overload",
)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180,
    )


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for spec in bench["workloads"]:
        name = spec["name"]
        for trace in (0, 1):
            proc = run_bench(name, trace)
            lines = proc.stdout.strip().splitlines()
            label = f"{name} --trace {trace}"
            check(proc.returncode == 0 and lines,
                  f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}"
                  f"{proc.stdout[-2000:]}")
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{label}: result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label}: not correct")
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            got = result["metrics"]
            check(set(got) == {m["name"] for m in wanted},
                  f"{label}: metrics {sorted(got)}")
            for m in wanted:
                value = got[m["name"]]
                check(value["unit"] == m["unit"],
                      f"{label}: unit of {m['name']}")
                check(isinstance(value["value"], (int, float))
                      and math.isfinite(value["value"]),
                      f"{label}: value of {m['name']}")
            kind = "learn" if name.startswith("learn") else "fleet"
            for metric, unit in PRINTED[kind]:
                pattern = rf"^\s+{re.escape(metric)}\s+\S+\s+{re.escape(unit)}\s"
                check(any(re.match(pattern, line) for line in lines),
                      f"{label}: no printed line for {metric} [{unit}]")
            if trace:
                record_path = os.path.join(
                    OUT_DIR, f"{name}-seed5-trace1-tiny.json")
                with open(record_path) as fh:
                    record = json.load(fh)
                missing = [b for b in BINDINGS if b not in record["bindings"]]
                check(not missing, f"{label}: bindings not wrapped {missing}")
                check(record["host"]["cpu_count"] and record["host"]["numpy"]
                      and record["why"] == spec["why"],
                      f"{label}: record lacks host block or reason")
            print(f"ok  {label}")

    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for entry in os.listdir(HERE):
        if entry.endswith(".py"):
            shutil.copy(os.path.join(HERE, entry),
                        os.path.join(bare, "perfbench"))
    proc = run_bench(bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "a directory without the program must fail without a result")
    print("ok  fails without the program's sources")
    print("selftest passed")


if __name__ == "__main__":
    main()
