"""One measured run of a benchmark workload, in a fresh process.

``run.py`` launches this script once per measured run with the
monotonic instant it launched it at, so the run's times start where a
CLI user's wait starts: at process launch.  The run imports what
``python -m repro`` imports, builds the workload's config, calls the
experiment function, renders the result, and prints one JSON line.
Only then, outside the timed region, does it check the output against
the program's scalar reference (``--check 1``).

From launch to rendered output the host's speed is sampled
(:mod:`calibrate`); the JSON line carries the run's times both raw
(``raw_*``, less the samples' own time) and divided by the host's mean
slowdown over the run.

With ``--trace 1`` every layer's public functions are wrapped
(:mod:`probes`) before the config is built and unwrapped before the
output check, and the JSON line carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys

import calibrate
import probes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True,
                        help="monotonic instant the process was launched")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None,
                        help="with --trace 1: write the spans here")
    args = parser.parse_args()

    sampler = calibrate.Sampler()
    sampler.start()
    tracer = probes.Tracer()
    with tracer.span("import"):
        import repro.cli  # noqa: F401  (what `python -m repro` imports)
    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    bindings, restore = (probes.install(tracer) if args.trace
                         else ([], lambda: None))
    config = workload.config(args.seed, bool(args.tiny))
    t_setup, spent_setup = probes.clock(), sampler.spent
    result = workload.run(config)
    t_run, spent_run = probes.clock(), sampler.spent
    with tracer.span("render"):
        text = result.render()
    t_done, spent_done = probes.clock(), sampler.spent
    sampler.stop()
    restore()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # the phases' times less the samples taken in them
    wall_s = t_done - args.launch - spent_done
    setup_s = t_setup - args.launch - spent_setup
    run_s = t_run - t_setup - (spent_run - spent_setup)
    slowdown = sampler.slowdown()
    work = int(workload.work(config, result))
    out = {
        "wall_s": wall_s / slowdown,
        "setup_s": setup_s / slowdown,
        "work_per_s": work / run_s * slowdown,
        "raw_wall_s": wall_s,
        "raw_setup_s": setup_s,
        "raw_work_per_s": work / run_s,
        "run_s": run_s,
        "slowdown": slowdown,
        "samples": len(sampler.samples),
        "work": work,
        "work_name": workload.work_name,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "fingerprint": workload.fingerprint(result),
        "render_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "numpy": np.__version__,
    }
    if workload.optimality_gap is not None:
        out["optimality_gap"] = float(workload.optimality_gap(result))
    if args.trace:
        out["layers"] = probes.layer_metrics(tracer, t_done - args.launch)
        out["bindings"] = bindings
        if args.spans_out:
            tracer.write_chrome_trace(args.spans_out, origin=args.launch)
    if args.check:
        t_check = probes.clock()
        workload.check(config, result)
        out["check_s"] = probes.clock() - t_check
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
