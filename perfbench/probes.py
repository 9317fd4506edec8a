"""Per-layer tracing from outside the program.

The traced benchmark run replaces each layer's public function or method
with a thin wrapper that records one span per call and the call's work
counts.  Nothing under ``src/`` is edited: a module-level function is
rebound under every name a ``repro`` module holds it by (``from x import
f`` binds ``f`` in the importer, so ``repro.fleet.evaluate`` calls its
own ``run_step_batched`` binding, not ``repro.runtime.eventsim``'s), and
a method is rebound on its class.  Spans stay in memory; the run writes
them out once it has ended.

Only the standard library is imported here, so the tracer can time the
program's own import.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

# One monotonic clock for everything: on Linux (and macOS) it is
# system-wide, so the parent's launch instant and the child's spans can
# be compared.
clock = time.monotonic


class Tracer:
    """In-memory span store plus exact work counters for one run."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        #: distinct (route seed, router, fleet size) dispatches
        self.routings: set = set()

    def open(self, layer: str) -> int:
        i = len(self.layers)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str):
        i = self.open(layer)
        try:
            yield
        finally:
            self.close(i)

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, inclusive ``s`` and exclusive ``self_s``.

        Inclusive time counts a layer's outermost spans only, so a layer
        calling itself is not counted twice; self time subtracts every
        child span, whatever its layer, so self times add up.
        """
        n = len(self.layers)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for i in range(n):
            layer = self.layers[i]
            dur = self.ends[i] - self.starts[i]
            row = out[layer]
            row["calls"] += 1
            row["self_s"] += dur - child_time[i]
            p = self.parents[i]
            while p >= 0 and self.layers[p] != layer:
                p = self.parents[p]
            if p < 0:
                row["s"] += dur
        return out

    def write_chrome_trace(self, path: str, origin: float) -> None:
        """Write the spans as Chrome trace events (open in Perfetto)."""
        events = [
            {"name": layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6}
            for layer, start, end in zip(self.layers, self.starts, self.ends)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)


# --------------------------------------------------------------------- #
# work counters, one per probe that has work to count
# --------------------------------------------------------------------- #


def _count_replica_slots(tracer: Tracer, fn, args, kwargs, result) -> None:
    tracer.counts["batched_env.replica_slots"] += args[0].n_replicas


def _count_dispatch(tracer: Tracer, fn, args, kwargs, result) -> None:
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    dispatcher, trace = bound["self"], bound["trace"]
    tracer.counts["dispatch.requests"] += int(trace.arrival_times.size)
    tracer.routings.add(
        (dispatcher.seed, dispatcher.router.name, dispatcher.n_devices)
    )
    if isinstance(result, tuple):  # (sub-traces, failover/overload outcome)
        tracer.counts["dispatch.retries"] += int(result[1].n_retries)


def _count_sub_traces(tracer: Tracer, fn, args, kwargs, result) -> None:
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    tracer.counts["eventsim.kernel.sub_traces"] += len(bound["traces"])


CountHook = Optional[Callable[[Tracer, Callable, tuple, dict, Any], None]]

#: (layer, defining module, function or ``Class.method``, work counter)
PROBES: Tuple[Tuple[str, str, str, CountHook], ...] = (
    ("mdp", "repro.env.model_builder", "build_dpm_model", None),
    ("mdp", "repro.env.model_builder", "DPMModel.solve", None),
    ("mdp", "repro.env.model_builder", "DPMModel.evaluate_policy", None),
    ("batched_env.step", "repro.runtime.batched_env",
     "BatchedSlottedEnv.step", _count_replica_slots),
    ("batched_qdpm.control_step", "repro.runtime.batched_qdpm",
     "BatchedQDPM.control_step", None),
    ("qdpm.control_step", "repro.core.qdpm", "QDPM.control_step", None),
    ("dispatch", "repro.fleet.dispatch", "Dispatcher.dispatch",
     _count_dispatch),
    ("dispatch", "repro.fleet.dispatch", "Dispatcher.dispatch_with_faults",
     _count_dispatch),
    ("dispatch", "repro.fleet.dispatch", "Dispatcher.dispatch_with_overload",
     _count_dispatch),
    ("eventsim.kernel", "repro.runtime.eventsim", "run_step_batched",
     _count_sub_traces),
    ("fleet.report", "repro.fleet.report", "build_fleet_report", None),
    ("workload.trace", "repro.runtime.simsweep", "TraceSpec.realize", None),
    ("workload.faults", "repro.workload.faults", "resolve_fault_schedule",
     None),
    ("verify.invariants", "repro.runtime.verify", "check_seed_run", None),
    ("verify.invariants", "repro.runtime.verify", "check_fleet_report", None),
    ("sweep", "repro.runtime.sweep", "SweepRunner.run_many", None),
    ("sweep", "repro.runtime.grid", "GridRunner.run", None),
    ("sweep", "repro.fleet.sweep", "FleetSweepRunner.run", None),
    ("sweep.chunk", "repro.runtime.sweep", "run_chunk", None),
    ("sweep.chunk", "repro.fleet.sweep", "run_fleet_chunk", None),
    ("analysis.bootstrap", "repro.analysis.bootstrap", "bootstrap_ci", None),
)


def _wrap(fn: Callable, layer: str, tracer: Tracer,
          count: CountHook) -> Callable:
    def traced(*args, **kwargs):
        i = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if count is not None:
            count(tracer, fn, args, kwargs, result)
        return result

    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> Tuple[List[str], Callable[[], None]]:
    """Wrap every probe; returns the bindings replaced and an undo.

    Call after the program is imported: a ``repro`` module imported
    later would bind the unwrapped function.
    """
    undo: List[Tuple[Any, str, Any]] = []
    bindings: List[str] = []
    for layer, module_name, qualname, count in PROBES:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, _wrap(orig, layer, tracer, count))
            undo.append((cls, meth, orig))
            bindings.append(f"{module_name}.{qualname}")
            continue
        orig = getattr(module, qualname)
        traced = _wrap(orig, layer, tracer, count)
        for name, mod in sorted(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, traced)
                    undo.append((mod, attr, orig))
                    bindings.append(f"{name}.{attr}")

    def restore() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return bindings, restore


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run (all but the overhead)."""
    t = tracer.layer_times()  # a layer never called reads as zeros
    c = tracer.counts
    requests = c["dispatch.requests"]
    dispatches = t["dispatch"]["calls"]
    return {
        "import.s": t["import"]["s"],
        "mdp.calls": t["mdp"]["calls"],
        "mdp.s": t["mdp"]["s"],
        "batched_env.step.calls": t["batched_env.step"]["calls"],
        "batched_env.step.s": t["batched_env.step"]["s"],
        "batched_env.replica_slots": c["batched_env.replica_slots"],
        "batched_qdpm.control_step.calls":
            t["batched_qdpm.control_step"]["calls"],
        "batched_qdpm.control_step.self_s":
            t["batched_qdpm.control_step"]["self_s"],
        "qdpm.control_step.calls": t["qdpm.control_step"]["calls"],
        "qdpm.control_step.s": t["qdpm.control_step"]["s"],
        "dispatch.calls": dispatches,
        "dispatch.s": t["dispatch"]["s"],
        "dispatch.requests": requests,
        "dispatch.retries": c["dispatch.retries"],
        "dispatch.us_per_request":
            t["dispatch"]["s"] * 1e6 / requests if requests else 0.0,
        "dispatch.distinct_ratio":
            len(tracer.routings) / dispatches if dispatches else 0.0,
        "dispatch.retry_ratio":
            c["dispatch.retries"] / requests if requests else 0.0,
        "eventsim.kernel.calls": t["eventsim.kernel"]["calls"],
        "eventsim.kernel.sub_traces": c["eventsim.kernel.sub_traces"],
        "eventsim.kernel.s": t["eventsim.kernel"]["s"],
        "fleet.report.s": t["fleet.report"]["s"],
        "workload.trace.s": t["workload.trace"]["s"],
        "workload.faults.s": t["workload.faults"]["s"],
        "verify.invariants.calls": t["verify.invariants"]["calls"],
        "verify.invariants.s": t["verify.invariants"]["s"],
        "sweep.chunks": t["sweep.chunk"]["calls"],
        "sweep.self_s": t["sweep"]["self_s"],
        "sweep.chunk.self_s": t["sweep.chunk"]["self_s"],
        "analysis.bootstrap.calls": t["analysis.bootstrap"]["calls"],
        "analysis.bootstrap.s": t["analysis.bootstrap"]["s"],
        "render.s": t["render"]["s"],
        "trace.coverage": sum(row["self_s"] for row in t.values()) / wall_s,
    }


#: per-layer metrics that count work; two traced runs of one seed must
#: agree on every one of them exactly
COUNT_METRICS = (
    "mdp.calls", "batched_env.step.calls", "batched_env.replica_slots",
    "batched_qdpm.control_step.calls", "qdpm.control_step.calls",
    "dispatch.calls", "dispatch.requests", "dispatch.retries",
    "eventsim.kernel.calls", "eventsim.kernel.sub_traces",
    "verify.invariants.calls", "sweep.chunks", "analysis.bootstrap.calls",
)
