"""One fleet cell end to end: dispatch, simulate each device, aggregate.

:func:`run_fleet` is the fleet counterpart of
:func:`~repro.runtime.eventsim.simulate_trace`: route the shared arrival
stream across N device replicas, evaluate every sub-trace on the
single-device engine, and fold the per-device reports into a
:class:`~repro.fleet.report.FleetReport`.

Two engines, mirroring the repo's batched/scalar split:

- ``engine="auto"`` — the fast path, :func:`run_fleet_batch` on one
  trace.  Routers assign with their vectorized paths (``route_batch``
  for stateless routers, ``route_step_batch`` for the queue-aware
  ones).  Stateful batchable policies (adaptive, predictive) then run
  every sub-trace of the cell — all devices of every seed — in one
  lock-step :func:`~repro.runtime.eventsim.run_step_batched` call;
  stateless policies run each sub-trace on the per-trace busy-period
  kernel (:func:`~repro.runtime.eventsim.simulate_trace`), and policies
  with neither batch hook on the scalar event loop it falls back to.
- ``engine="scalar"`` — the reference dispatcher: the router's scalar
  assignment loop plus the scalar :class:`~repro.sim.DPMSimulator` event
  loop per device.  tests/test_fleet_sweep.py pins the fast engine
  against it field-for-field (rel tol <= 1e-9) on the fleet aggregate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..device import PowerStateMachine
from ..runtime.eventsim import run_step_batched, simulate_trace
from ..runtime.telemetry import TELEMETRY
from ..sim.policy_api import EventPolicy
from ..sim.simulator import DPMSimulator
from ..workload.faults import resolve_fault_schedule
from ..workload.trace import Trace
from .dispatch import Dispatcher, OverloadConfig, Router
from .report import FleetReport, build_fleet_report

#: engines accepted by :func:`run_fleet`
ENGINES = ("auto", "scalar")


def _route(
    dispatcher: Dispatcher,
    trace: Trace,
    faults,
    fault_seed: int,
    overload: Optional[OverloadConfig],
    vectorized: bool = True,
) -> Tuple[List[Trace], dict]:
    """Route one trace; returns its sub-traces and the fault and
    overload fields of its :func:`build_fleet_report` call.

    A cell with neither ``faults`` nor ``overload`` takes plain
    :meth:`Dispatcher.dispatch`; every other cell runs the fault-aware
    engines under ``overload`` (plain failover when None).
    """
    n_offered = int(trace.arrival_times.size)
    if faults is None and overload is None:
        return (dispatcher.dispatch(trace, vectorized=vectorized),
                {"n_offered": n_offered})
    schedule = resolve_fault_schedule(
        faults, dispatcher.n_devices, trace.duration, seed=fault_seed,
    )
    sub_traces, outcome = dispatcher.dispatch_with_overload(
        trace, schedule,
        overload=overload if overload is not None else OverloadConfig(),
        vectorized=vectorized,
    )
    return sub_traces, {
        "availability": 1.0 if schedule is None
        else float(schedule.availability().mean()),
        "n_retries": outcome.n_retries,
        "n_dropped": outcome.n_dropped,
        "failover_latency_inflation": outcome.latency_inflation,
        "n_shed": outcome.n_shed,
        "n_budget_shed": outcome.n_budget_shed,
        "goodput": outcome.goodput,
        "slo_attainment": outcome.slo_attainment,
        "n_breaker_trips": outcome.n_breaker_trips,
        "n_offered": n_offered,
    }


def run_fleet(
    device: PowerStateMachine,
    policy: EventPolicy,
    trace: Trace,
    router: Router,
    n_devices: int,
    service_time: float = 0.5,
    oracle: bool = False,
    route_seed: int = 0,
    engine: str = "auto",
    keep_latencies: bool = True,
    faults=None,
    fault_seed: Optional[int] = None,
    overload: Optional[OverloadConfig] = None,
) -> FleetReport:
    """Simulate ``n_devices`` replicas of ``device`` sharing ``trace``.

    Each replica runs ``policy`` independently (the policy object is
    reused sequentially; every engine resets it per run, identical to
    how sweep cells share policy instances).  Deterministic given
    ``(trace, route_seed)`` for either engine; ``"auto"`` is
    :func:`run_fleet_batch` on the single trace.

    ``faults`` injects device failures: a
    :class:`~repro.workload.FaultSchedule` or a
    :class:`~repro.workload.FaultProcess` (realized over the trace
    window with ``fault_seed``, defaulting to ``route_seed``).
    ``overload`` (:class:`~repro.fleet.dispatch.OverloadConfig`) is the
    single fault configuration: the failover shape plus circuit
    breakers, a fleet-wide retry budget and deadline shedding.  With
    either given, routing goes through the fault-aware engines — the
    vectorized epoch-advance path for ``auto``, the scalar
    reference loop for ``scalar``, pinned bit-identical — under
    ``overload`` (default ``OverloadConfig()``: plain failover), with
    brownout intervals inflating booked demands.  The report then
    carries availability, retry/drop/shed counts, dispatch-delay
    inflation, goodput, SLO attainment and breaker trips.  With
    neither, the cell takes the plain router path.

    The fleet quantiles always merge the exact per-device completion
    streams; ``keep_latencies=False`` drops the raw arrays from the
    retained per-device reports *after* that merge (the fleet sweep
    uses it so worker results pickle small).
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "auto":
        return run_fleet_batch(
            device, policy, [trace], router, n_devices,
            service_time=service_time, oracle=oracle,
            route_seeds=[route_seed], keep_latencies=keep_latencies,
            faults=faults,
            fault_seeds=None if fault_seed is None else [fault_seed],
            overload=overload,
        )[0]
    dispatcher = Dispatcher(
        router, n_devices, device, service_time=service_time, seed=route_seed,
    )
    with TELEMETRY.span("route", cat="fleet", engine=engine,
                        n_devices=n_devices):
        sub_traces, fault_kwargs = _route(
            dispatcher, trace, faults,
            route_seed if fault_seed is None else int(fault_seed),
            overload, vectorized=False,
        )
    with TELEMETRY.span("kernel", cat="fleet", engine=engine,
                        n_traces=len(sub_traces)):
        reports = [
            DPMSimulator(device, policy,
                         service_time=service_time, oracle=oracle).run(sub)
            for sub in sub_traces
        ]
    with TELEMETRY.span("report", cat="fleet", n_devices=n_devices):
        return build_fleet_report(
            router=dispatcher.router.name,
            policy=policy.name,
            home_power=device.state(device.initial_state).power,
            reports=reports,
            keep_latencies=keep_latencies,
            **fault_kwargs,
        )


def run_fleet_batch(
    device: PowerStateMachine,
    policy: EventPolicy,
    traces: Sequence[Trace],
    router: Router,
    n_devices: int,
    service_time: float = 0.5,
    oracle: bool = False,
    route_seeds: Optional[Sequence[int]] = None,
    keep_latencies: bool = True,
    faults=None,
    fault_seeds: Optional[Sequence[int]] = None,
    overload: Optional[OverloadConfig] = None,
) -> List[FleetReport]:
    """R seeded fleet runs of one cell: route each trace once, then
    simulate every per-device sub-trace.

    The fast engine behind ``engine="auto"`` and the fleet sweep.  Every
    trace is dispatched once with the router's vectorized path.  For a
    stateful batchable policy (step hooks) the R x N sub-traces are
    flattened into *one* lock-step
    :func:`~repro.runtime.eventsim.run_step_batched` call; when that
    kernel declines (a stateless policy, a policy with neither batch
    hook, a costly wait-state park) each already-routed sub-trace runs
    on :func:`~repro.runtime.eventsim.simulate_trace` — the per-trace
    busy-period kernel, or the scalar event loop it falls back to.
    Each sub-trace's report is a pure function of its own trace, so
    per-seed fleet reports are independent of which seeds share the
    batch — the chunking-invariance guarantee the sweep runner relies
    on.

    ``route_seeds`` defaults to 0 for every trace, matching
    :func:`run_fleet`'s default; with ``faults`` given, ``fault_seeds``
    (defaulting to the route seeds) realize a
    :class:`~repro.workload.FaultProcess` independently per trace, and
    each sub-trace carries its failover-delayed dispatch instants —
    per-seed reports remain pure functions of their own
    ``(trace, route_seed, fault_seed)``.  ``faults`` and ``overload``
    select the routing path exactly as in :func:`run_fleet`.
    """
    traces = list(traces)
    if not traces:
        return []
    if route_seeds is None:
        route_seeds = [0] * len(traces)
    route_seeds = [int(s) for s in route_seeds]
    if len(route_seeds) != len(traces):
        raise ValueError(
            f"route_seeds length {len(route_seeds)} != "
            f"traces length {len(traces)}"
        )
    if fault_seeds is None:
        fault_seeds = route_seeds
    fault_seeds = [int(s) for s in fault_seeds]
    if len(fault_seeds) != len(traces):
        raise ValueError(
            f"fault_seeds length {len(fault_seeds)} != "
            f"traces length {len(traces)}"
        )
    router_name = None
    sub_traces: List[Trace] = []
    fault_kwargs: List[dict] = []
    with TELEMETRY.span("route", cat="fleet", engine="auto",
                        n_devices=n_devices, n_traces=len(traces)):
        for trace, seed, fseed in zip(traces, route_seeds, fault_seeds):
            dispatcher = Dispatcher(
                router, n_devices, device,
                service_time=service_time, seed=seed,
            )
            router_name = dispatcher.router.name
            subs, kwargs = _route(dispatcher, trace, faults, fseed, overload)
            sub_traces.extend(subs)
            fault_kwargs.append(kwargs)
    with TELEMETRY.span("kernel", cat="fleet", engine="auto",
                        n_traces=len(sub_traces)):
        # simulate_traces_batch spelled out: perfbench's kernel probe
        # rebinds this module's run_step_batched
        reports = run_step_batched(
            device, policy, sub_traces,
            service_time=service_time, oracle=oracle,
        )
        if reports is None:
            reports = [
                simulate_trace(device, policy, sub,
                               service_time=service_time, oracle=oracle)
                for sub in sub_traces
            ]
    home_power = device.state(device.initial_state).power
    with TELEMETRY.span("report", cat="fleet", n_devices=n_devices,
                        n_reports=len(traces)):
        return [
            build_fleet_report(
                router=router_name,
                policy=policy.name,
                home_power=home_power,
                reports=reports[r * n_devices:(r + 1) * n_devices],
                keep_latencies=keep_latencies,
                **fault_kwargs[r],
            )
            for r in range(len(traces))
        ]
