"""Fleet-scale multi-device simulation with request dispatch.

The single-device reproduction answers "how should one device sleep?";
this subsystem answers it for a cluster: N replicas of one device model
share a high-rate arrival stream behind a :class:`Dispatcher`, whose
:class:`Router` decides which replica serves each request.  The
resulting per-device sub-traces run on the existing single-device
engines (the vectorized busy-period kernel of
:mod:`repro.runtime.eventsim`, scalar event-loop fallback), and a
:class:`FleetReport` folds the per-device results into fleet energy,
per-device residency, and exact tail latency over the merged completion
stream.  :class:`FleetSweepRunner` fans
(fleet size x router x policy x trace seed) grids across the executor
layer with bootstrap-CI aggregation — the `fleet-sweep` CLI entry.

Layering mirrors the rest of the repo: every router is vectorized and
pinned bit-identical to its scalar reference loop — stateless routers
via closed-form ``route_batch``, queue-aware routers via the epoch-
advance ``route_step_batch`` (dense per-device backlog arrays advanced
one arrival per round).  Two fleet engines sit on top: ``"auto"``
(:func:`run_fleet_batch`, which the sweep runs per seed chunk) routes
each trace once, runs stateful batchable policies over every
(seed x device) sub-trace in one lock-step kernel call and simulates
stateless policies per sub-trace on the busy-period kernel; ``"scalar"``
is the reference dispatcher every fast path is pinned against.
"""

from .dispatch import (
    FAILOVER_POLICIES,
    ROUTERS,
    SHED_BUDGET,
    SHED_DEADLINE,
    SHED_NONE,
    BreakerConfig,
    Dispatcher,
    FailoverConfig,
    JoinShortestQueueRouter,
    OverloadConfig,
    OverloadOutcome,
    PowerAwareRouter,
    RandomRouter,
    RetryBudgetConfig,
    RouteContext,
    Router,
    RoundRobinRouter,
    make_router,
    route_with_overload,
    route_with_overload_step,
)
from .evaluate import ENGINES, run_fleet, run_fleet_batch
from .report import FleetReport, build_fleet_report
from .sweep import (
    FAULT_SEED_OFFSET,
    ROUTE_SEED_OFFSET,
    FleetCellResult,
    FleetSweepResult,
    FleetSweepRunner,
    FleetSweepSpec,
    run_fleet_chunk,
)

__all__ = [
    "Router",
    "RouteContext",
    "RoundRobinRouter",
    "RandomRouter",
    "JoinShortestQueueRouter",
    "PowerAwareRouter",
    "ROUTERS",
    "make_router",
    "Dispatcher",
    "FailoverConfig",
    "FAILOVER_POLICIES",
    "BreakerConfig",
    "RetryBudgetConfig",
    "OverloadConfig",
    "OverloadOutcome",
    "SHED_NONE",
    "SHED_DEADLINE",
    "SHED_BUDGET",
    "route_with_overload",
    "route_with_overload_step",
    "ENGINES",
    "run_fleet",
    "run_fleet_batch",
    "FleetReport",
    "build_fleet_report",
    "FleetSweepSpec",
    "FleetCellResult",
    "FleetSweepResult",
    "FleetSweepRunner",
    "run_fleet_chunk",
    "ROUTE_SEED_OFFSET",
    "FAULT_SEED_OFFSET",
]
