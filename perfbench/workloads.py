"""The benchmark's workloads: which CLI protocol each runs, its inputs as
a function of the seed, the work it does, and how its output is checked.

Every workload calls the public experiment function its CLI command
calls (``fig1`` -> :func:`run_fig1`, ``fleet-sweep`` ->
:func:`run_fleet_sweep`), serially (``n_jobs=1``), at the command's
``--quick`` sizes; the seed replaces the config's base seed.  Why each
workload exists is recorded in ``BENCHMARK.json``.  Between them they
cover every layer: ``learn_single`` the slotted engine and the MDP
solves; ``fleet`` and ``fleet_faults`` dispatch, the event kernel, the
report fold, trace generation and the bootstrap CIs, ``fleet_faults``
on the fault-aware dispatch path and with fault generation, which
``fleet`` bypasses.  The learning and fleet workloads leave each
other's layers idle.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.experiments import Fig1Config, FleetConfig, run_fig1, run_fleet_sweep
from repro.experiments.config import SweepConfig
from repro.fleet.sweep import reference_fleet_chunk
from repro.runtime import RolloutSpec
from repro.runtime.checkpoint import spec_hash
from repro.runtime.sweep import reference_seed_runs
from repro.runtime.verify import shadow_verify_chunks
from repro.workload import ConstantRate


class CheckFailed(RuntimeError):
    """The program's output disagrees with its scalar reference."""


@dataclass(frozen=True)
class Workload:
    #: ``(seed, tiny) -> config``; ``tiny`` shrinks it for the self-test
    config: Callable[[int, bool], Any]
    #: the experiment function the CLI command calls
    run: Callable[[Any], Any]
    #: name of the work rate printed for this workload
    work_name: str
    #: ``(config, result) -> work units`` (replica-slots or requests)
    work: Callable[[Any, Any], int]
    #: ``(config, result) -> None``; raises :class:`CheckFailed`
    check: Callable[[Any, Any], None]
    #: ``result -> hex digest`` of every number the result carries
    fingerprint: Callable[[Any], str]
    #: ``result -> payoff/slot`` the learner leaves on the table
    optimality_gap: Optional[Callable[[Any], float]] = None


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


# --------------------------------------------------------------------- #
# learn_single: the Fig. 1 protocol at its single default seed (B = 1)
# --------------------------------------------------------------------- #


def _fig1_config(seed: int, tiny: bool) -> Fig1Config:
    return Fig1Config(
        n_slots=2_000 if tiny else 30_000,
        record_every=500 if tiny else 1_000,
        sweep=SweepConfig(n_seeds=1, n_jobs=1),
        seed=seed,
    )


def _fig1_check(config: Fig1Config, result) -> None:
    """The lead seed re-run on the scalar QDPM stack must match bit for
    bit (the recipe ``SweepRunner(verify_fraction=...)`` uses)."""
    spec = RolloutSpec.from_env_config(
        config.env,
        ConstantRate(config.arrival_rate),
        config.n_slots,
        record_every=config.record_every,
        learning_rate=config.learning_rate,
        epsilon=config.epsilon,
    )
    (ref,) = reference_seed_runs(spec, [config.seed])
    n = len(result.online_reward)
    for field, got, want in (
        ("online_reward", result.online_reward, ref.history.reward[:n]),
        ("online_saving", result.online_saving, ref.history.saving_ratio[:n]),
    ):
        if not np.array_equal(got, want):
            raise CheckFailed(f"fig1 {field} differs from the scalar QDPM")
    if len(result.snapshot_reward) != n:
        raise CheckFailed("fig1 snapshot count differs from record count")


def _fig1_fingerprint(result) -> str:
    return _digest(
        result.online_reward, result.online_saving, result.snapshot_reward,
        result.snapshot_saving, result.optimal_reward,
        result.optimal_soft_reward, result.final_policy_agreement,
        result.convergence_slot,
    )


# --------------------------------------------------------------------- #
# fleet, fleet_faults: the FLEET-SWEEP grid, fault-free and under faults
# and overload control
# --------------------------------------------------------------------- #


def _fleet_config(seed: int, tiny: bool) -> FleetConfig:
    return FleetConfig(
        duration=40.0 if tiny else 500.0,
        n_traces=2 if tiny else 4,
        chunk_size=4,
        n_jobs=1,
        seed=seed,
    )


def _fleet_faults_config(seed: int, tiny: bool) -> FleetConfig:
    # EXPERIMENTS.md's overload scenario, kept fail-stop (no brownout)
    return dataclasses.replace(
        _fleet_config(seed, tiny),
        mtbf=120.0, mttr=15.0, slo=30.0, breaker=3, retry_budget=16.0,
    )


def _fleet_requests(config: FleetConfig, result) -> int:
    return sum(r.n_offered for c in result.cells for r in c.reports)


def _fleet_check(config: FleetConfig, result) -> None:
    """One sampled (cell, seed-chunk) unit re-run on the scalar
    dispatcher must match field for field, as ``--verify`` does."""
    spec = result.spec
    seeds = spec.seeds()
    chunks = [seeds[i:i + config.chunk_size]
              for i in range(0, len(seeds), config.chunk_size)]
    tasks, runs = [], []
    cells = iter(result.cells)
    for n_devices in spec.fleet_sizes:
        for router in spec.routers:
            for policy in spec.policies:
                cell = next(cells, None)
                if cell is None or (cell.n_devices, cell.router,
                                    cell.policy) != (n_devices, router,
                                                     policy.label):
                    raise CheckFailed("fleet result cells out of grid order")
                offset = 0
                for chunk in chunks:
                    tasks.append((spec.device, int(n_devices), router, policy,
                                  spec.trace, spec.service_time, chunk,
                                  spec.faults, spec.failover, spec.overload))
                    runs.append(cell.reports[offset:offset + len(chunk)])
                    offset += len(chunk)
    try:
        shadow_verify_chunks(
            tasks, runs, 1.0 / len(tasks),
            spec_hash(spec, config.chunk_size),
            reference_fleet_chunk, "run_fleet scalar dispatcher",
            seeds_of=lambda task: task[6],
            ignore=("device_reports", "latencies"),
        )
    except RuntimeError as exc:
        raise CheckFailed(f"fleet: {exc}") from exc


def _fleet_fingerprint(result) -> str:
    parts = []
    for c in result.cells:
        for r in c.reports:
            parts.append(tuple(
                (f.name, getattr(r, f.name))
                for f in dataclasses.fields(r) if f.name != "device_reports"
            ))
    return _digest(*parts)


WORKLOADS = {
    "learn_single": Workload(
        config=_fig1_config, run=run_fig1, work_name="slots_per_s",
        work=lambda config, result: config.sweep.n_seeds * config.n_slots,
        check=_fig1_check, fingerprint=_fig1_fingerprint,
        optimality_gap=lambda result: (
            result.optimal_soft_reward - float(result.snapshot_reward[-1])
        ),
    ),
    "fleet": Workload(
        config=_fleet_config, run=run_fleet_sweep,
        work_name="requests_per_s", work=_fleet_requests,
        check=_fleet_check, fingerprint=_fleet_fingerprint,
    ),
    "fleet_faults": Workload(
        config=_fleet_faults_config, run=run_fleet_sweep,
        work_name="requests_per_s", work=_fleet_requests,
        check=_fleet_check, fingerprint=_fleet_fingerprint,
    ),
}
