"""ChunkedSweep: the one driver behind every sweep runner.

The runners share their execution knobs, their invariant pass and its
diagnostics bundle through :class:`~repro.runtime.chunked.ChunkedSweep`;
these tests pin that every runner gets the same contract.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.fleet.sweep as fleet_sweep_mod
import repro.runtime.grid as grid_mod
import repro.runtime.simsweep as simsweep_mod
import repro.runtime.sweep as sweep_mod
from repro.baselines import AlwaysOn, FixedTimeout
from repro.fleet import FleetSweepRunner, FleetSweepSpec
from repro.runtime import (
    GridRunner,
    GridSpec,
    PolicySpec,
    RolloutSpec,
    SimSweepRunner,
    SimSweepSpec,
    SweepRunner,
    TraceSpec,
)
from repro.runtime.chunked import cell_reports, split_chunks
from repro.runtime.verify import InvariantViolation
from repro.workload import ConstantRate, Exponential

ROLLOUT = RolloutSpec(
    schedule=ConstantRate(0.15), n_slots=400, record_every=100,
    queue_capacity=6,
)
POLICIES = (
    PolicySpec("always_on", AlwaysOn()),
    PolicySpec("timeout", FixedTimeout()),
)
SIM = SimSweepSpec(
    devices=("mobile_hdd",), traces=(TraceSpec("exp", Exponential(0.1), 200.0),),
    policies=POLICIES, n_traces=3, seed=5, service_time=0.3,
)
FLEET = FleetSweepSpec(
    device="mobile_hdd", fleet_sizes=(2,), routers=("round_robin",),
    policies=POLICIES, trace=TraceSpec("exp", Exponential(0.6), 150.0),
    n_traces=3, seed=5, service_time=0.4,
)


def _nan_first(chunk_fn, field):
    """Wrap a chunk function so its first report carries a NaN ``field``."""
    def corrupted(*task, **hooks):
        reports = list(chunk_fn(*task, **hooks))
        reports[0] = dataclasses.replace(reports[0], **{field: float("nan")})
        return reports
    return corrupted


#: (runner class, chunk-size keyword) for each of the four runners
RUNNERS = [
    (SweepRunner, "batch_size"),
    (GridRunner, "batch_size"),
    (SimSweepRunner, "chunk_size"),
    (FleetSweepRunner, "chunk_size"),
]


class TestSharedValidation:
    @pytest.mark.parametrize("runner_cls,size_kw", RUNNERS)
    def test_zero_jobs_and_zero_chunk_rejected(self, runner_cls, size_kw):
        with pytest.raises(ValueError, match="n_jobs"):
            runner_cls(n_jobs=0)
        with pytest.raises(ValueError, match="must be >= 1"):
            runner_cls(**{size_kw: 0})

    def test_split_and_regroup_round_trip(self):
        chunks = split_chunks([1, 2, 3, 4, 5], 2)
        assert chunks == [[1, 2], [3, 4], [5]]
        per_task = [[s * 10 for s in c] for c in chunks + chunks]
        assert cell_reports(per_task, len(chunks)) == [
            [10, 20, 30, 40, 50], [10, 20, 30, 40, 50],
        ]
        with pytest.raises(ValueError):
            split_chunks([1], 0)


class TestInvariantPass:
    def test_grid_runner_checks_every_run(self, monkeypatch):
        monkeypatch.setattr(
            grid_mod, "run_chunk", _nan_first(grid_mod.run_chunk, "mean_reward")
        )
        grid = GridSpec(base=ROLLOUT, rates=(0.1,))
        with pytest.raises(InvariantViolation) as err:
            GridRunner(batch_size=2).run(grid, seeds=[1, 2, 3])
        assert err.value.invariant == "seed_run"
        assert err.value.context == {"chunk": 0}

    @pytest.mark.parametrize("module,fn_name,field,run", [
        (sweep_mod, "run_chunk", "mean_reward",
         lambda ddir: SweepRunner(batch_size=2, diagnostics_dir=ddir)
         .run_many(ROLLOUT, [1, 2, 3])),
        (simsweep_mod, "run_sim_chunk", "mean_power",
         lambda ddir: SimSweepRunner(chunk_size=2, diagnostics_dir=ddir)
         .run(SIM)),
        (fleet_sweep_mod, "run_fleet_chunk", "mean_power",
         lambda ddir: FleetSweepRunner(chunk_size=2, diagnostics_dir=ddir)
         .run(FLEET)),
    ], ids=["SweepRunner", "SimSweepRunner", "FleetSweepRunner"])
    def test_violation_writes_one_bundle(self, tmp_path, monkeypatch,
                                         module, fn_name, field, run):
        monkeypatch.setattr(
            module, fn_name, _nan_first(getattr(module, fn_name), field)
        )
        with pytest.raises(InvariantViolation):
            run(str(tmp_path))
        bundles = list(tmp_path.glob("repro_diag_*.json"))
        assert len(bundles) == 1
        bundle = json.loads(bundles[0].read_text())
        assert bundle["kind"] == "invariant_violation"
        assert bundle["chunk_id"] == 0
