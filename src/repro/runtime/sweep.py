"""Unified multi-seed sweep runner: one entry point for every experiment.

Every reproduction experiment is, at its core, "roll the slotted system
forward for N slots under some controller, for one or more seeds, and
summarize".  :class:`SweepRunner` owns that loop once:

- seeds are chunked into lock-step batches of ``batch_size`` and executed
  on the vectorized engine (:class:`~repro.runtime.BatchedSlottedEnv` +
  :class:`~repro.runtime.BatchedQDPM`), so a 32-seed sweep costs one
  NumPy-stride loop instead of 32 interpreter round-trip loops;
- fixed policies (the frozen-optimal arms) run on the same batched
  engine with a precomputed state->action lookup;
- controllers that cannot be batched (the model-based adaptive pipeline)
  fall back to a per-seed scalar loop behind the same interface;
- seed chunks are embarrassingly parallel, so ``n_jobs > 1`` ships
  ``(spec, chunk_seeds)`` work units across a process pool through the
  shared sweep driver (:mod:`repro.runtime.chunked`) and reassembles
  results in seed order — per-seed results are bit-identical for every
  ``(batch_size, n_jobs)`` combination;
- per-seed summaries aggregate to mean +- bootstrap CI via the existing
  :mod:`repro.analysis.bootstrap`.

The runner deliberately does not import :mod:`repro.experiments` — the
experiments layer builds :class:`RolloutSpec`s from its config
dataclasses (``RolloutSpec.from_env_config``) and calls down.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..analysis.bootstrap import CI, bootstrap_ci
from ..core.qdpm import RunHistory
from ..core.schedules import Schedule
from ..device import get_preset
from ..env.slotted_env import EnvTotals
from ..mdp import DeterministicPolicy
from ..workload.nonstationary import RateSchedule
from .batched_env import BatchedSlottedEnv
from .batched_qdpm import BatchedQDPM, BatchRunHistory, run_lockstep
from .checkpoint import spec_hash
from .chunked import ChunkedSweep, Reference, split_chunks
from .telemetry import TELEMETRY
from .verify import check_seed_run


@dataclass(frozen=True)
class RolloutSpec:
    """One rollout recipe: environment + controller + horizon.

    ``policy`` switches the controller: ``None`` rolls a learning Q-DPM
    (with an optional pre-training phase on ``warmup_schedule``), a
    :class:`~repro.mdp.DeterministicPolicy` rolls that fixed policy.
    Per-replica env streams are seeded ``seed + env_seed_offset`` (and
    ``seed + warmup_seed_offset`` during warmup), mirroring the seed
    arithmetic the scalar experiments used.
    """

    schedule: RateSchedule
    n_slots: int
    device: str = "abstract3"
    slot_length: float = 1.0
    queue_capacity: int = 8
    p_serve: float = 0.9
    perf_weight: float = 0.5
    loss_penalty: float = 2.0
    discount: float = 0.95
    learning_rate: Union[float, Schedule] = 0.1
    epsilon: float = 0.1
    initial_q: float = 0.0
    record_every: int = 1_000
    policy: Optional[DeterministicPolicy] = None
    warmup_schedule: Optional[RateSchedule] = None
    warmup_slots: int = 0
    env_seed_offset: int = 0
    warmup_seed_offset: int = 0
    rng_mode: str = "replica"   #: "replica" = bit-exact streams, "shared" = fastest

    @classmethod
    def from_env_config(cls, env_config, schedule: RateSchedule,
                        n_slots: int, **overrides) -> "RolloutSpec":
        """Build a spec from an experiments ``EnvConfig``-shaped object.

        Duck-typed on the attribute names (device, slot_length,
        queue_capacity, p_serve, perf_weight, loss_penalty, discount) to
        keep the runtime layer import-independent of the experiments
        layer.
        """
        spec = cls(
            schedule=schedule,
            n_slots=n_slots,
            device=env_config.device,
            slot_length=env_config.slot_length,
            queue_capacity=env_config.queue_capacity,
            p_serve=env_config.p_serve,
            perf_weight=env_config.perf_weight,
            loss_penalty=env_config.loss_penalty,
            discount=env_config.discount,
        )
        return replace(spec, **overrides) if overrides else spec

    def build_env(self, seeds: Sequence[int],
                  warmup: bool = False) -> BatchedSlottedEnv:
        """Batched environment for one seed chunk (main or warmup phase)."""
        offset = self.warmup_seed_offset if warmup else self.env_seed_offset
        schedule = self.warmup_schedule if warmup else self.schedule
        return BatchedSlottedEnv(
            get_preset(self.device),
            schedule,
            n_replicas=len(seeds),
            slot_length=self.slot_length,
            queue_capacity=self.queue_capacity,
            p_serve=self.p_serve,
            perf_weight=self.perf_weight,
            loss_penalty=self.loss_penalty,
            seeds=[s + offset for s in seeds],
            rng_mode=self.rng_mode,
        )


@dataclass
class SeedRun:
    """Summary of one seed's rollout."""

    seed: int
    history: RunHistory
    mean_reward: float       #: reward/slot over the whole horizon
    saving_ratio: float      #: episode energy saving vs always-on
    totals: EnvTotals


@dataclass
class SweepResult:
    """All seeds of one sweep, with CI aggregation helpers."""

    spec: RolloutSpec
    runs: List[SeedRun] = field(default_factory=list)
    #: how the runner executed the sweep (see
    #: :class:`~repro.runtime.chunked.ChunkedSweep`); empty per grid cell
    execution: Dict[str, Any] = field(default_factory=dict)

    @property
    def seeds(self) -> List[int]:
        return [r.seed for r in self.runs]

    @property
    def n_seeds(self) -> int:
        return len(self.runs)

    def rewards(self) -> np.ndarray:
        """Per-seed mean reward/slot."""
        return np.array([r.mean_reward for r in self.runs])

    def savings(self) -> np.ndarray:
        """Per-seed energy-saving ratio."""
        return np.array([r.saving_ratio for r in self.runs])

    def reward_ci(self, confidence: float = 0.95) -> CI:
        """Bootstrap CI of the across-seed mean reward."""
        return bootstrap_ci(self.rewards(), confidence=confidence)

    def saving_ci(self, confidence: float = 0.95) -> CI:
        """Bootstrap CI of the across-seed mean saving ratio."""
        return bootstrap_ci(self.savings(), confidence=confidence)

    def history_matrix(self, what: str = "reward") -> np.ndarray:
        """Stacked per-seed traces, shape ``(n_records, n_seeds)``."""
        return np.stack(
            [getattr(r.history, what) for r in self.runs], axis=1
        )

    def mean_history(self) -> RunHistory:
        """Across-seed mean trace."""
        return RunHistory(
            slots=self.runs[0].history.slots.copy(),
            energy=self.history_matrix("energy").mean(axis=1),
            reward=self.history_matrix("reward").mean(axis=1),
            queue=self.history_matrix("queue").mean(axis=1),
            saving_ratio=self.history_matrix("saving_ratio").mean(axis=1),
            td_error=self.history_matrix("td_error").mean(axis=1),
        )


def _policy_action_lut(env: BatchedSlottedEnv,
                       policy: DeterministicPolicy) -> np.ndarray:
    """State -> action lookup with the scalar experiments' fallback
    (first allowed action when the policy's choice is illegal)."""
    qcap1 = env.queue_capacity + 1
    lut = np.empty(env.n_states, dtype=np.int64)
    for state in range(env.n_states):
        action = policy(state)
        allowed = env.mode_space.allowed_actions(state // qcap1)
        lut[state] = action if action in allowed else allowed[0]
    return lut


def _run_fixed_policy(env: BatchedSlottedEnv, lut: np.ndarray,
                      n_slots: int, record_every: int) -> BatchRunHistory:
    """Roll a fixed policy on the batched engine, windowed like QDPM.run."""
    no_td = np.zeros(env.n_replicas)

    def step():
        actions = lut[env.states]
        _, rewards, info = env.step(actions)
        return rewards, info, no_td

    return run_lockstep(env, step, n_slots, record_every=record_every)


def _horizon_mean(history: RunHistory, n_slots: int,
                  record_every: int) -> float:
    """Whole-horizon reward/slot reconstructed from windowed means."""
    n_full = n_slots // record_every
    weights = [record_every] * n_full
    if n_slots % record_every:
        weights.append(n_slots % record_every)
    weights = np.asarray(weights[:len(history.reward)], dtype=float)
    return float((history.reward * weights).sum() / weights.sum())


def run_chunk(spec: RolloutSpec, chunk_seeds: Sequence[int],
              on_record=None, on_chunk_done=None) -> List[SeedRun]:
    """Execute one seed chunk of ``spec`` — the sweep's unit of work.

    Pure function of ``(spec, chunk_seeds)``: every RNG stream is
    constructed from the chunk's seeds, so the same bits come out whether
    the chunk runs in the parent process or a pool worker.  The optional
    hooks are in-process callbacks and are never shipped to workers.
    """
    with TELEMETRY.span("chunk", cat="sweep", kind="slotted",
                        seeds=list(chunk_seeds)):
        return _run_chunk_body(spec, chunk_seeds, on_record, on_chunk_done)


def _run_chunk_body(spec: RolloutSpec, chunk_seeds: Sequence[int],
                    on_record=None, on_chunk_done=None) -> List[SeedRun]:
    env = spec.build_env(chunk_seeds)
    if spec.policy is not None:
        lut = _policy_action_lut(env, spec.policy)
        hist = _run_fixed_policy(
            env, lut, spec.n_slots, spec.record_every
        )
    else:
        warmup = spec.warmup_schedule is not None and spec.warmup_slots > 0
        driver = BatchedQDPM(
            spec.build_env(chunk_seeds, warmup=True) if warmup else env,
            discount=spec.discount,
            learning_rate=spec.learning_rate,
            epsilon=spec.epsilon,
            initial_q=spec.initial_q,
            seed=[s + 1 for s in chunk_seeds],
        )
        if warmup:
            driver.run(spec.warmup_slots, record_every=spec.warmup_slots)
            driver.env = env
        callback = None
        if on_record is not None:
            callback = lambda slot: on_record(slot, driver, chunk_seeds)
        hist = driver.run(
            spec.n_slots, record_every=spec.record_every,
            callback=callback,
        )
        if on_chunk_done is not None:
            on_chunk_done(driver, chunk_seeds)
    savings = env.energy_saving_ratio()
    runs: List[SeedRun] = []
    for i, seed in enumerate(chunk_seeds):
        history = hist.replica(i)
        runs.append(
            SeedRun(
                seed=seed,
                history=history,
                mean_reward=_horizon_mean(
                    history, spec.n_slots, spec.record_every
                ),
                saving_ratio=float(savings[i]),
                totals=env.totals.replica(i),
            )
        )
    return runs


def _scalar_qdpm(spec: RolloutSpec, seed: int):
    """True scalar twin of one learning replica, past its warmup: a
    scalar :class:`~repro.core.QDPM` over a scalar
    :class:`~repro.env.SlottedDPMEnv`, consuming the batched engine's
    exact per-slot RNG layout via ``FixedDrawEpsilonGreedy`` — the
    bit-for-bit parity recipe the test suite pins (env seed
    ``seed + env_seed_offset``, agent seed ``seed + 1``)."""
    from ..core import QDPM
    from ..core.exploration import FixedDrawEpsilonGreedy
    from ..core.qlearning import QLearningAgent
    from ..env.slotted_env import SlottedDPMEnv

    device = get_preset(spec.device)

    def scalar_env(warmup: bool) -> SlottedDPMEnv:
        offset = spec.warmup_seed_offset if warmup else spec.env_seed_offset
        schedule = spec.warmup_schedule if warmup else spec.schedule
        return SlottedDPMEnv(
            device, schedule,
            slot_length=spec.slot_length,
            queue_capacity=spec.queue_capacity,
            p_serve=spec.p_serve,
            perf_weight=spec.perf_weight,
            loss_penalty=spec.loss_penalty,
            seed=seed + offset,
        )

    env = scalar_env(warmup=False)
    warmup = spec.warmup_schedule is not None and spec.warmup_slots > 0
    start_env = scalar_env(warmup=True) if warmup else env
    # QDPM's convenience ctor has no initial_q knob, so build the agent
    # explicitly to mirror every BatchedQDPM parameter
    agent = QLearningAgent(
        n_observations=start_env.n_states,
        n_actions=start_env.n_actions,
        discount=spec.discount,
        learning_rate=spec.learning_rate,
        exploration=FixedDrawEpsilonGreedy(spec.epsilon),
        initial_q=spec.initial_q,
        seed=seed + 1,
    )
    controller = QDPM(start_env, agent=agent)
    if warmup:
        controller.run(spec.warmup_slots, record_every=spec.warmup_slots)
        controller.env = env
    return controller


def reference_seed_runs(spec: RolloutSpec,
                        chunk_seeds: Sequence[int]) -> List[SeedRun]:
    """Reference path for one :func:`run_chunk` work unit.

    Learning chunks re-run each seed on the true scalar stack
    (:func:`_scalar_qdpm` — the bit-exact parity recipe);
    fixed-policy chunks, which have no scalar twin, re-run each seed on
    the batched engine at ``B = 1``, which verifies the
    batch-composition-invariance contract instead.  Either way the
    comparison against the sweep's results is exact (``rtol = 0``).
    """
    if spec.policy is None:
        return _run_scalar_seeds(spec, chunk_seeds,
                                 partial(_scalar_qdpm, spec))
    return [run for seed in chunk_seeds for run in run_chunk(spec, [seed])]


def _run_scalar_seeds(spec: RolloutSpec, chunk_seeds: Sequence[int],
                      controller_factory) -> List[SeedRun]:
    """Scalar-fallback rollouts of ``chunk_seeds`` (module-level, so the
    unit can ship to a worker when the factory itself is picklable)."""
    runs: List[SeedRun] = []
    for seed in chunk_seeds:
        controller = controller_factory(seed)
        history = controller.run(spec.n_slots, record_every=spec.record_every)
        env = controller.env
        runs.append(SeedRun(
            seed=seed,
            history=history,
            mean_reward=_horizon_mean(history, spec.n_slots,
                                      spec.record_every),
            saving_ratio=float(env.energy_saving_ratio()),
            totals=env.totals,
        ))
    return runs


class SweepRunner(ChunkedSweep):
    """Chunked multi-seed executor over the batched engine:
    ``batch_size`` replicas per lock-step batch, the other knobs as on
    :class:`~repro.runtime.chunked.ChunkedSweep`.  Shadow verification
    is bit-for-bit (:func:`reference_seed_runs`) and needs
    ``rng_mode="replica"``; shared-RNG specs record it as skipped."""

    batch_size = property(lambda self: self.chunk_size)

    def __init__(self, batch_size: int = 32, n_jobs: int = 1,
                 **options: Any) -> None:
        super().__init__(batch_size, n_jobs, **options)

    def run_many(
        self,
        spec: RolloutSpec,
        seeds: Sequence[int],
        batch_size: Optional[int] = None,
        n_jobs: Optional[int] = None,
        on_record: Optional[Callable[[int, BatchedQDPM, Sequence[int]], None]] = None,
        on_chunk_done: Optional[Callable[[BatchedQDPM, Sequence[int]], None]] = None,
        controller_factory: Optional[Callable[[int], object]] = None,
    ) -> SweepResult:
        """Run ``spec`` once per seed; batched and sharded wherever possible.

        ``on_record(slot, driver, chunk_seeds)`` fires at every record
        point of a learning chunk executed in the parent process
        (snapshot hooks); ``on_chunk_done(driver, chunk_seeds)`` after
        such a chunk finishes (final-table extraction).  With
        ``n_jobs = 1`` that is every chunk; with ``n_jobs > 1`` only the
        *first* chunk runs in the parent (overlapped with the worker
        pool), so hooks see exactly the lead chunk — the contract the
        figure experiments rely on.  Hooks never change results.
        ``controller_factory(seed)`` switches to the scalar fallback: it
        must return an object with ``.run(n_slots, record_every)`` ->
        ``RunHistory`` and an ``.env`` exposing ``totals`` /
        ``energy_saving_ratio()`` (e.g. the model-based pipeline).
        Factories that pickle are sharded per seed; closures run
        in-process.  A ``checkpoint`` composes with neither hooks
        (resumed chunks never execute) nor factories (the journal key
        cannot identify a callable).
        """
        seeds = [int(s) for s in seeds]
        chunk = self.chunk_size if batch_size is None else batch_size
        chunks = split_chunks(seeds, chunk)
        if self.checkpoint is not None and any(
            x is not None for x in (on_record, on_chunk_done,
                                    controller_factory)
        ):
            raise ValueError(
                "checkpointing composes with neither in-process snapshot "
                "hooks (resumed chunks never execute) nor a controller "
                "factory (a callable has no journal key)"
            )
        if controller_factory is not None:
            tasks = [(spec, [seed], controller_factory) for seed in seeds]
            chunk_fn, reference, lead = _run_scalar_seeds, None, None
        else:
            tasks, chunk_fn = [(spec, c) for c in chunks], run_chunk
            reference = Reference(
                reference_seed_runs,
                "scalar QDPM (FixedDrawEpsilonGreedy)" if spec.policy is None
                else "batched engine at B=1",
                rtol=0.0, atol=0.0,
                # shared-RNG replicas draw from one stream in batch order:
                # no per-seed scalar twin exists to verify against
                skipped=None if spec.rng_mode == "replica" else (
                    f"rng_mode={spec.rng_mode!r} has no per-seed scalar "
                    f"twin; use rng_mode='replica' to verify"
                ),
            )
            lead = None if self.checkpoint is not None else partial(
                run_chunk, on_record=on_record, on_chunk_done=on_chunk_done
            )
        return self._sweep(
            "slotted", spec, tasks, chunk_fn, check_task_run,
            lambda reports, execution: SweepResult(
                spec=spec, runs=[run for runs in reports for run in runs],
                execution=execution,
            ),
            seeds_of=itemgetter(1), spec_key=spec_hash(spec, chunk),
            reference=reference, n_jobs=n_jobs, lead=lead,
        )


def check_task_run(run: SeedRun, task, seed: int, spec_key: str,
               context: Dict[str, Any]) -> None:
    """The invariant pass of a ``(spec, chunk_seeds, ...)`` task's run."""
    check_seed_run(run, spec=task[0], spec_key=spec_key, context=context)
