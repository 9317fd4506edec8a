"""One chunked-sweep driver behind every sweep runner.

A sweep is a list of pure work units ("tasks"): picklable argument
tuples whose chunk function returns one report per seed.  A runner
builds its tasks and assembles its cells; :class:`ChunkedSweep` does
everything in between, once.  Chunk, check and reference functions are
passed per call, read from the runner module's globals at that moment,
so rebinding those globals reaches the driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .checkpoint import run_chunks_checkpointed
from .executor import (
    AsyncTasks,
    ChunkExecutionError,
    SerialExecutor,
    get_executor,
    is_picklable,
    resolve_n_jobs,
)
from .telemetry import TELEMETRY
from .verify import (
    SHADOW_ATOL,
    SHADOW_RTOL,
    InvariantViolation,
    bundle_for_exception,
    shadow_verify_chunks,
    verification_block,
)


@dataclass(frozen=True)
class Reference:
    """The scalar reference path shadow verification re-runs tasks on:
    ``fn(*task)`` must reproduce the task's reports within
    ``rtol``/``atol`` outside ``ignore``.  ``skipped`` says why no
    reference can verify the sweep; the skip is recorded instead."""

    fn: Callable[..., Sequence[Any]]
    name: str
    rtol: float = SHADOW_RTOL
    atol: float = SHADOW_ATOL
    ignore: Tuple[str, ...] = ()
    skipped: Optional[str] = None


def _at_least_one(name: str, value: int) -> int:
    if int(value) < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def split_chunks(seeds: Sequence[int], size: int) -> List[List[int]]:
    """Consecutive chunks of at most ``size`` seeds, in seed order."""
    size = _at_least_one("chunk size", size)
    return [list(seeds[i:i + size]) for i in range(0, len(seeds), size)]


def cell_reports(reports: Sequence[Sequence[Any]],
                 n_chunks: int) -> List[List[Any]]:
    """One report list per cell, for tasks emitted cell-major and
    seed-minor with ``n_chunks`` tasks per cell."""
    return [
        [report for chunk in reports[i:i + n_chunks] for report in chunk]
        for i in range(0, len(reports), n_chunks)
    ]


class _LeadInParent:
    """Executor running the first task in this process through ``lead``
    (the caller's hooks) while ``pool`` runs the rest beside it."""

    def __init__(self, pool, lead: Callable[..., Any]) -> None:
        self.pool, self.lead = pool, lead
        self.n_jobs = pool.n_jobs + 1

    def submit_all(self, fn, tasks, on_result, **ladder) -> AsyncTasks:
        tail = None
        try:
            tail = self.pool.submit_all(
                fn, tasks[1:], on_result=lambda j, r: on_result(j + 1, r),
                **ladder,
            )
            head = self.lead(*tasks[0])
            TELEMETRY.inc("executor.chunks_completed")
            on_result(0, head)
            rest = tail.get()
        except ChunkExecutionError as exc:  # re-key to task order
            raise ChunkExecutionError(
                exc.chunk_index + 1, exc.task,
                {j + 1: r for j, r in exc.completed.items()}, exc.events,
            ) from exc.__cause__
        except BaseException:
            if tail is not None:  # don't leak the pool
                tail.cancel()
            raise
        return AsyncTasks(results=[head, *rest], events=tail.events)


class ChunkedSweep:
    """Shared execution knobs of the sweep runners, and their one driver.

    Parameters
    ----------
    chunk_size:
        Seeds per work unit (the slotted runners' ``batch_size``);
        runners may change the default.
    n_jobs:
        Worker processes (1 = in-process); results are bit-identical
        for every ``(chunk_size, n_jobs)``.  A pool that cannot pay for
        itself degrades to in-process; ``execution["decision"]`` says why.
    timeout:
        Per-chunk wall-second bound on a pool result; a chunk past it
        (hung or silently-dead worker) reruns in-process.
    max_retries:
        Pool resubmissions of a raising chunk before it reruns
        in-process.
    retry_backoff:
        Base of the capped-exponential sleep between retries.
    checkpoint:
        Chunk-result journal path: completed chunks are skipped on the
        next run with the same spec and chunk size, bit-identically.
    verify_fraction:
        Fraction of work units re-run on the runner's scalar reference
        and compared field-for-field (a spec-seeded sample); a
        divergence raises :class:`~repro.runtime.verify.InvariantViolation`,
        the outcome lands in ``execution["verification"]``.
    diagnostics_dir:
        Directory for minimal-repro JSON bundles written on invariant
        violations, shadow divergences and unrecoverable chunk failures.
    """

    def __init__(self, chunk_size: int = 8, n_jobs: int = 1,
                 timeout: Optional[float] = None, max_retries: int = 0,
                 retry_backoff: float = 0.5,
                 checkpoint: Optional[str] = None,
                 verify_fraction: float = 0.0,
                 diagnostics_dir: Optional[str] = None) -> None:
        self.chunk_size = _at_least_one("chunk_size", chunk_size)
        self.n_jobs = _at_least_one("n_jobs", n_jobs)
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if not 0.0 <= float(verify_fraction) <= 1.0:
            raise ValueError(
                f"verify_fraction must be in [0, 1], got {verify_fraction}"
            )
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.checkpoint = checkpoint
        self.verify_fraction = float(verify_fraction)
        self.diagnostics_dir = diagnostics_dir

    def _sweep(self, kind: str, spec: Any, tasks: Sequence[Tuple],
               chunk_fn: Callable[..., Sequence[Any]],
               check: Callable[..., None],
               assemble: Callable[[List[Any], Dict[str, Any]], Any], *,
               seeds_of: Callable[[Tuple], Sequence[int]], spec_key: str,
               reference: Optional[Reference] = None,
               est_chunk_seconds: Optional[float] = None,
               n_jobs: Optional[int] = None,
               lead: Optional[Callable[..., Sequence[Any]]] = None) -> Any:
        """Run ``tasks``; return ``assemble(reports, execution)``.

        ``reports[t]`` holds ``chunk_fn(*tasks[t])``, one report per seed
        of ``seeds_of(task)``, each passing ``check(report, task, seed,
        spec_key, context)``.  ``lead``, the in-process twin of
        ``chunk_fn`` carrying the caller's hooks, runs every task at one
        requested job, else only the first, beside a pool for the rest.
        """
        if not tasks:
            raise ValueError("need at least one seed")
        requested = _at_least_one(
            "n_jobs", self.n_jobs if n_jobs is None else n_jobs
        )
        with TELEMETRY.metrics_scope() as metrics:
            with TELEMETRY.span("sweep", cat="sweep", kind=kind,
                                n_tasks=len(tasks), n_jobs=requested):
                jobs, decision = resolve_n_jobs(
                    requested, est_chunk_seconds, len(tasks)
                )
                if jobs > 1 and not is_picklable(tasks[0]):
                    jobs, decision = 1, "unpicklable_tasks"
                executor = get_executor(jobs)
                if lead is not None and requested > 1 and len(tasks) > 1:
                    executor = _LeadInParent(
                        get_executor(max(jobs - 1, 1)), lead
                    )
                elif lead is not None:
                    executor, chunk_fn = SerialExecutor(), lead
                try:
                    reports, resilience = run_chunks_checkpointed(
                        executor, chunk_fn, tasks, spec_key=spec_key,
                        checkpoint=self.checkpoint, timeout=self.timeout,
                        max_retries=self.max_retries,
                        retry_backoff=self.retry_backoff,
                    )
                    # always-on invariant pass: the conservation laws
                    # hold for any correct engine, so this is a field
                    # walk, not a re-simulation
                    for t, (task, chunk) in enumerate(zip(tasks, reports)):
                        for seed, report in zip(seeds_of(task), chunk):
                            check(report, task, seed, spec_key, {"chunk": t})
                except (ChunkExecutionError, InvariantViolation) as exc:
                    if self.diagnostics_dir is not None:
                        bundle_for_exception(self.diagnostics_dir, exc,
                                             spec=spec, spec_key=spec_key)
                    raise
                execution: Dict[str, Any] = {
                    "n_jobs_requested": requested,
                    "n_jobs_effective": jobs,
                    "decision": decision,
                    "estimated_chunk_seconds": est_chunk_seconds,
                    **resilience,
                }
                if self.verify_fraction > 0.0 and reference is not None:
                    execution["verification"] = self._shadow_verify(
                        spec, spec_key, tasks, reports, reference, seeds_of
                    )
                result = assemble(reports, execution)
        result.execution["metrics"] = metrics.snapshot()
        return result

    def _shadow_verify(self, spec, spec_key, tasks, reports,
                       reference: Reference, seeds_of) -> Dict[str, Any]:
        if reference.skipped is not None:
            return {
                **verification_block(self.verify_fraction, len(tasks), [],
                                     [], reference.name),
                "skipped": reference.skipped,
            }
        return shadow_verify_chunks(
            tasks, reports, self.verify_fraction, spec_key, reference.fn,
            reference.name, seeds_of=seeds_of, rtol=reference.rtol,
            atol=reference.atol, ignore=reference.ignore,
            diagnostics_dir=self.diagnostics_dir, spec=spec,
        )
