"""Batch executor: solve many instances concurrently with process workers.

The executor takes a sequence of :class:`~repro.service.jobs.SolveRequest`
objects and runs them on a ``ProcessPoolExecutor`` (``workers=0`` runs
everything inline, which is also the fallback when a pool cannot be
spawned).  Jobs cross the process boundary as plain dictionaries, and
each worker resolves solver names against its own process-wide default
registry — custom registries therefore require inline execution.

Determinism: every job that arrives without a seed gets one derived from
the executor's base seed and the job's position
(:func:`derive_job_seed`), so a replayed batch hands every solver the
exact same stream regardless of worker count or completion order.
Results are bit-identical whenever each solver converges within its
wall-clock budget (exact solvers proving optimality always replay
identically; a heuristic truncated mid-flight by CPU contention may not).

An optional :class:`~repro.service.cache.ResultCache` short-circuits
jobs whose key is already cached and absorbs fresh results; when the
cache has a backing file it is saved once at the end of the batch.
Independently of the persistent cache, identical jobs *within* one
batch (same problem, solver, budget and seed) are deduplicated: the
first occurrence is solved and the twins receive an echo of its result.

Annealer jobs additionally benefit from two process-wide caches that
this executor warms as a side effect: the QA adapter's prepared-pipeline
LRU (embedding + physical mapping per instance, keyed by the exact
problem token) and the sparse compile-structure cache of
:mod:`repro.annealer.compile`, so repeated QA solves skip recompilation.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ServiceError
from repro.obs.trace import SpanContext, configure_tracer, get_tracer
from repro.service.cache import ResultCache
from repro.service.jobs import (
    PORTFOLIO_SOLVER,
    SolveRequest,
    SolveResult,
    dedupe_key,
    echo_result_for_duplicate,
)
from repro.service.portfolio import PortfolioScheduler
from repro.service.registry import SolverRegistry, default_registry
from repro.utils.rng import derive_seed
from repro.utils.stopwatch import Stopwatch

__all__ = ["BatchExecutor", "execute_request", "derive_job_seed"]


def derive_job_seed(base_seed: Optional[int], job_index: int) -> int:
    """Deterministic per-job seed for position ``job_index`` of a batch."""
    return derive_seed(base_seed, job_index)


def execute_request(
    request: SolveRequest,
    registry: SolverRegistry | None = None,
) -> SolveResult:
    """Solve one request synchronously in the current process.

    ``solver="portfolio"`` races the portfolio scheduler; any other name
    runs that registered solver directly.  Solver failures are captured
    into :attr:`SolveResult.error` instead of propagating, so one bad job
    cannot take down a batch.
    """
    registry = registry if registry is not None else default_registry()
    stopwatch = Stopwatch().start()
    with get_tracer().span(
        "service.execute", {"solver": request.solver, "job_id": request.job_id or ""}
    ) as span:
        try:
            if request.solver == PORTFOLIO_SOLVER:
                outcome = PortfolioScheduler(registry=registry).solve(
                    request.problem,
                    request.time_budget_ms,
                    seed=request.seed,
                    solvers=request.solvers,
                )
                if not outcome.winner:
                    raise ServiceError(
                        f"every portfolio member failed: {outcome.errors}"
                    )
                result = SolveResult.from_trajectory(
                    request,
                    outcome.merged_trajectory,
                    winner=outcome.winner,
                    total_time_ms=stopwatch.elapsed_ms(),
                )
            else:
                solver = registry.create(request.solver)
                trajectory = solver.solve(
                    request.problem, request.time_budget_ms, seed=request.seed
                )
                # The registry name is the stable identity; the trajectory only
                # carries the solver's display name, which may differ.
                result = SolveResult.from_trajectory(
                    request,
                    trajectory,
                    winner=request.solver,
                    total_time_ms=stopwatch.elapsed_ms(),
                )
            span.set_attribute("winner", result.winner)
            return result
        except Exception as exc:  # noqa: BLE001 — any solver failure becomes a
            # per-job error result, so one bad job cannot take down a batch
            # (and inline execution matches what a worker pool would report).
            span.set_attribute("error", type(exc).__name__)
            return SolveResult.from_error(request, f"{type(exc).__name__}: {exc}")


def _execute_job_payload(
    payload: Dict[str, Any],
    trace_context: Optional[Dict[str, str]] = None,
    collect_spans: bool = False,
) -> Dict[str, Any]:
    """Worker entry point: dict in, dict out (must stay module-level so it
    pickles for the process pool).

    With ``collect_spans`` the worker enables its own tracer, parents its
    spans onto the (serialised) ``trace_context`` of the dispatching
    process, and returns ``{"result": ..., "spans": [...]}`` so the
    parent can :meth:`~repro.obs.trace.Tracer.adopt` them.  Without it
    the historical bare result dictionary is returned.
    """
    request = SolveRequest.from_dict(payload)
    if not collect_spans:
        return execute_request(request).to_dict()
    tracer = configure_tracer(True)
    context = SpanContext.from_dict(trace_context) if trace_context else None
    try:
        with tracer.activate(context):
            result = execute_request(request)
        spans = [span.to_dict() for span in tracer.drain()]
    finally:
        configure_tracer(False)
    return {"result": result.to_dict(), "spans": spans}


class BatchExecutor:
    """Solve batches of requests, optionally on a process pool.

    Parameters
    ----------
    workers:
        Number of worker processes; ``0`` (or ``1``) solves inline in
        this process.
    cache:
        Optional result cache consulted before dispatch and updated with
        fresh results.  When the cache has a backing file it is saved at
        the end of every batch.
    registry:
        Registry for *inline* execution.  Worker processes always use
        their own default registry, so passing a custom registry
        together with ``workers > 1`` is rejected.
    base_seed:
        Default base seed for :func:`derive_job_seed`; can be overridden
        per run.
    autosave:
        Persist a file-backed cache after every batch (default).
        Callers that run many small batches against one cache (the
        chunked CLI) disable this and save once themselves.
    keep_pool:
        Reuse one process pool across :meth:`run` / :meth:`run_iter`
        calls instead of spawning a fresh pool per call (the chunked CLI
        would otherwise pay a pool spin-up per chunk).  Callers that set
        this own the lifecycle: call :meth:`close` when done.
    """

    def __init__(
        self,
        workers: int = 0,
        cache: ResultCache | None = None,
        registry: SolverRegistry | None = None,
        base_seed: Optional[int] = None,
        autosave: bool = True,
        keep_pool: bool = False,
    ) -> None:
        if workers < 0:
            raise ServiceError(f"workers must be non-negative, got {workers}")
        if registry is not None and workers > 1:
            raise ServiceError(
                "custom registries cannot cross process boundaries; "
                "use workers=0 for inline execution"
            )
        self.workers = workers
        self.cache = cache
        self.registry = registry
        self.base_seed = base_seed
        self.autosave = autosave
        self.keep_pool = keep_pool
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------ #
    # Seeding and cache plumbing
    # ------------------------------------------------------------------ #
    def _seeded(
        self, requests: Sequence[SolveRequest], base_seed: Optional[int]
    ) -> List[SolveRequest]:
        """Copy of ``requests`` with per-job seeds and job ids filled in."""
        seeded = []
        for index, request in enumerate(requests):
            seed = (
                request.seed
                if request.seed is not None
                else derive_job_seed(base_seed, index)
            )
            seeded.append(
                SolveRequest(
                    problem=request.problem,
                    solver=request.solver,
                    time_budget_ms=request.time_budget_ms,
                    seed=seed,
                    job_id=request.job_id or f"job-{index}",
                    solvers=request.solvers,
                    metadata=request.metadata,
                )
            )
        return seeded

    def _cache_lookup(self, request: SolveRequest) -> Optional[SolveResult]:
        if self.cache is None:
            return None
        cached = self.cache.get(request.cache_key())
        if cached is None:
            return None
        return echo_result_for_duplicate(SolveResult.from_dict(cached), request)

    def _cache_store(self, request: SolveRequest, result: SolveResult) -> None:
        if self.cache is not None and result.ok:
            self.cache.put(request.cache_key(), result.to_dict())

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self, requests: Sequence[SolveRequest], base_seed: Optional[int] = None
    ) -> List[SolveResult]:
        """Solve every request; results come back in request order."""
        results: List[Optional[SolveResult]] = [None] * len(requests)
        for index, result in self.run_iter(requests, base_seed=base_seed):
            results[index] = result
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def run_iter(
        self, requests: Sequence[SolveRequest], base_seed: Optional[int] = None
    ) -> Iterator[Tuple[int, SolveResult]]:
        """Yield ``(input_index, result)`` pairs as jobs finish.

        Cache hits are yielded first (no solving happens for them), then
        duplicates of an already-dispatched job are folded onto their
        representative; the rest stream back in completion order.  The
        cache, if any, is persisted to its backing file after the last
        job.
        """
        seeded = self._seeded(requests, base_seed if base_seed is not None else self.base_seed)
        pending: List[Tuple[int, SolveRequest]] = []
        representative_by_key: Dict[str, int] = {}
        duplicates: Dict[int, List[Tuple[int, SolveRequest]]] = {}
        for index, request in enumerate(seeded):
            hit = self._cache_lookup(request)
            if hit is not None:
                yield index, hit
                continue
            key = dedupe_key(request)
            rep_index = representative_by_key.get(key)
            if rep_index is not None:
                duplicates.setdefault(rep_index, []).append((index, request))
                continue
            representative_by_key[key] = index
            pending.append((index, request))

        try:
            if self.workers > 1 and len(pending) > 1:
                source = self._run_pool(pending)
            else:
                source = self._run_inline(pending)
            for index, result in source:
                yield index, result
                for dup_index, dup_request in duplicates.get(index, ()):
                    yield dup_index, echo_result_for_duplicate(result, dup_request)
        finally:
            if self.autosave and self.cache is not None and self.cache.path is not None:
                self.cache.save()

    def _run_inline(
        self, pending: List[Tuple[int, SolveRequest]]
    ) -> Iterator[Tuple[int, SolveResult]]:
        """Solve pending jobs one by one in this process."""
        for index, request in pending:
            result = execute_request(request, registry=self.registry)
            self._cache_store(request, result)
            yield index, result

    def close(self) -> None:
        """Shut down a kept process pool (no-op otherwise)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _acquire_pool(self) -> Tuple[ProcessPoolExecutor, bool]:
        """The pool to dispatch on, plus whether this call owns it."""
        if self.keep_pool:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool, False
        return ProcessPoolExecutor(max_workers=self.workers), True

    def _run_pool(
        self, pending: List[Tuple[int, SolveRequest]]
    ) -> Iterator[Tuple[int, SolveResult]]:
        """Dispatch pending jobs onto a process pool, yielding as completed."""
        pool, ephemeral = self._acquire_pool()
        tracer = get_tracer()
        collect_spans = tracer.enabled
        parent = tracer.current_context() if collect_spans else None
        parent_dict = parent.to_dict() if parent is not None else None
        try:
            futures = {}
            for index, request in pending:
                future = pool.submit(
                    _execute_job_payload,
                    request.to_dict(),
                    parent_dict,
                    collect_spans,
                )
                futures[future] = (index, request)
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    index, request = futures[future]
                    try:
                        payload = future.result()
                        if collect_spans:
                            tracer.adopt(payload.get("spans", ()))
                            payload = payload["result"]
                        result = SolveResult.from_dict(payload)
                    except Exception as exc:  # worker crashed, not a solver error
                        result = SolveResult.from_error(
                            request, f"worker failure: {type(exc).__name__}: {exc}"
                        )
                    self._cache_store(request, result)
                    yield index, result
        finally:
            if ephemeral:
                pool.shutdown()
