"""Worker pool: drain the job queue into the service frontend.

``num_workers`` asyncio tasks pull jobs off the :class:`JobQueue` and
run each through :meth:`ServiceFrontend.submit` on a thread-pool
executor, so the event loop stays responsive while solvers burn CPU.
Around every solve the worker installs an anytime-improvement observer
(:func:`~repro.baselines.anytime.observe_improvements`) that forwards
incumbent improvements — including those made on portfolio member
threads — back to the event loop, where the
:class:`~repro.server.streaming.StreamBroker` fans them out to
subscribed clients.

Duplicate in-flight requests are **coalesced**: a job whose coalesce key
(the request's cache key, the identity the result cache stores it
under) matches a queued-or-running job is not enqueued at all; it is
parked as a *follower* of that representative and, on completion,
receives an echo of the representative's result marked ``from_cache``
— four clients asking for the same expensive solve cost the server one
execution.

Batching note: jobs are executed one request per executor slot, each
under its own observer context, so every streamed improvement is
attributable to its job.  Concurrency comes from the worker count, and
cross-job reuse comes from the result cache, the prepared-pipeline cache
and coalescing.  ``repro-mqo batch`` runs its workloads on this tier (or
on shards) through a private server.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, List, Tuple

from repro.exceptions import AdmissionError
from repro.obs.trace import get_tracer
from repro.server.metrics import ServerMetrics
from repro.server.queue import JobQueue, ServerJob
from repro.server.streaming import StreamBroker, forward_job_stream
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveResult, echo_result_for_duplicate

__all__ = ["BasePool", "WorkerPool", "FusionPool"]


def _result_payload(job: ServerJob) -> Dict[str, object]:
    """The broker payload carrying a job's final result."""
    assert job.result is not None
    return {
        "type": "result",
        "job_id": job.job_id,
        "result": job.result.to_dict(),
    }


class BasePool:
    """Shared admission, coalescing and completion bookkeeping.

    The server can execute jobs on two tiers — executor threads
    (:class:`WorkerPool`) or shard processes
    (:class:`~repro.server.sharding.ShardPool`) — but admission control,
    in-flight coalescing, follower echoing and completion accounting are
    tier-independent: they live here, run only on the event-loop thread,
    and the tiers plug in their execution machinery around them.

    Parameters
    ----------
    queue:
        Source of admitted jobs; ``None`` popped from it signals drain.
    broker:
        Stream broker updates and final results are published through.
    metrics:
        Counter/latency sink.
    coalesce:
        Fold duplicate in-flight requests onto one execution (default).

    Attributes
    ----------
    tier:
        The execution tier :meth:`health` names.
    finished:
        Every finished job (representative or follower) in finish
        order, appended once its result is published.  The server pops
        it from the oldest end when it prunes the jobs it tracks.
    """

    tier = "threads"

    def __init__(
        self,
        queue: JobQueue,
        broker: StreamBroker,
        metrics: ServerMetrics,
        coalesce: bool = True,
    ) -> None:
        self.queue = queue
        self.broker = broker
        self.metrics = metrics
        self.coalesce = coalesce
        self.finished: Deque[ServerJob] = deque()
        self._tasks: List["asyncio.Task[None]"] = []
        self._inflight_by_key: Dict[str, ServerJob] = {}
        self._followers: Dict[str, List[ServerJob]] = {}

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle surface shared by the tiers
    # ------------------------------------------------------------------ #
    @property
    def active(self) -> int:
        """Number of jobs currently executing (tier-specific)."""
        raise NotImplementedError

    def pending_jobs(self) -> int:
        """Queued plus executing jobs (drain waits for this to hit zero)."""
        return self.queue.depth + self.active

    def start(self) -> None:
        """Spawn the tier's tasks on the running event loop."""
        raise NotImplementedError

    async def join(self) -> None:
        """Wait for every pool task to exit (requires ``queue.drain()`` first)."""
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    def cancel_tasks(self) -> None:
        """Cancel the pool's event-loop tasks (drain timed out / hard stop)."""
        for task in self._tasks:
            task.cancel()

    def shutdown_executor(self) -> None:
        """Tear down tier-specific execution resources (after :meth:`join`)."""

    def health(self) -> Dict[str, object]:
        """The tier's state, the one source of ``health`` and ``stats["health"]``.

        The thread tier is in-process — its workers cannot die without
        taking the server with them — so the verdict is simply ``ok``
        or ``draining``.  :class:`~repro.server.sharding.ShardPool`
        overrides this with real per-shard state.
        """
        return {
            "verdict": "draining" if self.queue.draining else "ok",
            "tier": self.tier,
            "active": self.active,
            "queue_depth": self.queue.depth,
            "draining": self.queue.draining,
        }

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    @staticmethod
    def coalesce_key(job: ServerJob) -> str:
        """Duplicate-detection identity of a job: its request's cache key."""
        return job.request.cache_key()

    def admit(self, job: ServerJob) -> str:
        """Queue ``job``, or coalesce it onto an in-flight duplicate.

        Returns ``"queued"`` or ``"coalesced"``.  Raises
        :class:`~repro.exceptions.AdmissionError` when the queue refuses
        the job; the caller turns that into a backpressure error frame.
        Coalesced followers are bounded too: they are rejected while the
        server drains, and each representative accepts at most the
        queue's capacity in followers — a duplicate storm cannot grow
        server state without limit.
        """
        job.coalesce_key = self.coalesce_key(job)
        if self.coalesce:
            representative = self._inflight_by_key.get(job.coalesce_key)
            if representative is not None:
                if self.queue.draining:
                    raise AdmissionError(
                        "server is draining; no new jobs accepted", code="draining"
                    )
                followers = self._followers.setdefault(representative.job_id, [])
                if len(followers) >= self.queue.capacity:
                    raise AdmissionError(
                        f"job {representative.job_id} already has {len(followers)} "
                        "coalesced duplicates; retry later",
                        code="queue_full",
                    )
                job.coalesced_with = representative.job_id
                followers.append(job)
                # An urgent duplicate must not wait behind a lazy queued
                # representative: the representative inherits the urgency.
                if job.priority < representative.priority:
                    self.queue.promote(representative, job.priority)
                self.metrics.increment("jobs_submitted")
                self.metrics.increment("jobs_coalesced")
                return "coalesced"
        self.queue.push(job)  # may raise AdmissionError
        self._inflight_by_key[job.coalesce_key] = job
        self.metrics.increment("jobs_submitted")
        return "queued"

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #
    def _finish(self, job: ServerJob, result: SolveResult) -> None:
        """Publish a finished job's result to it and all its followers.

        Every tier completes jobs here, and here alone.  Once a job's
        result is published — and echoed to each follower from the
        follower's own request — the job's request is released, so a
        finished job costs about the size of its result rather than
        that of its parsed problem.
        """
        job.result = result
        job.finished_at = time.monotonic()
        self.metrics.observe_job(
            queue_wait_ms=job.queue_wait_ms(),
            run_ms=job.run_time_ms(),
            failed=not result.ok,
        )
        self._inflight_by_key.pop(job.coalesce_key, None)
        followers = self._followers.pop(job.job_id, [])
        self.broker.close(job.job_id, _result_payload(job))
        self._release(job)
        for follower in followers:
            follower.result = echo_result_for_duplicate(result, follower.request)
            # A follower admitted after its representative started never
            # waited past its own admission; clamp so queue-wait samples
            # stay non-negative.
            if follower.started_at is None:
                follower.started_at = max(job.started_at or follower.enqueued_at,
                                          follower.enqueued_at)
            follower.finished_at = time.monotonic()
            self.metrics.observe_job(queue_wait_ms=follower.queue_wait_ms(), run_ms=0.0,
                                     failed=not follower.result.ok)
            self.broker.close(follower.job_id, _result_payload(follower))
            self._release(follower)

    def _release(self, job: ServerJob) -> None:
        """Drop a published job's request and queue the job for pruning."""
        job.request = None
        self.finished.append(job)


class WorkerPool(BasePool):
    """Asyncio workers that execute queued jobs on executor threads.

    Parameters
    ----------
    frontend:
        The service facade jobs are executed through (cache-aware).
    queue / broker / metrics / coalesce:
        See :class:`BasePool`.
    num_workers:
        Number of concurrent jobs (asyncio tasks *and* executor threads).
    """

    def __init__(
        self,
        frontend: ServiceFrontend,
        queue: JobQueue,
        broker: StreamBroker,
        metrics: ServerMetrics,
        num_workers: int = 2,
        coalesce: bool = True,
    ) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        super().__init__(queue=queue, broker=broker, metrics=metrics, coalesce=coalesce)
        self.frontend = frontend
        self.num_workers = num_workers
        self._executor = ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="repro-server-worker"
        )
        self._active = 0

    @property
    def active(self) -> int:
        """Number of jobs currently executing."""
        return self._active

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn the worker tasks on the running event loop."""
        if self._tasks:
            raise RuntimeError("worker pool already started")
        for index in range(self.num_workers):
            task = asyncio.get_running_loop().create_task(
                self._worker(), name=f"repro-server-worker-{index}"
            )
            self._tasks.append(task)

    def shutdown_executor(self) -> None:
        """Tear down the thread pool (after :meth:`join`)."""
        self._executor.shutdown(wait=False, cancel_futures=True)

    async def _worker(self) -> None:
        """One worker task: pop, execute, publish — until drained."""
        while True:
            job = await self.queue.get()
            if job is None:
                return
            self._active += 1
            try:
                await self._run_job(job)
            finally:
                self._active -= 1

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    async def _run_job(self, job: ServerJob) -> None:
        """Execute one job on the executor, streaming improvements."""
        loop = asyncio.get_running_loop()
        job.started_at = time.monotonic()

        def forward(message: Tuple[Any, ...]) -> None:
            try:
                loop.call_soon_threadsafe(self.broker.publish, message)
            except RuntimeError:  # loop already closed mid-shutdown
                pass

        def execute() -> SolveResult:
            with forward_job_stream(job.job_id, job.started_at, forward):
                return self.frontend.submit(job.request)

        try:
            result = await loop.run_in_executor(self._executor, execute)
        except Exception as exc:  # noqa: BLE001 — frontend.submit already captures
            # solver errors; this guards the executor/serialisation path.
            result = SolveResult.from_error(job.request, f"{type(exc).__name__}: {exc}")
        self._finish(job, result)


class FusionPool(WorkerPool):
    """Worker pool with cross-request anneal fusion.

    Enabled by ``ServerConfig(fusion_window_ms=...)``.  Jobs whose
    solver can join a fused anneal (the annealing-backed solvers in
    ``fusion_solvers``, ``"QA"`` by default) are *staged* instead of
    executed immediately: the first staged job opens an **admission
    window**; every fusable job popped within ``fusion_window_ms`` joins
    it, and when the window expires — or fills up to
    ``fusion_max_jobs`` — the whole batch executes as one fused
    block-diagonal anneal via :meth:`ServiceFrontend.submit_fused`.
    Everything else (portfolio requests, classical solvers) runs on the
    inherited solo path concurrently with open windows.

    Scatter: fused jobs produce no live improvement callbacks (the
    annealer reports its trajectory on the device-time axis after the
    fact — exactly like a solo QA job), so after the window completes
    each job's monotone trajectory is published to its stream
    subscribers before the final result closes the channel.  Two clients
    sharing one window each receive their own stream.

    Observability: every window feeds the fusion counters, batch-size
    gauge and window-time histogram of
    :class:`~repro.server.metrics.ServerMetrics` plus
    ``server.fusion.window`` / ``server.fusion.scatter`` spans;
    :meth:`health` names the tier ``fusion`` and counts the staged jobs.
    """

    tier = "fusion"

    def __init__(
        self,
        frontend: ServiceFrontend,
        queue: JobQueue,
        broker: StreamBroker,
        metrics: ServerMetrics,
        num_workers: int = 2,
        coalesce: bool = True,
        fusion_window_ms: float = 2.0,
        fusion_max_jobs: int = 8,
        fusion_solvers: tuple = ("QA",),
    ) -> None:
        if fusion_window_ms <= 0:
            raise ValueError(f"fusion_window_ms must be positive, got {fusion_window_ms}")
        if fusion_max_jobs <= 1:
            raise ValueError(f"fusion_max_jobs must be at least 2, got {fusion_max_jobs}")
        super().__init__(
            frontend=frontend,
            queue=queue,
            broker=broker,
            metrics=metrics,
            num_workers=num_workers,
            coalesce=coalesce,
        )
        self.fusion_window_ms = fusion_window_ms
        self.fusion_max_jobs = fusion_max_jobs
        self.fusion_solvers = tuple(fusion_solvers)
        self._staged: List[ServerJob] = []
        self._fused_running = 0
        self._window_running = False
        self._window_timer: "asyncio.Task[None] | None" = None
        self._aux_tasks: set = set()

    @property
    def active(self) -> int:
        """Executing jobs plus jobs staged in or running through a window."""
        return self._active + len(self._staged) + self._fused_running

    def health(self) -> Dict[str, object]:
        """Thread-tier state plus the jobs staged in the open window."""
        health = super().health()
        health["staged"] = len(self._staged)
        return health

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def join(self) -> None:
        """Wait for workers, open windows and the window timer to finish."""
        await super().join()
        while self._aux_tasks:
            await asyncio.gather(*list(self._aux_tasks), return_exceptions=True)

    def cancel_tasks(self) -> None:
        """Cancel worker tasks plus any window timer/flush tasks."""
        super().cancel_tasks()
        for task in list(self._aux_tasks):
            task.cancel()

    def _spawn_aux(self, coro, name: str) -> "asyncio.Task[None]":
        """Track a timer/flush task so join/cancel cover it."""
        task = asyncio.get_running_loop().create_task(coro, name=name)
        self._aux_tasks.add(task)
        task.add_done_callback(self._aux_tasks.discard)
        return task

    # ------------------------------------------------------------------ #
    # Admission window
    # ------------------------------------------------------------------ #
    def _fusable(self, job: ServerJob) -> bool:
        """Whether a job may join a fused anneal window."""
        return job.request.solver in self.fusion_solvers

    async def _worker(self) -> None:
        """Pop jobs; stage fusable ones into the window, run the rest solo."""
        while True:
            job = await self.queue.get()
            if job is None:
                # Drain: whatever is staged right now is the last window.
                await self._flush_window()
                return
            if self._fusable(job):
                self._stage(job)
                continue
            self._active += 1
            try:
                await self._run_job(job)
            finally:
                self._active -= 1

    def _stage(self, job: ServerJob) -> None:
        """Add a job to the open admission window (opening one if needed)."""
        self._staged.append(job)
        if len(self._staged) >= self.fusion_max_jobs:
            self._spawn_aux(self._flush_window(), name="repro-server-fusion-flush")
        elif self._window_timer is None or self._window_timer.done():
            self._window_timer = self._spawn_aux(
                self._window_expiry(), name="repro-server-fusion-window"
            )

    async def _window_expiry(self) -> None:
        """Flush the window when the admission period ends."""
        await asyncio.sleep(self.fusion_window_ms / 1000.0)
        await self._flush_window()

    async def _flush_window(self) -> None:
        """Execute the staged jobs as one fused batch.

        At most one window executes at a time (continuous batching):
        while one runs, newly staged jobs keep accumulating, and the
        running window's completion flushes them immediately — so under
        load windows grow toward ``fusion_max_jobs`` instead of the
        timer shaving off many tiny batches, while an idle server still
        pays at most ``fusion_window_ms`` of added latency.
        """
        if self._window_running:
            return  # the running window's completion re-flushes
        jobs = self._staged[: self.fusion_max_jobs]
        del self._staged[: len(jobs)]
        # A job staged after this point belongs to a fresh window with its
        # own timer, so drop the handle before any await.  A timer still
        # sleeping (max-jobs or drain flush beat it) is cancelled so a
        # graceful drain does not wait out its full admission window.
        timer, self._window_timer = self._window_timer, None
        if timer is not None and timer is not asyncio.current_task() and not timer.done():
            timer.cancel()
        if not jobs:
            return
        self._window_running = True
        try:
            await self._run_window(jobs)
        finally:
            self._window_running = False
        if self._staged:
            await self._flush_window()

    # ------------------------------------------------------------------ #
    # Fused execution
    # ------------------------------------------------------------------ #
    async def _run_window(self, jobs: List[ServerJob]) -> None:
        """Run one fused batch on the executor and scatter the results."""
        loop = asyncio.get_running_loop()
        self._fused_running += len(jobs)
        started = time.monotonic()
        for job in jobs:
            job.started_at = started
        requests = [job.request for job in jobs]
        tracer = get_tracer()
        try:
            with tracer.span(
                "server.fusion.window", {"batch_size": len(jobs)}
            ):
                results = await loop.run_in_executor(
                    self._executor, lambda: self.frontend.submit_fused(requests)
                )
        except Exception as exc:  # noqa: BLE001 — submit_fused captures solver
            # errors per request; this guards the executor/window path.
            results = [
                SolveResult.from_error(request, f"{type(exc).__name__}: {exc}")
                for request in requests
            ]
        window_ms = (time.monotonic() - started) * 1000.0
        self.metrics.observe_fusion_window(batch_size=len(jobs), window_ms=window_ms)
        try:
            with tracer.span("server.fusion.scatter", {"batch_size": len(jobs)}):
                for job, result in zip(jobs, results):
                    self._scatter(job, result)
        finally:
            self._fused_running -= len(jobs)

    def _scatter(self, job: ServerJob, result: SolveResult) -> None:
        """Publish one fused job's stream updates and final result."""
        # Solo QA jobs stream no live improvements (the trajectory exists
        # only after decoding), so parity for fused jobs means publishing
        # the monotone trajectory now, before the result closes the channel.
        if job.stream and result.ok:
            for time_ms, cost in result.trajectory:
                self.broker.publish_improvement(
                    job.job_id, result.winner or job.request.solver, time_ms, cost
                )
        self._finish(job, result)
