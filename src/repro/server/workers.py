"""The worker pool: one execution abstraction behind both tiers.

:class:`WorkerPool` owns everything that does not depend on where a job
runs — admission with in-flight coalescing, the fusion window, and
completion — and runs each **unit** of work (one job, or one closed
fusion window) on an idle **slot**:

* without shards, a slot is one of ``num_workers`` executor threads of
  the server process;
* with ``num_shards``, a slot is one of ``num_workers`` threads in one
  of the shard processes of :mod:`repro.server.sharding`.

``num_workers`` therefore means concurrent units per solver process on
both tiers.  Every slot is an asyncio task that pulls its next unit from
the one :class:`~repro.server.queue.JobQueue`, so priorities and
per-client fairness decide what runs next wherever it runs, and no slot
idles while a job waits.

Duplicate in-flight requests are **coalesced**: a job whose coalesce key
(the request's cache key, the identity the result cache stores it
under) matches a queued-or-running job is not enqueued at all; it is
parked as a *follower* of that representative and, on completion,
receives an echo of the representative's result marked ``from_cache``
— four clients asking for the same expensive solve cost the server one
execution.

Every unit goes through the server's :class:`ServiceFrontend` on a slot
thread, so its result cache is the server's only one: a hit is answered
before a request crosses a pipe, and a fresh result is stored whether
the server or a shard computed it.  Around a solo job on the thread
tier the slot installs an anytime-improvement observer
(:func:`~repro.server.streaming.forward_job_stream`) that forwards
incumbent improvements — including those made on portfolio member
threads — back to the event loop, where the
:class:`~repro.server.streaming.StreamBroker` fans them out to
subscribed clients; a shard forwards them over its pipe.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.exceptions import AdmissionError
from repro.obs.events import record_event
from repro.obs.trace import get_tracer
from repro.server.metrics import ServerMetrics
from repro.server.queue import JobQueue, ServerJob
from repro.server.sharding import ShardDied, ShardSet
from repro.server.streaming import StreamBroker, forward_job_stream
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveResult, echo_result_for_duplicate

__all__ = ["WorkerPool"]

#: Solvers whose jobs join the fusion window: the annealing-backed one.
_FUSABLE_SOLVERS = frozenset({"QA"})


def _result_payload(job: ServerJob) -> Dict[str, object]:
    """The broker payload carrying a job's final result."""
    assert job.result is not None
    return {
        "type": "result",
        "job_id": job.job_id,
        "result": job.result.to_dict(),
    }


class _Unit(NamedTuple):
    """What one slot runs at a time: a job, or a closed fusion window."""

    jobs: List[ServerJob]
    fused: bool


class WorkerPool:
    """Admission, coalescing, fusion and completion over one set of slots.

    Parameters
    ----------
    frontend:
        The service facade every unit runs through (cache-aware).
    queue:
        Source of admitted jobs; ``None`` popped from it signals drain.
    broker:
        Stream broker updates and final results are published through.
    metrics:
        Counter/latency sink.
    num_workers:
        Concurrent units per solver process: executor threads of the
        server, or threads in each shard process.
    num_shards:
        ``0`` runs units in the server process; a positive count starts
        that many shard processes (``-1`` = one per CPU core).
    frontend_factory:
        Picklable zero-argument builder of a shard's frontend, whose
        registry the shard solves with (default: :class:`ServiceFrontend`).
    heartbeat_interval_s:
        Cadence of each shard's metrics heartbeat (see
        :class:`~repro.server.sharding.ShardSet`).
    fusion_window_ms:
        ``0`` (default) disables fusion.  A positive value *stages* every
        QA job instead of running it: the first staged job opens a
        window, and when ``fusion_window_ms`` has passed — or it holds
        ``fusion_max_jobs`` jobs — the window closes into one unit that
        runs as one :meth:`ServiceFrontend.submit_fused` on whichever
        slot takes it.  Every other job runs solo meanwhile.
    fusion_max_jobs:
        Jobs per fusion window before it closes early.

    Attributes
    ----------
    finished:
        Every finished job (representative or follower) in finish
        order, appended once its result is published.  The server pops
        it from the oldest end when it prunes the jobs it tracks.
    shards:
        The :class:`~repro.server.sharding.ShardSet`, or ``None``
        without shards.
    """

    def __init__(
        self,
        frontend: ServiceFrontend,
        queue: JobQueue,
        broker: StreamBroker,
        metrics: ServerMetrics,
        num_workers: int = 2,
        num_shards: int = 0,
        frontend_factory: Optional[Callable[[], ServiceFrontend]] = None,
        heartbeat_interval_s: float = 1.0,
        fusion_window_ms: float = 0.0,
        fusion_max_jobs: int = 8,
    ) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if fusion_window_ms < 0:
            raise ValueError(f"fusion_window_ms must be non-negative, got {fusion_window_ms}")
        if fusion_window_ms > 0 and fusion_max_jobs <= 1:
            raise ValueError(f"fusion_max_jobs must be at least 2, got {fusion_max_jobs}")
        self.frontend = frontend
        self.queue = queue
        self.broker = broker
        self.metrics = metrics
        self.num_workers = num_workers
        self.fusion_window_ms = fusion_window_ms
        self.fusion_max_jobs = fusion_max_jobs
        self.shards: Optional[ShardSet] = None
        if num_shards != 0:
            self.shards = ShardSet(
                count=num_shards,
                workers=num_workers,
                frontend_factory=frontend_factory or ServiceFrontend,
                queue=queue,
                broker=broker,
                metrics=metrics,
                heartbeat_interval_s=heartbeat_interval_s,
            )
        hosts = self.shards.count if self.shards is not None else 1
        self._executor = ThreadPoolExecutor(
            max_workers=num_workers * hosts, thread_name_prefix="repro-server-slot"
        )
        self.finished: Deque[ServerJob] = deque()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._tasks: List["asyncio.Task[None]"] = []
        self._inflight_by_key: Dict[str, ServerJob] = {}
        self._followers: Dict[str, List[ServerJob]] = {}
        self._taken = 0
        self._staged: List[ServerJob] = []
        self._window_timer: Optional[asyncio.TimerHandle] = None
        # Closed windows not finished yet, and how many may be: one per
        # solver process, so under load the next window grows while the
        # current one anneals (continuous batching).
        self._windows = 0
        self._window_limit = hosts

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def active(self) -> int:
        """Jobs taken off the queue and not finished: staged or running."""
        return self._taken

    def pending_jobs(self) -> int:
        """Queued plus taken jobs (drain waits for this to hit zero)."""
        return self.queue.depth + self._taken

    def health(self) -> Dict[str, object]:
        """The pool's state, the one source of ``health`` and ``stats["health"]``.

        Without shards the pool runs in the server process — its slots
        cannot die without taking the server with them — so the verdict
        is simply ``ok`` or ``draining``; with shards the
        :class:`~repro.server.sharding.ShardSet` supplies the verdict and
        the per-shard state.  ``staged`` counts the jobs in the open
        fusion window when fusion is on.
        """
        health: Dict[str, object] = {
            "verdict": "draining" if self.queue.draining else "ok",
            "tier": "threads",
            "active": self.active,
            "queue_depth": self.queue.depth,
            "draining": self.queue.draining,
        }
        if self.fusion_window_ms > 0:
            health["staged"] = len(self._staged)
        if self.shards is not None:
            health.update(self.shards.health())
        return health

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the shards, if any, and one task per slot."""
        if self._tasks:
            raise RuntimeError("worker pool already started")
        self._loop = asyncio.get_running_loop()
        hosts: List[Optional[int]] = [None]
        if self.shards is not None:
            self.shards.start()
            hosts = list(range(self.shards.count))
        # Interleaved, so consecutive idle slots sit on different shards.
        for worker in range(self.num_workers):
            for host in hosts:
                name = f"repro-server-slot-{worker}" + ("" if host is None else f"-shard-{host}")
                self._tasks.append(self._loop.create_task(self._slot(host), name=name))

    async def join(self) -> None:
        """Wait for every slot, then every shard, to exit (after ``queue.drain()``)."""
        await asyncio.gather(*self._tasks, return_exceptions=True)
        if self.shards is not None:
            await self.shards.stop()

    def cancel_tasks(self) -> None:
        """Cancel the slot tasks and the window timer (drain overran / hard stop)."""
        for task in self._tasks:
            task.cancel()
        if self._window_timer is not None:
            self._window_timer.cancel()

    def shutdown_executor(self) -> None:
        """Stop the shards and the slot threads (after :meth:`join`)."""
        if self.shards is not None:
            self.shards.shutdown()
        self._executor.shutdown(wait=False, cancel_futures=True)

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
        representative = self._inflight_by_key.get(job.coalesce_key)
        if representative is not None:
            if self.queue.draining:
                raise AdmissionError("server is draining; no new jobs accepted", code="draining")
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
    # Slots
    # ------------------------------------------------------------------ #
    async def _slot(self, shard: Optional[int]) -> None:
        """One slot: take units off the queue and run them until drained.

        A slot of a shard that died and was not replaced hands what it
        took back to the live shards' slots and exits — except while
        draining, or when no shard is alive, where it keeps taking units
        (and failing them) so nothing queued is stranded.
        """
        while True:
            item = await self.queue.get()
            if item is None:
                if self._close_window():
                    continue  # the last window waits at the queue's front
                return
            if (
                shard is not None
                and self.shards.dead(shard)
                and self.shards.any_alive()
                and not self.queue.draining
            ):
                self.queue.push_front(item)
                return
            if isinstance(item, ServerJob):
                self._taken += 1
                if self.fusion_window_ms > 0 and item.request.solver in _FUSABLE_SOLVERS:
                    self._stage(item)
                    continue
                item = _Unit([item], fused=False)
            await self._run(item, shard)

    async def _run(self, unit: _Unit, shard: Optional[int]) -> None:
        """Run one unit on this slot and publish its results.

        The coroutine awaiting a unit is its only owner: when the shard
        dies under it, this coroutine alone retries the unit (once per
        job, never while draining) or fails it.
        """
        assert self._loop is not None
        started = time.monotonic()
        for job in unit.jobs:
            job.started_at = started
        tracer = get_tracer()
        window_span = (
            tracer.span("server.fusion.window", {"batch_size": len(unit.jobs)})
            if unit.fused
            else contextlib.nullcontext()
        )
        try:
            with window_span:
                results = await self._loop.run_in_executor(
                    self._executor, self._execute, unit, shard
                )
        except ShardDied as died:
            if self._retry(unit, died):
                return
            results = []
            for job in unit.jobs:
                self.metrics.observe_shard_job(died.shard, failed=True)
                results.append(SolveResult.from_error(job.request, f"ServerError: {died}"))
        except Exception as exc:  # noqa: BLE001 — the frontend captures solver
            # errors; this guards the executor/serialisation path.
            results = [
                SolveResult.from_error(job.request, f"{type(exc).__name__}: {exc}")
                for job in unit.jobs
            ]
        if not unit.fused:
            self._finish(unit.jobs[0], results[0])
            return
        self._windows -= 1
        self.metrics.observe_fusion_window(
            batch_size=len(unit.jobs), window_ms=(time.monotonic() - started) * 1000.0
        )
        with tracer.span("server.fusion.scatter", {"batch_size": len(unit.jobs)}):
            for job, result in zip(unit.jobs, results):
                self._scatter(job, result)
        self._close_window()

    def _execute(self, unit: _Unit, shard: Optional[int]) -> List[SolveResult]:
        """Run a unit through the frontend (executor-thread body).

        On a shard slot the frontend still answers cache hits and stores
        fresh results; only its cache misses cross the pipe.
        """
        requests = [job.request for job in unit.jobs]
        if unit.fused:
            if shard is None:
                return self.frontend.submit_fused(requests)
            return self.frontend.submit_fused(
                requests, execute=lambda misses: self.shards.run(shard, "", misses, True)
            )
        (job,) = unit.jobs
        if shard is not None:
            return [
                self.frontend.submit(
                    job.request,
                    execute=lambda request: self.shards.run(shard, job.job_id, [request], False)[0],
                )
            ]
        with forward_job_stream(job.job_id, job.started_at, self._forward):
            return [self.frontend.submit(job.request)]

    def _forward(self, message: Tuple[Any, ...]) -> None:
        """Hand one stream message from a solver thread to the event loop."""
        assert self._loop is not None
        try:
            self._loop.call_soon_threadsafe(self.broker.publish, message)
        except RuntimeError:  # loop already closed mid-shutdown
            pass

    def _retry(self, unit: _Unit, died: ShardDied) -> bool:
        """Queue a unit whose shard died again, ahead of every queued job.

        Each job is retried once, and none while the server drains;
        returns whether the unit was queued again.
        """
        if self.queue.draining or any(job.retries for job in unit.jobs):
            return False
        for job in unit.jobs:
            job.retries += 1
            job.started_at = None
            self.metrics.increment("jobs_retried")
            self.metrics.observe_shard_retry(died.shard)
            record_event("job_retry", job_id=job.job_id, shard=died.shard)
        self.queue.push_front(unit)
        return True

    # ------------------------------------------------------------------ #
    # Fusion window
    # ------------------------------------------------------------------ #
    def _stage(self, job: ServerJob) -> None:
        """Add a job to the open fusion window (opening one if needed)."""
        self._staged.append(job)
        if len(self._staged) >= self.fusion_max_jobs:
            self._close_window()
        elif self._window_timer is None:
            assert self._loop is not None
            self._window_timer = self._loop.call_later(
                self.fusion_window_ms / 1000.0, self._close_window
            )

    def _close_window(self) -> bool:
        """Queue the staged jobs as one window unit; whether one was queued.

        A window closes when its time is up, when it is full, when the
        server drains, or when a running window finishes — but only
        while fewer than one window per solver process is closed and
        unfinished.  Otherwise the staged jobs keep accumulating, and a
        running window's completion closes them (continuous batching),
        so under load windows grow toward ``fusion_max_jobs`` while an
        idle server adds at most ``fusion_window_ms`` of latency.
        """
        if self._window_timer is not None:
            self._window_timer.cancel()
            self._window_timer = None
        if not self._staged or self._windows >= self._window_limit:
            return False
        jobs = self._staged[: self.fusion_max_jobs]
        del self._staged[: len(jobs)]
        self._windows += 1
        self.queue.push_front(_Unit(jobs, fused=True))
        return True

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

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #
    def _finish(self, job: ServerJob, result: SolveResult) -> None:
        """Publish a finished job's result to it and all its followers.

        Every job completes here, and here alone.  Once a job's result
        is published — and echoed to each follower from the follower's
        own request — the job's request is released, so a finished job
        costs about the size of its result rather than that of its
        parsed problem.
        """
        job.result = result
        job.finished_at = time.monotonic()
        self._taken -= 1
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
