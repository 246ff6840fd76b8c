"""Priority job queue with per-client fairness and admission control.

Two layers:

* :class:`FairScheduler` — the pure, synchronous data structure: jobs
  are grouped by priority level, and within one level clients take
  round-robin turns, so a client flooding the queue cannot starve the
  others.  Admission control lives here too: pushes beyond the global
  capacity or a per-client quota raise
  :class:`~repro.exceptions.AdmissionError` (bounded backpressure —
  callers are told to retry instead of the queue growing without bound).
* :class:`JobQueue` — the thin asyncio shell the server uses: the
  worker pool's slots ``await get()``, connection handlers ``push()``
  from the event loop, and :meth:`JobQueue.drain` flips the queue into
  shutdown mode (new pushes rejected, ``get()`` returns ``None`` once
  empty so slots exit after finishing what was already admitted).
  Work the pool already holds — a closed fusion window, a job retried
  after its shard died — goes back in with :meth:`JobQueue.push_front`,
  ahead of every queued job.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional

from repro.exceptions import AdmissionError
from repro.obs.events import record_event
from repro.server.protocol import DEFAULT_PRIORITY, PRIORITY_NAMES
from repro.service.jobs import SolveRequest, SolveResult

__all__ = ["ServerJob", "FairScheduler", "JobQueue"]


@dataclass
class ServerJob:
    """One unit of server work: a solve request plus its lifecycle state.

    Attributes
    ----------
    job_id:
        Server-unique identifier (``sj-<n>``); distinct from the
        client-facing :attr:`SolveRequest.job_id` echoed in the result.
    client_id:
        Fairness bucket the job was admitted under (the ``client`` field
        of the request, or a per-connection default).
    request:
        The solve request handed to the service frontend, held only
        while the job is queued or running.  Once the job's result is
        published, :meth:`~repro.server.workers.WorkerPool._finish`
        releases it (``None``): a finished job keeps its identity,
        priority, timestamps, ``coalesced_with`` and result — what
        ``wait``, ``subscribe``, ``stats`` and the metrics read — and
        not the parsed problem.
    priority:
        Priority level (0 = high, 1 = normal, 2 = low).
    stream:
        Whether the submitting connection asked for live anytime updates.
    coalesce_key:
        Duplicate-detection key (the request's cache key); filled in by
        the worker pool at admission.
    coalesced_with:
        Job id of the in-flight representative when this job was
        coalesced instead of queued.
    retries:
        Times the job was queued again after its shard died mid-job
        (the pool retries once before failing the job).
    enqueued_at / started_at / finished_at:
        Monotonic timestamps of the lifecycle transitions.
    result:
        The final outcome (``None`` while queued or running).
    """

    job_id: str
    client_id: str
    request: Optional[SolveRequest]
    priority: int = DEFAULT_PRIORITY
    stream: bool = False
    coalesce_key: str = ""
    coalesced_with: Optional[str] = None
    retries: int = 0
    enqueued_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[SolveResult] = None

    @property
    def done(self) -> bool:
        """Whether the job has a final result."""
        return self.result is not None

    @property
    def state(self) -> str:
        """Lifecycle state name: ``queued`` / ``running`` / ``done``."""
        if self.done:
            return "done"
        if self.started_at is not None:
            return "running"
        return "queued"

    @property
    def priority_name(self) -> str:
        """Human-readable priority level."""
        return PRIORITY_NAMES.get(self.priority, str(self.priority))

    def queue_wait_ms(self) -> float:
        """Milliseconds spent queued before a worker picked the job up."""
        if self.started_at is None:
            return (time.monotonic() - self.enqueued_at) * 1000.0
        return (self.started_at - self.enqueued_at) * 1000.0

    def run_time_ms(self) -> float:
        """Milliseconds between worker pickup and completion (0 if never ran)."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return (self.finished_at - self.started_at) * 1000.0


class FairScheduler:
    """Priority levels with round-robin fairness across clients.

    Jobs live in one FIFO deque per ``(priority, client)``.  ``pop()``
    serves the lowest (most urgent) non-empty priority level, and within
    that level rotates over the clients that have pending jobs — after a
    client is served its bucket moves to the back of the rotation, so
    interleaved arrivals from many clients are served interleaved no
    matter how many jobs one client queued up front.

    Parameters
    ----------
    capacity:
        Global bound on queued jobs; pushes beyond raise
        :class:`AdmissionError` (``code="queue_full"``).
    max_per_client:
        Optional per-client bound (``code="client_quota"``); ``None``
        leaves clients bounded only by the global capacity.
    """

    def __init__(self, capacity: int = 128, max_per_client: Optional[int] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity}")
        if max_per_client is not None and max_per_client <= 0:
            raise ValueError(f"max_per_client must be positive, got {max_per_client}")
        self.capacity = capacity
        self.max_per_client = max_per_client
        # priority level -> client id -> FIFO of jobs (OrderedDict gives
        # us the round-robin rotation: serve first client, move to end).
        self._levels: Dict[int, "OrderedDict[str, Deque[ServerJob]]"] = {}
        self._depth = 0
        self._per_client: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Number of queued jobs."""
        return self._depth

    def depth_for(self, client_id: str) -> int:
        """Number of queued jobs of one client."""
        return self._per_client.get(client_id, 0)

    def __len__(self) -> int:
        return self._depth

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #
    def push(self, job: ServerJob) -> None:
        """Admit ``job`` or raise :class:`AdmissionError` (backpressure)."""
        if self._depth >= self.capacity:
            record_event(
                "admission_reject", code="queue_full", client=job.client_id, depth=self._depth
            )
            raise AdmissionError(
                f"queue is full ({self._depth}/{self.capacity} jobs); retry later",
                code="queue_full",
            )
        pending = self._per_client.get(job.client_id, 0)
        if self.max_per_client is not None and pending >= self.max_per_client:
            record_event(
                "admission_reject", code="client_quota", client=job.client_id, pending=pending
            )
            raise AdmissionError(
                f"client {job.client_id!r} already has {pending} queued jobs "
                f"(quota {self.max_per_client}); retry later",
                code="client_quota",
            )
        clients = self._levels.setdefault(job.priority, OrderedDict())
        bucket = clients.get(job.client_id)
        if bucket is None:
            bucket = deque()
            clients[job.client_id] = bucket
        bucket.append(job)
        self._depth += 1
        self._per_client[job.client_id] = pending + 1

    def promote(self, job: ServerJob, priority: int) -> bool:
        """Raise a *queued* job to a more urgent priority level.

        Used when an urgent duplicate coalesces onto a less urgent queued
        representative: the representative inherits the follower's
        urgency so the priority contract holds for both.  Returns whether
        the job was found and moved (``False`` when it already left the
        queue or the new priority is not more urgent).
        """
        if priority >= job.priority:
            return False
        clients = self._levels.get(job.priority)
        bucket = clients.get(job.client_id) if clients else None
        if bucket is None or job not in bucket:
            return False  # already popped (running or done)
        bucket.remove(job)
        if not bucket:
            del clients[job.client_id]
        if not clients:
            del self._levels[job.priority]
        job.priority = priority
        new_clients = self._levels.setdefault(priority, OrderedDict())
        new_bucket = new_clients.get(job.client_id)
        if new_bucket is None:
            new_bucket = deque()
            new_clients[job.client_id] = new_bucket
        new_bucket.append(job)
        return True

    def pop(self) -> Optional[ServerJob]:
        """The next job to run, or ``None`` when the queue is empty."""
        for priority in sorted(self._levels):
            clients = self._levels[priority]
            if not clients:
                continue
            client_id, bucket = next(iter(clients.items()))
            job = bucket.popleft()
            if bucket:
                clients.move_to_end(client_id)  # round-robin rotation
            else:
                del clients[client_id]
            if not clients:
                del self._levels[priority]
            self._depth -= 1
            remaining = self._per_client.get(client_id, 1) - 1
            if remaining > 0:
                self._per_client[client_id] = remaining
            else:
                self._per_client.pop(client_id, None)
            return job
        return None


class JobQueue:
    """Asyncio shell around :class:`FairScheduler` for the server loop.

    All methods must be called from the event-loop thread.  Slots
    ``await get()``; connection handlers ``push()``.  :meth:`drain`
    starts graceful shutdown: subsequent pushes raise
    :class:`AdmissionError` (``code="draining"``) and every waiting or
    future ``get()`` returns ``None`` once the backlog is empty.
    """

    def __init__(self, capacity: int = 128, max_per_client: Optional[int] = None) -> None:
        self._scheduler = FairScheduler(capacity=capacity, max_per_client=max_per_client)
        self._front: Deque[Any] = deque()
        self._waiters: Deque["asyncio.Future[Any]"] = deque()
        self._draining = False

    @property
    def depth(self) -> int:
        """Number of queued jobs."""
        return self._scheduler.depth

    @property
    def capacity(self) -> int:
        """Global admission bound."""
        return self._scheduler.capacity

    @property
    def draining(self) -> bool:
        """Whether graceful shutdown has begun."""
        return self._draining

    @property
    def waiting(self) -> int:
        """Number of ``get()`` calls currently blocked on an empty queue.

        Test synchronisation hook: "a worker is parked and waiting" is
        observable state, so tests poll this instead of sleeping a fixed
        interval and hoping the scheduler ran the worker task.
        """
        return sum(1 for waiter in self._waiters if not waiter.done())

    def depth_for(self, client_id: str) -> int:
        """Number of queued jobs of one client."""
        return self._scheduler.depth_for(client_id)

    def push(self, job: ServerJob) -> None:
        """Admit ``job`` and wake one waiting worker.

        Raises :class:`AdmissionError` under backpressure or while
        draining.
        """
        if self._draining:
            record_event("admission_reject", code="draining", client=job.client_id)
            raise AdmissionError("server is draining; no new jobs accepted", code="draining")
        self._scheduler.push(job)
        self._wake(1)

    def push_front(self, unit: Any) -> None:
        """Hand ``unit`` to the next ``get()``, ahead of every queued job.

        For work that was admitted once already: it bypasses admission
        control, priorities and the drain, and is not counted in
        :attr:`depth`.
        """
        self._front.append(unit)
        self._wake(1)

    def promote(self, job: ServerJob, priority: int) -> bool:
        """Raise a queued job's urgency (see :meth:`FairScheduler.promote`)."""
        return self._scheduler.promote(job, priority)

    async def get(self) -> Optional[Any]:
        """Wait for the next unit (``push_front``) or job; ``None`` signals a slot to exit."""
        while True:
            if self._front:
                return self._front.popleft()
            job = self._scheduler.pop()
            if job is not None:
                return job
            if self._draining:
                return None
            waiter: "asyncio.Future[Any]" = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                if not waiter.done():
                    waiter.cancel()
                raise

    def drain(self) -> None:
        """Reject new pushes and release every waiting slot."""
        self._draining = True
        self._wake(len(self._waiters))

    def _wake(self, count: int) -> None:
        """Release up to ``count`` waiting ``get()`` calls."""
        while count > 0 and self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                count -= 1
