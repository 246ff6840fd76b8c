"""Sharded multi-process worker tier: one solver process per core.

:class:`~repro.server.workers.WorkerPool` executes jobs on threads, so
CPU-bound solves serialise on the GIL.  :class:`ShardPool` is the
shared-nothing alternative: ``num_shards`` child processes, each owning
a private :class:`~repro.service.frontend.ServiceFrontend` (result
cache, prepared-pipeline caches, solver registry), fed over one
:class:`multiprocessing.connection.Connection` pipe each.

Design points:

* **Routing.** Jobs are routed by the problem's ``canonical_hash``
  (:func:`shard_for`), so repeated solves of the same instance land on
  the same shard and hit that shard's warm caches.  The hash is already
  memoised by admission-time coalescing, so routing costs one modulo.
* **Zero-copy handoff.** Requests cross the pipe as the problem's
  :class:`~repro.mqo.arrays.ProblemArrays` columns pickled with
  protocol 5: every NumPy column travels as an out-of-band buffer
  (:func:`send_message`), never staged through the pickle stream, and
  the receiving arrays wrap the received buffers directly.  The shard
  rebuilds the problem object around the transferred columns
  (:func:`~repro.mqo.arrays.problem_from_arrays`).
* **Streaming.** Anytime improvements and decomposition progress
  observed inside a shard are forwarded over the pipe
  (:func:`~repro.server.streaming.forward_job_stream`) and republished
  on the parent's event loop through the
  :class:`~repro.server.streaming.StreamBroker`, so clients see the same
  live ``update`` and ``progress`` stream as with the thread tier.
* **Coalescing** stays in the parent (:class:`BasePool.admit`): only
  execution moves into the shards, so duplicate in-flight requests are
  folded before any bytes cross a pipe.
* **Faults.** A shard that dies mid-job (crash, OOM-kill, SIGKILL) is
  detected by its reader thread (pipe EOF).  Its in-flight jobs are
  retried once on a live shard (when ``retry_on_shard_death``) or
  failed with a clean error result; the dead slot is respawned (up to
  ``max_restarts_per_shard`` times) and routing heals around it in the
  meantime.  Fail-over is **single-owner**: a job is failed over by
  whichever path pops it from the shard's ``assigned`` map first
  (:meth:`ShardPool._on_shard_exit` on pipe EOF, or the sender on a
  send error), so one job is never retried twice or finished twice.
  ``assigned`` holds unfinished jobs only — a job leaves it before its
  result is published — so retry and fail-over never meet a finished
  job, whose request :meth:`BasePool._finish` has already released.
* **Dispatch.** The dispatcher never blocks on one shard: a job whose
  shard's bounded outbox is full is parked in that shard's unbounded
  overflow deque instead, so a saturated shard cannot head-of-line
  block dispatch to idle shards.  The global bound that the outbox
  capacity used to provide moves to admission:
  :meth:`ShardPool.admit` rejects new jobs once queued plus dispatched
  jobs exceed the queue capacity plus a per-shard in-flight allowance.
* **Telemetry.** Each shard heartbeats its process-global metrics
  registry over the pipe (``heartbeat_interval_s``, plus an initial and
  a final drain-time snapshot); the parent stores the latest snapshot
  per slot and federates them into the Prometheus exposition under a
  ``shard="N"`` label.  Any inbound message refreshes the slot's
  ``last_heartbeat``.  :meth:`ShardPool.health` is the one producer of
  tier state — an ``ok|degraded|draining`` verdict plus per-shard
  liveness, depths and counts (read from the server registry) — which
  the ``health``, ``stats`` and ``metrics`` ops all render.
* **Drain.** ``queue.drain()`` stops admission; the dispatcher forwards
  the backlog, every shard receives a ``stop`` sentinel *behind* its
  queued jobs (pipes are FIFO), finishes them, and exits; ``join()``
  returns once every shard process has gone.

Span adoption: when tracing is enabled at dispatch time the shard runs
the job under its own tracer and ships the finished span records back
with the result, each tagged with a ``shard`` attribute, where the
parent :meth:`~repro.obs.trace.Tracer.adopt`\\ s them.  This pipe is
the only place spans cross a process boundary.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import struct
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import Connection
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.exceptions import AdmissionError
from repro.mqo.arrays import problem_from_arrays
from repro.obs.events import record_event
from repro.obs.metrics import get_registry
from repro.obs.trace import configure_tracer, get_tracer
from repro.server.metrics import ServerMetrics
from repro.server.queue import JobQueue, ServerJob
from repro.server.streaming import StreamBroker, forward_job_stream
from repro.server.workers import BasePool
from repro.service.cache import ResultCache
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest, SolveResult

__all__ = [
    "shard_for",
    "send_message",
    "recv_message",
    "encode_shard_request",
    "decode_shard_request",
    "default_shard_count",
    "ShardPool",
]

#: Hex digits of the canonical hash used for routing (64 bits is plenty).
_ROUTE_PREFIX = 16

#: Per-shard bound on dispatched-but-unsent jobs.  Small on purpose:
#: beyond it the dispatcher parks jobs in the shard's overflow deque,
#: and the per-shard in-flight allowance :meth:`ShardPool.admit` grants
#: on top of the queue capacity is sized from it.
_OUTBOX_CAPACITY = 4


def default_shard_count() -> int:
    """The shard count ``shards=-1`` resolves to: one per CPU core."""
    return max(os.cpu_count() or 1, 1)


def _default_mp_context() -> str:
    """The start method used when none is requested.

    ``forkserver`` where available (Unix): shard processes fork from a
    clean, single-threaded server process, so spawning (and *re*-spawning
    after a fault) is safe even though the parent runs reader threads,
    the send executor and — under :func:`~repro.server.app.run_server_in_thread`
    — the whole event loop off the main thread.  A bare ``fork`` in that
    parent could deadlock the child on locks held mid-fork (and is
    deprecated with threads from Python 3.12).  ``spawn`` is the
    fallback where ``forkserver`` does not exist.
    """
    methods = get_all_start_methods()
    if "forkserver" in methods:
        return "forkserver"
    return "spawn" if "spawn" in methods else "fork"


def shard_for(canonical_hash: str, num_shards: int) -> int:
    """Deterministic shard slot of a problem's canonical hash.

    Pure function of the hash prefix and the shard count — stable across
    processes, runs and machines, so a client re-submitting the same
    problem always lands on the same (warm) shard.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    return int(canonical_hash[:_ROUTE_PREFIX], 16) % num_shards


# ---------------------------------------------------------------------- #
# Pipe transport: pickle protocol 5 with out-of-band buffers
# ---------------------------------------------------------------------- #
def send_message(conn: Connection, message: Any) -> None:
    """Send one message with its NumPy columns out-of-band.

    The pickle stream (with protocol 5 every array serialises to a
    :class:`pickle.PickleBuffer` reference instead of inline bytes) goes
    first, prefixed with the buffer count; the raw buffers follow, one
    pipe frame each.  The big columns are therefore never copied into a
    pickle byte-string — they go straight from the array memory into the
    pipe.
    """
    buffers: List[pickle.PickleBuffer] = []
    payload = pickle.dumps(message, protocol=5, buffer_callback=buffers.append)
    conn.send_bytes(struct.pack("<I", len(buffers)) + payload)
    for buffer in buffers:
        conn.send_bytes(buffer.raw())


def recv_message(conn: Connection) -> Any:
    """Receive one :func:`send_message` frame (raises ``EOFError`` on hangup).

    Each out-of-band buffer is received as one ``bytes`` object and
    handed to ``pickle.loads(..., buffers=...)``; the rebuilt arrays
    wrap those buffers directly (no further copy, read-only backing).
    """
    frame = conn.recv_bytes()
    (count,) = struct.unpack_from("<I", frame)
    buffers = [conn.recv_bytes() for _ in range(count)]
    return pickle.loads(frame[4:], buffers=buffers)


def encode_shard_request(request: SolveRequest) -> Dict[str, Any]:
    """The pipe form of a request: columnar problem + scalar fields.

    Ships the problem as its :class:`~repro.mqo.arrays.ProblemArrays`
    (zero-copy under :func:`send_message`) plus the memoised canonical
    hash, so the shard neither re-serialises nor re-canonicalises the
    instance.
    """
    problem = request.problem
    return {
        "arrays": problem.arrays(),
        "name": problem.name,
        "canonical_hash": problem.canonical_hash(),
        "solver": request.solver,
        "time_budget_ms": request.time_budget_ms,
        "seed": request.seed,
        "job_id": request.job_id,
        "solvers": request.solvers,
        "metadata": dict(request.metadata),
    }


def decode_shard_request(payload: Dict[str, Any]) -> SolveRequest:
    """Rebuild a :class:`SolveRequest` from :func:`encode_shard_request`."""
    problem = problem_from_arrays(
        payload["arrays"],
        name=payload["name"],
        canonical_hash=payload["canonical_hash"],
    )
    solvers = payload["solvers"]
    return SolveRequest(
        problem=problem,
        solver=payload["solver"],
        time_budget_ms=payload["time_budget_ms"],
        seed=payload["seed"],
        job_id=payload["job_id"],
        solvers=tuple(solvers) if solvers is not None else None,
        metadata=dict(payload["metadata"]),
    )


# ---------------------------------------------------------------------- #
# Shard child process
# ---------------------------------------------------------------------- #
def _shard_main(
    shard_index: int,
    conn: Connection,
    frontend_factory: Callable[[], ServiceFrontend],
    heartbeat_interval_s: float = 1.0,
) -> None:
    """Child-process body: serve jobs off the pipe until ``stop`` or EOF.

    One job executes at a time (parallelism comes from the shard count).
    Improvement updates and progress reports are sent from solver
    threads while the main thread is blocked inside ``frontend.submit``,
    so every pipe write goes through one lock — frames never interleave,
    and a job's stream always precedes its result frame.

    A daemon heartbeat thread ships the shard's process-global metrics
    registry (:meth:`~repro.obs.metrics.MetricsRegistry.to_snapshot`)
    every ``heartbeat_interval_s`` seconds; a final snapshot goes out on
    drain so the parent's federated exposition never misses the tail of
    a shard's counters.  The heartbeat doubles as the parent's liveness
    signal for the ``health`` op.
    """
    configure_tracer(False)  # never inherit the parent's tracer state
    send_lock = threading.Lock()

    def send(message: Tuple[Any, ...]) -> None:
        with send_lock:
            send_message(conn, message)

    def send_metrics() -> None:
        send(("metrics", get_registry().to_snapshot()))

    def forward(message: Tuple[Any, ...]) -> None:
        # Solver-thread context: a broken pipe surfaces on the result send.
        try:
            send(message)
        except (BrokenPipeError, OSError):
            pass

    frontend = frontend_factory()
    try:
        send(("ready", shard_index, os.getpid()))
        send_metrics()
    except (BrokenPipeError, OSError):
        return
    heartbeat_stop = threading.Event()

    def heartbeat_loop() -> None:
        while not heartbeat_stop.wait(heartbeat_interval_s):
            try:
                send_metrics()
            except (BrokenPipeError, OSError):
                return

    if heartbeat_interval_s > 0:
        threading.Thread(
            target=heartbeat_loop, name=f"repro-shard-{shard_index}-hb", daemon=True
        ).start()
    while True:
        try:
            message = recv_message(conn)
        except (EOFError, OSError):
            break  # parent gone: nothing sensible left to do
        if message[0] == "stop":
            break
        _, job_id, payload, collect_spans = message
        try:
            send(("started", job_id))
            request = decode_shard_request(payload)
            stream = forward_job_stream(job_id, time.monotonic(), forward)
            spans: List[Dict[str, Any]] = []
            if collect_spans:
                tracer = configure_tracer(True)
                try:
                    with stream:
                        result = frontend.submit(request)
                    spans = [span.to_dict() for span in tracer.drain()]
                    for record in spans:
                        # Attribute every shipped span to this shard so
                        # the bench's stage breakdown can group by shard.
                        record.setdefault("attributes", {})["shard"] = shard_index
                finally:
                    configure_tracer(False)
            else:
                with stream:
                    result = frontend.submit(request)
            send(("result", job_id, result.to_dict(), spans))
        except (BrokenPipeError, OSError):
            break
        except Exception as exc:  # noqa: BLE001 — one bad job must not kill the shard
            failure = {"job_id": job_id, "error": f"{type(exc).__name__}: {exc}"}
            try:
                send(("result", job_id, failure, []))
            except (BrokenPipeError, OSError):
                break
    heartbeat_stop.set()
    try:
        send_metrics()  # final snapshot: the drain tail must federate too
    except (BrokenPipeError, OSError):
        pass
    conn.close()


class _Shard:
    """Parent-side handle of one shard slot."""

    def __init__(self, index: int, process: Any, conn: Connection) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.ready = False
        self.dead = False
        self.stop_sent = False
        #: ``time.monotonic()`` of the last message received from this
        #: shard (any kind counts — heartbeats, results, updates).
        #: Initialised to spawn time so the age is always defined.
        self.last_heartbeat: float = time.monotonic()
        #: Jobs dispatched to this shard and not yet finished.  This map
        #: is also the fail-over ownership record: whichever path pops a
        #: job from it owns (and is alone responsible for) its fail-over.
        self.assigned: Dict[str, ServerJob] = {}
        #: Dispatcher → sender queue; ``None`` is the stop sentinel.
        self.outbox: "asyncio.Queue[Optional[Tuple[ServerJob, Tuple[Any, ...]]]]" = (
            asyncio.Queue(maxsize=_OUTBOX_CAPACITY)
        )
        #: Items parked when the outbox is full, drained by the sender
        #: after the outbox — one logical FIFO, so dispatch to other
        #: shards never blocks on this shard's backlog.
        self.overflow: Deque[Optional[Tuple[ServerJob, Tuple[Any, ...]]]] = deque()
        self.exited = asyncio.Event()

    @property
    def pid(self) -> Optional[int]:
        """OS pid of the shard process (``None`` before start)."""
        return self.process.pid


class ShardPool(BasePool):
    """Multi-process worker tier: hash-routed shards behind one queue.

    Mirrors :class:`~repro.server.workers.WorkerPool`'s surface (admit /
    start / join / shutdown) so :class:`~repro.server.app.SolverServer`
    can run either tier; see the module docstring for the architecture.

    Parameters
    ----------
    frontend_factory:
        Zero-argument callable building a shard's private
        :class:`ServiceFrontend`, invoked *inside* each child process.
        Must be picklable (a module-level function or
        :func:`functools.partial` over one) under the default
        ``forkserver``/``spawn`` start methods; only an explicit
        ``mp_context="fork"`` admits closures.
    queue / broker / metrics / coalesce:
        See :class:`BasePool`.
    num_shards:
        Shard process count (``-1`` = one per CPU core).
    retry_on_shard_death:
        Retry a dead shard's in-flight jobs once on a live shard before
        failing them (default); ``False`` fails them immediately.
    mp_context:
        Multiprocessing start method; defaults to ``forkserver`` where
        available, else ``spawn`` (see :func:`_default_mp_context` for
        why ``fork`` is unsafe in this multi-threaded parent).
    max_restarts_per_shard:
        Respawn budget per slot; beyond it the slot stays dead and
        routing permanently heals around it.
    result_cache:
        Optional parent-side :class:`~repro.service.cache.ResultCache`
        that every fresh shard result is mirrored into.  Shard caches
        are process-private, so without this the parent's cache (the
        one ``--cache-file`` checkpoints to disk) would never see what
        the shards solved.
    heartbeat_interval_s:
        Cadence of each shard's metrics-snapshot heartbeat (seconds);
        ``0`` disables the ticker (the initial and drain snapshots are
        still sent).  The heartbeat also feeds the ``health`` op's
        staleness verdict.
    """

    tier = "shards"

    def __init__(
        self,
        frontend_factory: Callable[[], ServiceFrontend],
        queue: JobQueue,
        broker: StreamBroker,
        metrics: ServerMetrics,
        num_shards: int = -1,
        coalesce: bool = True,
        retry_on_shard_death: bool = True,
        mp_context: Optional[str] = None,
        max_restarts_per_shard: int = 5,
        result_cache: Optional[ResultCache] = None,
        heartbeat_interval_s: float = 1.0,
    ) -> None:
        super().__init__(queue=queue, broker=broker, metrics=metrics, coalesce=coalesce)
        if num_shards == -1:
            num_shards = default_shard_count()
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive (or -1 = auto), got {num_shards}")
        self.frontend_factory = frontend_factory
        self.num_shards = num_shards
        self.retry_on_shard_death = retry_on_shard_death
        self.max_restarts_per_shard = max_restarts_per_shard
        self.heartbeat_interval_s = heartbeat_interval_s
        self._result_cache = result_cache
        if mp_context is None:
            mp_context = _default_mp_context()
        self._mp = get_context(mp_context)
        if mp_context == "forkserver":
            # Warm the forkserver with this module (pulls in numpy and
            # the solver stack), so every shard spawn — and every
            # respawn after a fault — forks from a preloaded process
            # instead of re-importing from scratch.
            self._mp.set_forkserver_preload(["repro.server.sharding"])
        self.shards: List[_Shard] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # One send thread per shard: a sender blocked on one shard's full
        # pipe must not stall writes to the others.
        self._send_executor = ThreadPoolExecutor(
            max_workers=num_shards, thread_name_prefix="repro-shard-send"
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def active(self) -> int:
        """Jobs currently executing inside shard processes."""
        return sum(
            1
            for shard in self.shards
            for job in shard.assigned.values()
            if job.started_at is not None
        )

    def pending_jobs(self) -> int:
        """Queued plus dispatched-but-unfinished jobs."""
        return self.queue.depth + sum(len(shard.assigned) for shard in self.shards)

    def _heartbeat_stale_after(self) -> Optional[float]:
        """Heartbeat age beyond which a shard counts as unhealthy."""
        if self.heartbeat_interval_s <= 0:
            return None  # ticker disabled: staleness cannot be judged
        return max(5.0 * self.heartbeat_interval_s, 3.0)

    def health(self) -> Dict[str, Any]:
        """Structured per-shard state with an overall verdict.

        The verdict is ``draining`` while the queue refuses admission,
        ``degraded`` when any slot is dead, not yet ready, or silent for
        longer than the staleness threshold (five heartbeat intervals,
        floor three seconds — generous so a busy box never flaps), and
        ``ok`` otherwise.  Pipe EOF marks a killed shard dead within
        milliseconds; staleness is the backstop for a *hung* shard.
        Each shard's entry also carries its ``SHARD_COUNTERS`` values.
        """
        now = time.monotonic()
        stale_after = self._heartbeat_stale_after()
        shards: Dict[str, Dict[str, Any]] = {}
        for shard in self.shards:
            age = now - shard.last_heartbeat
            shards[str(shard.index)] = {
                "pid": shard.pid,
                "ready": shard.ready,
                "dead": shard.dead,
                "stale": stale_after is not None and age > stale_after,
                "assigned": len(shard.assigned),
                "outbox": shard.outbox.qsize(),
                "overflow": len(shard.overflow),
                "heartbeat_age_s": round(age, 3),
                **self.metrics.shard_counts(shard.index),
            }
        alive = sum(
            state["ready"] and not state["dead"] and not state["stale"] for state in shards.values()
        )
        if self.queue.draining:
            verdict = "draining"
        else:
            verdict = "ok" if alive == len(shards) else "degraded"
        return {
            "verdict": verdict,
            "tier": self.tier,
            "count": len(self.shards),
            "alive": alive,
            "restarts": sum(state["restarts"] for state in shards.values()),
            "queue_depth": self.queue.depth,
            "draining": self.queue.draining,
            "shards": shards,
        }

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def admit(self, job: ServerJob) -> str:
        """Admit with the dispatched backlog counted against capacity.

        Dispatch never blocks (full outboxes park into overflow), so
        jobs leave the central queue — where ``queue.push`` enforces the
        capacity — the moment the dispatcher runs.  Counting dispatched
        but unfinished jobs here restores the global bound: the server
        holds at most ``capacity`` jobs beyond a per-shard in-flight
        allowance, and everything past that is told to retry.
        Coalescable duplicates are exempt — they fold onto an in-flight
        representative instead of adding backlog.
        """
        dispatched = sum(len(shard.assigned) for shard in self.shards)
        allowance = len(self.shards) * (_OUTBOX_CAPACITY + 1)
        if self.queue.depth + dispatched >= self.queue.capacity + allowance and not (
            self.coalesce and self.coalesce_key(job) in self._inflight_by_key
        ):
            raise AdmissionError(
                f"server backlog is full ({self.queue.depth} queued + "
                f"{dispatched} dispatched jobs); retry later",
                code="queue_full",
            )
        return super().admit(job)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the shard processes and spawn dispatcher/sender tasks."""
        if self._tasks or self.shards:
            raise RuntimeError("shard pool already started")
        self._loop = asyncio.get_running_loop()
        for slot in range(self.num_shards):
            self.shards.append(self._spawn(slot))
        self._tasks.append(
            self._loop.create_task(self._dispatcher(), name="repro-shard-dispatcher")
        )

    def _spawn(self, slot: int) -> _Shard:
        """Start one shard process plus its sender task and reader thread."""
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_shard_main,
            args=(slot, child_conn, self.frontend_factory, self.heartbeat_interval_s),
            name=f"repro-shard-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        shard = _Shard(index=slot, process=process, conn=parent_conn)
        record_event("shard_spawn", shard=slot, pid=process.pid)
        loop = self._loop if self._loop is not None else asyncio.get_running_loop()
        self._tasks.append(
            loop.create_task(self._sender(shard), name=f"repro-shard-sender-{slot}")
        )
        reader = threading.Thread(
            target=self._reader, args=(shard,), name=f"repro-shard-reader-{slot}", daemon=True
        )
        reader.start()
        return shard

    async def join(self) -> None:
        """Wait for the dispatcher, the senders and every shard process."""
        await super().join()
        if self.shards:
            await asyncio.gather(*(shard.exited.wait() for shard in self.shards))

    def shutdown_executor(self) -> None:
        """Force-stop anything still alive (after :meth:`join` or on abort)."""
        for shard in self.shards:
            if shard.process.is_alive():
                shard.process.terminate()
        for shard in self.shards:
            if shard.process.is_alive():
                shard.process.join(timeout=2.0)
            if shard.process.is_alive():  # pragma: no cover — stuck in kernel
                shard.process.kill()
                shard.process.join(timeout=1.0)
            try:
                shard.conn.close()
            except OSError:  # pragma: no cover — already closed by the reader
                pass
        self._send_executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------ #
    # Dispatch path (event-loop thread)
    # ------------------------------------------------------------------ #
    def _route(self, job: ServerJob) -> Optional[_Shard]:
        """The shard a job belongs on: hash slot, healing around dead slots."""
        slot = shard_for(job.request.problem.canonical_hash(), len(self.shards))
        shard = self.shards[slot]
        if not shard.dead:
            return shard
        live = [candidate for candidate in self.shards if not candidate.dead]
        if not live:
            return None
        return live[slot % len(live)]

    def _outbox_put(
        self, shard: _Shard, item: Optional[Tuple[ServerJob, Tuple[Any, ...]]]
    ) -> None:
        """Hand one item (or the ``None`` sentinel) to a shard's sender.

        Never blocks: once the bounded outbox is full — or the overflow
        already holds items, which must stay behind them — the item
        parks in the overflow deque instead.  The sender consumes the
        outbox first and the overflow second, so the two form one FIFO
        and a saturated shard cannot stall the dispatcher (and with it
        every other shard's dispatch).
        """
        if shard.overflow:
            shard.overflow.append(item)
            return
        try:
            shard.outbox.put_nowait(item)
        except asyncio.QueueFull:
            shard.overflow.append(item)

    def _dispatch(self, job: ServerJob) -> None:
        """Assign one job to its shard and hand it to the shard's sender.

        Synchronous on purpose: admission, routing, the ``assigned``
        bookkeeping and the outbox hand-off all happen in one event-loop
        slice, so no drain sentinel or fault handling can interleave
        between them.
        """
        shard = self._route(job)
        if shard is None:
            self._finish(
                job,
                SolveResult.from_error(job.request, "ServerError: no live shards available"),
            )
            return
        shard.assigned[job.job_id] = job
        tracer = get_tracer()
        message = (
            "job",
            job.job_id,
            encode_shard_request(job.request),
            bool(tracer.enabled),
        )
        self._outbox_put(shard, (job, message))

    async def _dispatcher(self) -> None:
        """Pump the central queue into the shard outboxes until drained."""
        while True:
            job = await self.queue.get()
            if job is None:
                break
            self._dispatch(job)
        # Drain: one stop sentinel per *current* shard, behind its backlog.
        for shard in self.shards:
            self._outbox_put(shard, None)

    async def _sender(self, shard: _Shard) -> None:
        """Serialise and write one shard's outbox onto its pipe.

        Pickling and the (potentially blocking) pipe write run on the
        send executor so a full pipe never stalls the event loop.  The
        bounded outbox is drained before the overflow deque — overflow
        items are always the younger ones — so send order matches
        dispatch order.
        """
        loop = asyncio.get_running_loop()
        while True:
            if not shard.outbox.empty():
                item = shard.outbox.get_nowait()
            elif shard.overflow:
                item = shard.overflow.popleft()
            else:
                item = await shard.outbox.get()
            if item is None:
                if not shard.dead:
                    try:
                        await loop.run_in_executor(
                            self._send_executor, send_message, shard.conn, ("stop",)
                        )
                    except (OSError, ValueError):
                        pass
                shard.stop_sent = True
                return
            job, message = item
            if shard.dead:
                # Single-owner fail-over: on pipe EOF, _on_shard_exit
                # pops *every* assigned job — including ones still
                # parked here — and fails them over itself.  Only a job
                # this sender still owns (not reassigned yet) may be
                # failed over here; a disowned one is simply dropped,
                # never retried or finished a second time.
                if shard.assigned.pop(job.job_id, None) is not None:
                    self._reassign_or_fail(job, shard)
                continue
            try:
                await loop.run_in_executor(
                    self._send_executor, send_message, shard.conn, message
                )
            except (OSError, ValueError):
                # Pipe broke under us; if the reader's EOF handling has
                # already disowned the job, it was dealt with there.
                if shard.assigned.pop(job.job_id, None) is not None:
                    self._reassign_or_fail(job, shard)

    # ------------------------------------------------------------------ #
    # Shard → parent messages (reader threads hop onto the loop)
    # ------------------------------------------------------------------ #
    def _reader(self, shard: _Shard) -> None:
        """Reader-thread body: pump shard messages onto the event loop."""
        assert self._loop is not None
        try:
            while True:
                message = recv_message(shard.conn)
                self._loop.call_soon_threadsafe(self._on_message, shard, message)
        except (EOFError, OSError):
            pass
        finally:
            try:
                self._loop.call_soon_threadsafe(self._on_shard_exit, shard)
            except RuntimeError:  # loop already closed mid-shutdown
                pass

    def _on_message(self, shard: _Shard, message: Tuple[Any, ...]) -> None:
        """Handle one shard message on the event-loop thread."""
        kind = message[0]
        shard.last_heartbeat = time.monotonic()  # any message proves liveness
        if kind == "ready":
            shard.ready = True
        elif kind == "metrics":
            self.metrics.record_shard_snapshot(shard.index, message[1])
        elif kind == "started":
            job = shard.assigned.get(message[1])
            if job is not None and job.started_at is None:
                job.started_at = time.monotonic()
        elif kind in ("update", "progress"):
            self.broker.publish(message)
        elif kind == "result":
            _, job_id, result_dict, spans = message
            job = shard.assigned.pop(job_id, None)
            if spans:
                get_tracer().adopt(spans)
            if job is None:
                return  # already failed over by fault handling
            if job.started_at is None:
                job.started_at = time.monotonic()
            if "winner" in result_dict:
                result = SolveResult.from_dict(result_dict)
            else:  # the shard's bare-failure shape (solve crashed early)
                result = SolveResult.from_error(job.request, result_dict["error"])
            if (
                self._result_cache is not None
                and result.ok
                and not result.from_cache
                and result.cache_key
            ):
                # Shard caches are process-private; mirroring every fresh
                # result here keeps the parent's cache — the one that is
                # checkpointed to --cache-file — accumulating entries.
                self._result_cache.put(result.cache_key, result.to_dict())
            self.metrics.observe_shard_job(shard.index, failed=not result.ok)
            self._finish(job, result)

    def _on_shard_exit(self, shard: _Shard) -> None:
        """Pipe EOF: normal exit after drain, or a mid-job shard death."""
        if shard.exited.is_set():
            return
        shard.dead = True
        shard.exited.set()
        try:
            shard.conn.close()
        except OSError:  # pragma: no cover — race with the reader thread
            pass
        # Take single ownership of every unfinished job — executing,
        # in the pipe, or still parked in the outbox/overflow — by
        # popping them all from ``assigned``.  The sender drops any
        # parked item it later pulls for a job it no longer owns, so
        # nothing is retried twice or failed while its retry runs.
        orphans = list(shard.assigned.values())
        shard.assigned.clear()
        unexpected = bool(orphans) or not shard.stop_sent
        record_event(
            "shard_exit",
            shard=shard.index,
            pid=shard.pid,
            unexpected=unexpected,
            orphans=len(orphans),
        )
        if unexpected and not self.queue.draining:
            self._respawn(shard)
        # Release this slot's sender task: after a respawn (or a death
        # during drain) the dispatcher's stop sentinel goes to the
        # *replacement* shard's outbox, so without one here the old
        # sender would wait forever and stall ``join()``.  Parked items
        # ahead of the sentinel are disowned and dropped by the sender.
        self._outbox_put(shard, None)
        for job in orphans:
            self._reassign_or_fail(job, shard)

    def _respawn(self, shard: _Shard) -> None:
        """Replace a dead slot with a fresh process (within the budget)."""
        restarts = self.metrics.shard_counts(shard.index)["restarts"]
        if restarts >= self.max_restarts_per_shard:
            return
        self.metrics.observe_shard_restart(shard.index)
        self.shards[shard.index] = self._spawn(shard.index)
        record_event("shard_respawn", shard=shard.index, restarts=restarts + 1)

    def _reassign_or_fail(self, job: ServerJob, shard: _Shard) -> None:
        """Fault policy for a job stranded on a dead shard: retry once.

        The re-dispatch is synchronous: the draining check and the
        outbox hand-off happen in the same event-loop slice, so a drain
        beginning concurrently cannot slip its stop sentinel in front of
        the retried job (which would strand it behind the sentinel and
        hang its client until the drain timeout).
        """
        can_retry = (
            self.retry_on_shard_death
            and job.retries < 1
            and not self.queue.draining
            and any(not candidate.dead for candidate in self.shards)
        )
        if can_retry:
            job.retries += 1
            job.started_at = None
            self.metrics.increment("jobs_retried")
            self.metrics.observe_shard_retry(shard.index)
            record_event("job_retry", job_id=job.job_id, shard=shard.index)
            self._dispatch(job)
            return
        self.metrics.observe_shard_job(shard.index, failed=True)
        self._finish(
            job,
            SolveResult.from_error(
                job.request,
                f"ServerError: shard {shard.index} (pid {shard.pid}) "
                "died while executing this job",
            ),
        )
