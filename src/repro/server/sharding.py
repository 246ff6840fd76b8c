"""Shard processes: the worker pool's slots outside the server process.

:class:`~repro.server.workers.WorkerPool` runs units of work on slots.
On the thread tier a slot is an executor thread of the server; with
``shards`` a slot is one of ``workers`` threads in a shard process, and
this module owns those processes.  CPU-bound solves in different shards
no longer serialise on one GIL.

Design points:

* **Pull dispatch.** Nothing is routed here: each slot pulls its next
  unit from the server's one :class:`~repro.server.queue.JobQueue` and
  runs it on its shard (:meth:`ShardSet.run`), so an idle shard never
  waits while another has a backlog, and priorities and per-client
  fairness decide what runs next.
* **Zero-copy handoff.** Requests cross the pipe as the problem's
  :class:`~repro.mqo.arrays.ProblemArrays` columns pickled with
  protocol 5: every NumPy column travels as an out-of-band buffer
  (:func:`send_message`), never staged through the pickle stream, and
  the receiving arrays wrap the received buffers directly.  The shard
  rebuilds the problem object around the transferred columns
  (:func:`~repro.mqo.arrays.problem_from_arrays`).
* **No shard cache.** A shard only executes: the server's frontend
  answers cache hits before a request crosses a pipe and stores every
  fresh result a shard returns.  The prepared-pipeline cache of the QA
  solver is per process, so each shard prepares an instance once.
* **Streaming.** Anytime improvements and decomposition progress
  observed inside a shard are forwarded over the pipe
  (:func:`~repro.server.streaming.forward_job_stream`) and republished
  on the parent's event loop through the
  :class:`~repro.server.streaming.StreamBroker`, so clients see the same
  live ``update`` and ``progress`` stream as with the thread tier.
* **Faults.** A shard that dies mid-unit (crash, OOM-kill, SIGKILL) is
  detected by its reader thread (pipe EOF).  The dead slot is respawned
  (at most :data:`_MAX_RESTARTS` times, never while draining) before
  the units it held fail with :class:`ShardDied`; the pool coroutine
  that awaits each unit is its only owner and decides alone whether to
  retry or fail it.
* **Telemetry.** Each shard heartbeats its process-global metrics
  registry over the pipe (``heartbeat_interval_s``, plus an initial and
  a final drain-time snapshot); the parent stores the latest snapshot
  per slot and federates them into the Prometheus exposition under a
  ``shard="N"`` label.  Any inbound message refreshes the slot's
  ``last_heartbeat``.  :meth:`ShardSet.health` reports an
  ``ok|degraded|draining`` verdict plus per-shard liveness, load and
  counts (read from the server registry).
* **Drain.** Once every slot has exited, :meth:`ShardSet.stop` sends
  each live shard ``stop`` and waits for all of them to exit;
  :meth:`ShardSet.shutdown` then reaps every process the set started,
  including the dead ones that were replaced.

Span adoption: when tracing is enabled as a unit is sent, the shard
traces it and ships the finished span records back with the results,
each tagged with a ``shard`` attribute, where the parent
:meth:`~repro.obs.trace.Tracer.adopt`\\ s them.  This pipe is the only
place spans cross a process boundary.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import pickle
import struct
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.mqo.arrays import problem_from_arrays
from repro.obs.events import record_event
from repro.obs.metrics import get_registry
from repro.obs.trace import configure_tracer, get_tracer
from repro.server.metrics import ServerMetrics
from repro.server.queue import JobQueue
from repro.server.streaming import StreamBroker, forward_job_stream
from repro.service.batch import execute_request
from repro.service.frontend import ServiceFrontend
from repro.service.fusion import execute_fused_requests
from repro.service.jobs import SolveRequest, SolveResult

__all__ = [
    "send_message",
    "recv_message",
    "encode_shard_request",
    "decode_shard_request",
    "default_shard_count",
    "ShardDied",
    "ShardSet",
]

#: Respawns per shard slot; beyond them the slot stays dead.
_MAX_RESTARTS = 5

#: Process-unique ids of the units sent to shards.
_UNIT_IDS = itertools.count(1)


def default_shard_count() -> int:
    """The shard count ``shards=-1`` resolves to: one per CPU core."""
    return max(os.cpu_count() or 1, 1)


def _default_mp_context() -> str:
    """The start method shard processes use.

    ``forkserver`` where available (Unix): shard processes fork from a
    clean, single-threaded server process, so spawning (and *re*-spawning
    after a fault) is safe even though the parent runs reader threads,
    executor threads and — under :func:`~repro.server.app.run_server_in_thread`
    — the whole event loop off the main thread.  A bare ``fork`` in that
    parent could deadlock the child on locks held mid-fork (and is
    deprecated with threads from Python 3.12).  ``spawn`` is the
    fallback where ``forkserver`` does not exist.
    """
    methods = get_all_start_methods()
    if "forkserver" in methods:
        return "forkserver"
    return "spawn" if "spawn" in methods else "fork"


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
    workers: int = 1,
) -> None:
    """Child-process body: run units off the pipe until ``stop`` or EOF.

    Up to ``workers`` units run at once, one per thread, each under the
    registry of the frontend ``frontend_factory`` builds.  Results,
    improvement updates and progress reports are sent from those
    threads, so every pipe write goes through one lock — frames never
    interleave, and a job's stream always precedes its result frame.

    A daemon heartbeat thread ships the shard's process-global metrics
    registry (:meth:`~repro.obs.metrics.MetricsRegistry.to_snapshot`)
    every ``heartbeat_interval_s`` seconds; a final snapshot goes out on
    drain so the parent's federated exposition never misses the tail of
    a shard's counters.  The heartbeat doubles as the parent's liveness
    signal for the ``health`` op.
    """
    configure_tracer(False)  # never inherit the parent's tracer state
    send_lock = threading.Lock()
    trace_lock = threading.Lock()
    traced_units = 0

    def send(message: Tuple[Any, ...]) -> None:
        with send_lock:
            send_message(conn, message)

    def send_metrics() -> None:
        send(("metrics", get_registry().to_snapshot()))

    def forward(message: Tuple[Any, ...]) -> None:
        # Solver-thread context: a broken pipe surfaces on the result send.
        try:
            send(message)
        except OSError:
            pass

    def trace(collect: bool, done: bool) -> List[Dict[str, Any]]:
        """Keep the tracer on while any traced unit runs; ship spans as each ends."""
        nonlocal traced_units
        if not collect:
            return []
        with trace_lock:
            traced_units += -1 if done else 1
            configure_tracer(traced_units > 0)
            spans = [span.to_dict() for span in get_tracer().drain()] if done else []
        for record in spans:
            # Attribute every shipped span to this shard so the bench's
            # stage breakdown can group by shard.
            record.setdefault("attributes", {})["shard"] = shard_index
        return spans

    def run(unit_id: int, job_id: str, payloads: list, fused: bool, collect: bool) -> None:
        trace(collect, done=False)
        try:
            requests = [decode_shard_request(payload) for payload in payloads]
            if fused:
                results = execute_fused_requests(requests, registry=registry)
            else:
                with forward_job_stream(job_id, time.monotonic(), forward):
                    results = [execute_request(requests[0], registry=registry)]
            answers = [result.to_dict() for result in results]
        except Exception as exc:  # noqa: BLE001 — one bad unit must not kill the shard
            answers = [{"error": f"{type(exc).__name__}: {exc}"}] * len(payloads)
        spans = trace(collect, done=True)
        try:
            send(("result", unit_id, answers, spans))
        except OSError:
            pass  # parent gone: the receive loop ends on EOF

    registry = frontend_factory().registry
    try:
        send(("ready", shard_index, os.getpid()))
        send_metrics()
    except OSError:
        return
    heartbeat_stop = threading.Event()

    def heartbeat_loop() -> None:
        while not heartbeat_stop.wait(heartbeat_interval_s):
            try:
                send_metrics()
            except OSError:
                return

    if heartbeat_interval_s > 0:
        threading.Thread(
            target=heartbeat_loop, name=f"repro-shard-{shard_index}-hb", daemon=True
        ).start()
    executor = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-shard-slot")
    while True:
        try:
            message = recv_message(conn)
        except (EOFError, OSError):
            break  # parent gone: nothing sensible left to do
        if message[0] == "stop":
            break
        executor.submit(run, *message[1:])
    executor.shutdown(wait=True)
    heartbeat_stop.set()
    try:
        send_metrics()  # final snapshot: the drain tail must federate too
    except OSError:
        pass
    conn.close()


class ShardDied(Exception):
    """The shard a unit was sent to died before answering it."""

    def __init__(self, shard: "_Shard") -> None:
        super().__init__(
            f"shard {shard.index} (pid {shard.pid}) died while executing this job"
        )
        self.shard = shard.index


class _Shard:
    """Parent-side handle of one shard process."""

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
        #: Units sent and not answered: unit id -> (future, job count).
        #: Guarded by ``lock`` together with ``dead``, so a unit is
        #: either answered, failed with the shard, or refused up front.
        self.pending: Dict[int, Tuple["Future[Any]", int]] = {}
        self.lock = threading.Lock()
        #: Serialises pipe writes from the slots' executor threads.
        self.send_lock = threading.Lock()
        self.exited = asyncio.Event()

    @property
    def pid(self) -> Optional[int]:
        """OS pid of the shard process (``None`` before start)."""
        return self.process.pid

    @property
    def assigned(self) -> int:
        """Jobs sent to this shard and not answered yet."""
        with self.lock:
            return sum(count for _, count in self.pending.values())

    def call(self, job_id: str, requests: Sequence[SolveRequest], fused: bool) -> Any:
        """Send one unit and block until the shard answers it.

        Runs on an executor thread.  Returns the ``(answers, spans)`` of
        the shard's ``result`` frame; raises :class:`ShardDied` when the
        shard is dead or dies first.
        """
        future: "Future[Any]" = Future()
        with self.lock:
            if self.dead:
                raise ShardDied(self)
            unit_id = next(_UNIT_IDS)
            self.pending[unit_id] = (future, len(requests))
        message = (
            "run",
            unit_id,
            job_id,
            [encode_shard_request(request) for request in requests],
            fused,
            bool(get_tracer().enabled),
        )
        try:
            with self.send_lock:
                send_message(self.conn, message)
        except OSError:
            pass  # a broken pipe: the reader's EOF fails the future
        except BaseException:
            with self.lock:
                self.pending.pop(unit_id, None)
            raise
        return future.result()

    def answer(self, unit_id: int, answers: list, spans: list) -> None:
        """Resolve one unit's future (reader thread)."""
        with self.lock:
            future, _ = self.pending.pop(unit_id, (None, 0))
        if future is not None:
            future.set_result((answers, spans))

    def disown(self) -> List["Future[Any]"]:
        """Mark the shard dead and take every unanswered unit's future."""
        with self.lock:
            self.dead = True
            futures = [future for future, _ in self.pending.values()]
            self.pending.clear()
        return futures


class ShardSet:
    """The shard processes of a sharded :class:`~repro.server.workers.WorkerPool`.

    Parameters
    ----------
    count:
        Shard process count (``-1`` = one per CPU core).
    workers:
        Units each shard runs at once (its slot count).
    frontend_factory:
        Zero-argument callable building a shard's
        :class:`ServiceFrontend`, invoked *inside* each child process;
        the shard runs requests against its registry.  Must be
        picklable (a module-level function or :func:`functools.partial`
        over one), because shards start under ``forkserver`` or
        ``spawn``.
    queue:
        The server's queue; a shard that dies while it drains stays dead.
    broker:
        Stream broker the shards' ``update`` and ``progress`` messages
        are republished through.
    metrics:
        Sink of the per-shard counters and heartbeat snapshots.
    heartbeat_interval_s:
        Cadence of each shard's metrics-snapshot heartbeat (seconds);
        ``0`` disables the ticker (the initial and drain snapshots are
        still sent).  The heartbeat also feeds the ``health`` op's
        staleness verdict.
    """

    def __init__(
        self,
        count: int,
        workers: int,
        frontend_factory: Callable[[], ServiceFrontend],
        queue: JobQueue,
        broker: StreamBroker,
        metrics: ServerMetrics,
        heartbeat_interval_s: float = 1.0,
    ) -> None:
        if count == -1:
            count = default_shard_count()
        if count <= 0:
            raise ValueError(f"num_shards must be positive (or -1 = auto), got {count}")
        self.count = count
        self.workers = workers
        self.frontend_factory = frontend_factory
        self.queue = queue
        self.broker = broker
        self.metrics = metrics
        self.heartbeat_interval_s = heartbeat_interval_s
        mp_context = _default_mp_context()
        self._mp = get_context(mp_context)
        if mp_context == "forkserver":
            # Warm the forkserver with this module (pulls in numpy and
            # the solver stack), so every shard spawn — and every
            # respawn after a fault — forks from a preloaded process
            # instead of re-importing from scratch.
            self._mp.set_forkserver_preload(["repro.server.sharding"])
        self.shards: List[_Shard] = []
        #: Every process this set started, replaced ones included.
        self._processes: List[Any] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the shard processes (on the running event loop)."""
        if self.shards:
            raise RuntimeError("shards already started")
        self._loop = asyncio.get_running_loop()
        self.shards = [self._spawn(slot) for slot in range(self.count)]

    def _spawn(self, slot: int) -> _Shard:
        """Start one shard process plus its reader thread."""
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_shard_main,
            args=(slot, child_conn, self.frontend_factory, self.heartbeat_interval_s, self.workers),
            name=f"repro-shard-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._processes.append(process)
        shard = _Shard(index=slot, process=process, conn=parent_conn)
        record_event("shard_spawn", shard=slot, pid=process.pid)
        threading.Thread(
            target=self._reader, args=(shard,), name=f"repro-shard-reader-{slot}", daemon=True
        ).start()
        return shard

    async def stop(self) -> None:
        """Ask every live shard to exit and wait until all have (after the slots)."""
        for shard in self.shards:
            if not shard.dead:
                shard.stop_sent = True
                try:
                    with shard.send_lock:
                        send_message(shard.conn, ("stop",))
                except OSError:
                    pass
        await asyncio.gather(*(shard.exited.wait() for shard in self.shards))

    def shutdown(self) -> None:
        """Stop whatever is still alive and reap every process this set started."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover — stuck in kernel
                process.kill()
                process.join(timeout=1.0)
        for shard in self.shards:
            try:
                shard.conn.close()
            except OSError:  # pragma: no cover — already closed
                pass

    # ------------------------------------------------------------------ #
    # Execution (executor threads)
    # ------------------------------------------------------------------ #
    def dead(self, index: int) -> bool:
        """Whether slot ``index`` holds a dead shard that was not replaced."""
        return self.shards[index].dead

    def any_alive(self) -> bool:
        """Whether any slot holds a live shard."""
        return any(not shard.dead for shard in self.shards)

    def run(
        self, index: int, job_id: str, requests: Sequence[SolveRequest], fused: bool
    ) -> List[SolveResult]:
        """Run ``requests`` in shard ``index``; one unit, blocking.

        ``fused`` runs them as one fusion window
        (:func:`~repro.service.fusion.execute_fused_requests`), otherwise
        the single request runs through
        :func:`~repro.service.batch.execute_request` and streams under
        the server job id ``job_id``.  The shard's spans are adopted and
        each answered job counts into the shard's counters.
        """
        shard = self.shards[index]
        answers, spans = shard.call(job_id, requests, fused)
        if spans:
            get_tracer().adopt(spans)
        results = [
            SolveResult.from_dict(answer)
            if "winner" in answer
            else SolveResult.from_error(request, answer["error"])
            for request, answer in zip(requests, answers)
        ]
        for result in results:
            self.metrics.observe_shard_job(shard.index, failed=not result.ok)
        return results

    # ------------------------------------------------------------------ #
    # Shard → parent messages
    # ------------------------------------------------------------------ #
    def _reader(self, shard: _Shard) -> None:
        """Reader-thread body: answer units, hop everything else onto the loop."""
        assert self._loop is not None
        try:
            while True:
                message = recv_message(shard.conn)
                shard.last_heartbeat = time.monotonic()  # any message proves liveness
                if message[0] == "result":
                    shard.answer(*message[1:])
                else:
                    self._loop.call_soon_threadsafe(self._on_message, shard, message)
        except (EOFError, OSError):
            pass
        finally:
            orphans = shard.disown()
            try:
                # Scheduled before the orphans fail, so a respawn is in
                # place when their owners decide whether to retry.
                self._loop.call_soon_threadsafe(self._on_shard_exit, shard, len(orphans))
            except RuntimeError:  # loop already closed mid-shutdown
                pass
            for future in orphans:
                future.set_exception(ShardDied(shard))

    def _on_message(self, shard: _Shard, message: Tuple[Any, ...]) -> None:
        """Handle one non-result shard message on the event-loop thread."""
        kind = message[0]
        if kind == "ready":
            shard.ready = True
        elif kind == "metrics":
            self.metrics.record_shard_snapshot(shard.index, message[1])
        elif kind in ("update", "progress"):
            self.broker.publish(message)

    def _on_shard_exit(self, shard: _Shard, orphans: int) -> None:
        """Pipe EOF: an exit after ``stop``, or a death to heal by respawning."""
        shard.exited.set()
        try:
            shard.conn.close()
        except OSError:  # pragma: no cover — race with the reader thread
            pass
        unexpected = not shard.stop_sent
        record_event(
            "shard_exit", shard=shard.index, pid=shard.pid, unexpected=unexpected, orphans=orphans
        )
        restarts = self.metrics.shard_counts(shard.index)["restarts"]
        if unexpected and not self.queue.draining and restarts < _MAX_RESTARTS:
            self.metrics.observe_shard_restart(shard.index)
            self.shards[shard.index] = self._spawn(shard.index)
            record_event("shard_respawn", shard=shard.index, restarts=restarts + 1)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _heartbeat_stale_after(self) -> Optional[float]:
        """Heartbeat age beyond which a shard counts as unhealthy."""
        if self.heartbeat_interval_s <= 0:
            return None  # ticker disabled: staleness cannot be judged
        return max(5.0 * self.heartbeat_interval_s, 3.0)

    def health(self) -> Dict[str, Any]:
        """Per-shard state with an overall verdict.

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
                "assigned": shard.assigned,
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
            "tier": "shards",
            "count": len(self.shards),
            "alive": alive,
            "restarts": sum(state["restarts"] for state in shards.values()),
            "shards": shards,
        }
