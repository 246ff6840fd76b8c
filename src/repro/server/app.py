"""The asyncio solver server: connections, dispatch, graceful drain.

:class:`SolverServer` listens on TCP, speaks the newline-delimited JSON
protocol of :mod:`repro.server.protocol`, and drives the subsystem
stack: admission control and per-client fairness in
:class:`~repro.server.queue.JobQueue`, execution on threads or shard
processes, fusion windows and in-flight coalescing in
:class:`~repro.server.workers.WorkerPool`, live anytime
updates through :class:`~repro.server.streaming.StreamBroker`, and
counts and latencies in :class:`~repro.server.metrics.ServerMetrics`,
which the introspection ops render next to the pool's ``health()``.

Each connection gets a single outbound FIFO drained by one writer task,
so replies, streamed updates and results never interleave mid-frame and
always arrive in publish order.  Handlers themselves are synchronous —
they only validate, mutate loop-local state and enqueue outbound frames
— which makes the dispatch path free of await-reordering hazards.

Shutdown is a *graceful drain*: the queue stops admitting, already
admitted jobs run to completion (bounded by ``drain_timeout_s``),
results are flushed to their clients, then sockets close.

:func:`run_server_in_thread` hosts a server on a background thread for
tests, benchmarks and notebook use.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.exceptions import AdmissionError, ProtocolError, ReproError, ServerError
from repro.obs.events import get_event_log, record_event
from repro.server import protocol
from repro.server.metrics import ServerMetrics
from repro.server.queue import JobQueue, ServerJob
from repro.server.streaming import StreamBroker
from repro.server.workers import WorkerPool
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import request_from_spec

__all__ = ["ServerConfig", "SolverServer", "ServerHandle", "run_server_in_thread"]

#: How long a graceful drain keeps serving open connections (answering
#: ``wait`` frames for jobs it admitted) before it closes them.
DRAIN_GRACE_S = 1.0


@dataclass
class ServerConfig:
    """Tunables of one :class:`SolverServer` instance.

    Attributes
    ----------
    host / port:
        Bind address; port 0 lets the OS pick (read it back from
        :attr:`SolverServer.port` after start).
    workers:
        Concurrent jobs per solver process: executor threads of the
        server, or threads in each shard process when ``shards`` is set.
    shards:
        ``0`` (default) runs jobs in the server process; a positive
        count runs them in that many shard *processes*, ``-1`` in one
        per CPU core.  Either way every slot pulls its next job from the
        one queue (:class:`~repro.server.workers.WorkerPool`).
    shard_heartbeat_s:
        Cadence of each shard's metrics-snapshot heartbeat (with
        shards); also feeds the ``health`` op's staleness verdict.
    queue_capacity / max_jobs_per_client:
        Admission-control bounds of the job queue.
    default_budget_ms / max_budget_ms:
        Budget applied to specs without one, and an optional hard cap —
        requests beyond the cap are rejected at admission.
    max_frame_bytes:
        Wire-frame size limit (both directions).
    drain_timeout_s:
        How long a graceful shutdown waits for in-flight jobs.
    completed_jobs_kept:
        Soft bound on jobs tracked for ``wait``/``subscribe``.  Beyond
        it, finished jobs older than ``completed_job_retention_s`` are
        forgotten, oldest finish first; jobs whose results may still be
        collected (recently finished) survive until the hard bound of
        four times this value.  A finished job keeps only its result,
        not its request (see ``docs/server.md``, "Job lifecycle").
    completed_job_retention_s:
        Minimum age before a finished job may be pruned under the soft
        bound (protects pipelined clients that wait() after submitting).
    fusion_window_ms:
        ``0`` (default) disables cross-request anneal fusion; a positive
        value stages annealing-backed jobs, and the jobs staged within
        this admission window run as **one** fused block-diagonal anneal
        on one slot, with or without shards (see ``docs/fusion.md``).
    fusion_max_jobs:
        Jobs per fusion window before it flushes early.
    allow_shutdown:
        Whether clients may stop the server with the ``shutdown`` op.
    server_name:
        Identity string reported in the ``hello`` frame.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    shards: int = 0
    shard_heartbeat_s: float = 1.0
    queue_capacity: int = 128
    max_jobs_per_client: Optional[int] = None
    default_budget_ms: float = 1000.0
    max_budget_ms: Optional[float] = None
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    drain_timeout_s: float = 30.0
    completed_jobs_kept: int = 1024
    completed_job_retention_s: float = 300.0
    fusion_window_ms: float = 0.0
    fusion_max_jobs: int = 8
    allow_shutdown: bool = True
    server_name: str = "repro-mqo"


class _Connection:
    """Server-side connection state: identity plus an ordered outbound FIFO."""

    def __init__(self, writer: asyncio.StreamWriter, client_id: str, max_frame_bytes: int) -> None:
        self.writer = writer
        self.client_id = client_id
        self.max_frame_bytes = max_frame_bytes
        self.closed = False
        self._outbound: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        self._writer_task = asyncio.get_running_loop().create_task(
            self._drain_outbound(), name=f"repro-server-writer-{client_id}"
        )

    def send_nowait(self, frame: Dict[str, Any]) -> None:
        """Queue one frame for delivery (dropped silently once closed)."""
        if self.closed:
            return
        try:
            data = protocol.encode_frame(frame, self.max_frame_bytes)
        except ProtocolError as exc:
            data = protocol.encode_frame(
                protocol.error_frame(
                    str(frame.get("id", "")), "internal", f"unserialisable frame: {exc}"
                )
            )
        self._outbound.put_nowait(data)

    async def _drain_outbound(self) -> None:
        """Single writer: preserves frame order and serialises socket writes."""
        try:
            while True:
                data = await self._outbound.get()
                if data is None:
                    return
                self.writer.write(data)
                await self.writer.drain()
        except (ConnectionError, OSError):
            pass

    async def close(self) -> None:
        """Flush queued frames, stop the writer task and close the socket."""
        if self.closed:
            return
        self.closed = True
        self._outbound.put_nowait(None)
        try:
            await asyncio.wait_for(self._writer_task, timeout=5.0)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            self._writer_task.cancel()
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class SolverServer:
    """Async NDJSON-over-TCP front door of the MQO solver service.

    Parameters
    ----------
    config:
        Server tunables (defaults are test-friendly: loopback, ephemeral
        port, two workers).
    frontend:
        The :class:`ServiceFrontend` jobs execute through.  Inject one
        with a custom registry/cache to control the solver line-up (the
        end-to-end tests register scripted solvers this way).
    frontend_factory:
        Zero-argument frontend builder, invoked once inside every shard
        process (``config.shards != 0``): a shard solves with its
        registry.  Must be picklable (module-level function or
        :func:`functools.partial`) — shard processes start via
        ``forkserver``/``spawn``.  When omitted, every shard builds a
        *default* :class:`ServiceFrontend`, so a custom registry needs
        an explicit factory.  Shards keep no result cache: ``frontend``
        (built from the factory when not given) answers cache hits and
        stores every fresh result, whichever process computed it.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        frontend: ServiceFrontend | None = None,
        frontend_factory: Optional[Callable[[], ServiceFrontend]] = None,
    ) -> None:
        self.config = config or ServerConfig()
        if frontend is None and frontend_factory is not None:
            frontend = frontend_factory()
        self.frontend = frontend if frontend is not None else ServiceFrontend()
        self.metrics = ServerMetrics()
        self.queue = JobQueue(
            capacity=self.config.queue_capacity,
            max_per_client=self.config.max_jobs_per_client,
        )
        self.broker = StreamBroker(
            on_update_streamed=lambda count: self.metrics.increment("updates_streamed", count)
        )
        self.pool = WorkerPool(
            frontend=self.frontend,
            queue=self.queue,
            broker=self.broker,
            metrics=self.metrics,
            num_workers=self.config.workers,
            num_shards=self.config.shards,
            frontend_factory=frontend_factory,
            heartbeat_interval_s=self.config.shard_heartbeat_s,
            fusion_window_ms=self.config.fusion_window_ms,
            fusion_max_jobs=self.config.fusion_max_jobs,
        )
        self.host = self.config.host
        self.port = self.config.port
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Every open connection, with the task reading its frames.
        self._connections: Dict[_Connection, "asyncio.Task[None]"] = {}
        # Every admitted job by id, for wait/subscribe; the pool keeps the
        # finished ones in finish order, which is the order they are pruned in.
        self._jobs: Dict[str, ServerJob] = {}
        self._job_counter = 0
        self._connection_counter = 0
        self._stopping = False
        self._stopped: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket and spawn the worker pool."""
        if self._server is not None:
            raise ServerError("server already started")
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            limit=self.config.max_frame_bytes,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self.pool.start()
        record_event(
            "server_started", host=self.host, port=self.port, shards=self.config.shards
        )

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` (or a client ``shutdown``) completes."""
        if self._stopped is None:
            raise ServerError("server was never started")
        await self._stopped.wait()

    async def stop(self, drain: bool = True) -> None:
        """Stop the server; with ``drain`` (default) finish admitted jobs.

        The queue stops admitting immediately.  Worker tasks finish the
        backlog (bounded by ``drain_timeout_s``) and the listening socket
        closes.  A graceful drain then keeps serving each open connection
        until its client hangs up or :data:`DRAIN_GRACE_S` passes, so a
        ``wait`` sent after the ``shutdown`` ack is still answered.
        Every remaining socket closes and :meth:`wait_stopped` unblocks.
        """
        if self._stopped is None:
            raise ServerError("server was never started")
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        record_event("drain_begin", pending=self.pool.pending_jobs(), graceful=drain)
        self.queue.drain()
        if drain:
            try:
                await asyncio.wait_for(self.pool.join(), timeout=self.config.drain_timeout_s)
            except asyncio.TimeoutError:  # drain overran its budget; force it
                self.pool.cancel_tasks()
        else:
            self.pool.cancel_tasks()
        if self._server is not None:
            self._server.close()
        if drain and self._connections:
            await asyncio.wait(list(self._connections.values()), timeout=DRAIN_GRACE_S)
        for connection in list(self._connections):
            await connection.close()
        if self._server is not None:
            # Only now: on Python 3.12.1+ this waits for every connection.
            await self._server.wait_closed()
        self.pool.shutdown_executor()
        record_event("drain_end", host=self.host, port=self.port)
        self._stopped.set()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read frames off one client socket until EOF or a framing error."""
        self._connection_counter += 1
        connection = _Connection(
            writer, f"conn-{self._connection_counter}", self.config.max_frame_bytes
        )
        self._connections[connection] = asyncio.current_task()
        self.metrics.increment("connections_opened")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized line: framing is lost, drop the connection.
                    connection.send_nowait(
                        protocol.error_frame(
                            "", "protocol",
                            f"frame exceeds the {self.config.max_frame_bytes}-byte limit",
                        )
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                # Awaiting keeps per-connection request ordering while the
                # parse of a large problem frame runs off the event loop.
                await self._dispatch(connection, line)
        finally:
            self._connections.pop(connection, None)
            await connection.close()
            self.metrics.increment("connections_closed")

    #: Frames above this size are JSON-decoded on the executor — an 8 MB
    #: problem frame must not stall every connection's event-loop turn.
    _OFFLOAD_DECODE_BYTES = 64 * 1024

    async def _dispatch(self, connection: _Connection, line: bytes) -> None:
        """Decode, validate and route one request frame."""
        started = time.monotonic()
        op_label = "invalid"
        frame_id = ""
        error = False
        try:
            if len(line) > self._OFFLOAD_DECODE_BYTES:
                frame = await asyncio.get_running_loop().run_in_executor(
                    None,
                    lambda: protocol.decode_frame(line, self.config.max_frame_bytes),
                )
            else:
                frame = protocol.decode_frame(line, self.config.max_frame_bytes)
            raw_id = frame.get("id", "")
            if isinstance(raw_id, (str, int)) and not isinstance(raw_id, bool):
                frame_id = str(raw_id)
            request = protocol.parse_request(frame)
            op_label = request.op
            handler = getattr(self, f"_op_{request.op}")
            outcome = handler(connection, request)
            if asyncio.iscoroutine(outcome):
                await outcome
        except ProtocolError as exc:
            error = True
            connection.send_nowait(protocol.error_frame(frame_id, "protocol", str(exc)))
        except AdmissionError as exc:
            error = True
            connection.send_nowait(protocol.error_frame(frame_id, exc.code, str(exc)))
        except ReproError as exc:
            error = True
            connection.send_nowait(protocol.error_frame(frame_id, "bad_request", str(exc)))
        except Exception as exc:  # noqa: BLE001 — one bad request must not kill the server
            error = True
            connection.send_nowait(
                protocol.error_frame(frame_id, "internal", f"{type(exc).__name__}: {exc}")
            )
        finally:
            self.metrics.observe_request(
                op_label, (time.monotonic() - started) * 1000.0, error
            )

    # ------------------------------------------------------------------ #
    # Sinks
    # ------------------------------------------------------------------ #
    @staticmethod
    def _sink(connection: _Connection, request_id: str) -> Callable[[Dict[str, Any]], None]:
        """A broker sink that stamps this request's id onto each payload."""

        def sink(payload: Dict[str, Any]) -> None:
            frame = dict(payload)
            frame["id"] = request_id
            connection.send_nowait(frame)

        return sink

    @staticmethod
    def _updates_only(sink: Callable[[Dict[str, Any]], None]) -> Callable[[Dict[str, Any]], None]:
        """Filter a sink down to stream payloads (``update``, ``progress``).

        Used when a coalesced follower listens on its representative's
        channel: the follower must stream the representative's updates
        but take its *final* result (with its own identity) from its own
        channel, so the representative's result payload is dropped here.
        """

        def filtered(payload: Dict[str, Any]) -> None:
            if payload.get("type") != "result":
                sink(payload)

        return filtered

    # ------------------------------------------------------------------ #
    # Job admission (shared by solve and submit)
    # ------------------------------------------------------------------ #
    async def _admit_job(self, connection: _Connection, request: protocol.Request) -> ServerJob:
        """Validate a solve/submit payload and admit the job.

        Spec parsing (problem deserialization or generation) can be
        megabytes of CPU work, so it runs on the default executor — one
        oversized request must not stall pings, streamed updates and
        other clients' admissions.  Everything after the parse is
        synchronous again, so admission, the coalesce check and sink
        registration stay atomic with respect to the worker tasks.
        """
        payload = request.payload
        spec = payload.get("spec")
        if not isinstance(spec, dict):
            raise ProtocolError(f"{request.op} needs an object 'spec' field")
        priority = protocol.parse_priority(payload.get("priority"))
        client_field = payload.get("client")
        if client_field is not None and not isinstance(client_field, str):
            raise ProtocolError("'client' must be a string when given")
        client_id = client_field or connection.client_id
        stream = bool(payload.get("stream", False))

        solve_request = await asyncio.get_running_loop().run_in_executor(
            None,
            lambda: request_from_spec(spec, default_budget_ms=self.config.default_budget_ms),
        )
        cap = self.config.max_budget_ms
        if cap is not None and solve_request.time_budget_ms > cap:
            raise AdmissionError(
                f"time budget {solve_request.time_budget_ms:.0f} ms exceeds the "
                f"server cap of {cap:.0f} ms",
                code="budget",
            )
        self._job_counter += 1
        job_id = f"sj-{self._job_counter}"
        if not solve_request.job_id:
            solve_request.job_id = job_id
        job = ServerJob(
            job_id=job_id,
            client_id=client_id,
            request=solve_request,
            priority=priority,
            stream=stream,
        )
        self._jobs[job_id] = job
        self._prune_jobs()
        self.broker.open(job_id)
        try:
            self.pool.admit(job)
        except AdmissionError:
            self.broker.discard(job_id)
            self._jobs.pop(job_id, None)
            self.metrics.increment("jobs_rejected")
            raise
        return job

    def _prune_jobs(self) -> None:
        """Forget finished jobs beyond the configured bounds.

        Soft bound (``completed_jobs_kept``): only finished jobs older
        than the retention window are dropped, so a pipelined client
        that submits and waits later still finds its results.  Hard
        bound (four times the soft bound): oldest finished jobs go
        regardless — memory stays bounded under any traffic.  Both pop
        the pool's finish-ordered deque from its oldest end, so a prune
        costs O(jobs pruned), not O(jobs tracked).
        """
        kept = self.config.completed_jobs_kept
        finished = self.pool.finished
        now = time.monotonic()
        retention = self.config.completed_job_retention_s
        while (
            len(self._jobs) > kept
            and finished
            and now - finished[0].finished_at > retention
        ):
            self._jobs.pop(finished.popleft().job_id, None)
        while len(self._jobs) > 4 * kept and finished:
            self._jobs.pop(finished.popleft().job_id, None)

    # ------------------------------------------------------------------ #
    # Operation handlers
    # ------------------------------------------------------------------ #
    def _op_hello(self, connection: _Connection, request: protocol.Request) -> None:
        """Report server identity, registered solvers and limits."""
        from repro import __version__

        connection.send_nowait(
            protocol.hello_frame(
                request.id,
                self.config.server_name,
                __version__,
                self.frontend.registry.names(),
                {
                    "max_frame_bytes": self.config.max_frame_bytes,
                    "queue_capacity": self.config.queue_capacity,
                    "max_jobs_per_client": self.config.max_jobs_per_client,
                    "default_budget_ms": self.config.default_budget_ms,
                    "max_budget_ms": self.config.max_budget_ms,
                    "workers": self.config.workers,
                    "shards": self.config.shards,
                    "fusion_window_ms": self.config.fusion_window_ms,
                    "fusion_max_jobs": self.config.fusion_max_jobs,
                },
            )
        )

    def _op_ping(self, connection: _Connection, request: protocol.Request) -> None:
        """Liveness probe."""
        connection.send_nowait(protocol.pong_frame(request.id))

    async def _op_solve(self, connection: _Connection, request: protocol.Request) -> None:
        """Admit a job and deliver its result (and updates) to this request."""
        job = await self._admit_job(connection, request)
        sink = self._sink(connection, request.id)
        # The final result always comes from the job's own channel so it
        # carries the job's own identity even when coalesced.
        self.broker.subscribe(job.job_id, sink, updates=False)
        if job.stream:
            stream_target = (
                job.coalesced_with
                if job.coalesced_with is not None and self.broker.is_open(job.coalesced_with)
                else job.job_id
            )
            self.broker.subscribe(stream_target, self._updates_only(sink), updates=True)
        connection.send_nowait(
            protocol.queued_frame(
                request.id, job.job_id, self.queue.depth, coalesced_with=job.coalesced_with
            )
        )

    async def _op_submit(self, connection: _Connection, request: protocol.Request) -> None:
        """Admit a job fire-and-forget; fetch the outcome via wait/subscribe."""
        job = await self._admit_job(connection, request)
        connection.send_nowait(
            protocol.queued_frame(
                request.id, job.job_id, self.queue.depth, coalesced_with=job.coalesced_with
            )
        )

    def _require_job(self, request: protocol.Request) -> ServerJob:
        """Resolve the ``job_id`` field of a wait/subscribe payload."""
        job_id = request.payload.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ProtocolError(f"{request.op} needs a string 'job_id' field")
        job = self._jobs.get(job_id)
        if job is None:
            raise ProtocolError(f"unknown job {job_id!r} (finished jobs are kept for a while)")
        return job

    def _op_wait(self, connection: _Connection, request: protocol.Request) -> None:
        """Deliver a job's final result, now or when it completes."""
        job = self._require_job(request)
        if job.result is not None:
            connection.send_nowait(
                protocol.result_frame(request.id, job.job_id, job.result.to_dict())
            )
            return
        self.broker.subscribe(job.job_id, self._sink(connection, request.id), updates=False)

    def _op_subscribe(self, connection: _Connection, request: protocol.Request) -> None:
        """Attach to a job's live update stream (plus its final result)."""
        job = self._require_job(request)
        connection.send_nowait(protocol.subscribed_frame(request.id, job.job_id, job.state))
        sink = self._sink(connection, request.id)
        if job.result is not None:
            connection.send_nowait(
                protocol.result_frame(request.id, job.job_id, job.result.to_dict())
            )
            return
        self.broker.subscribe(job.job_id, sink, updates=False)
        stream_target = (
            job.coalesced_with
            if job.coalesced_with is not None and self.broker.is_open(job.coalesced_with)
            else job.job_id
        )
        self.broker.subscribe(stream_target, self._updates_only(sink), updates=True)

    def _op_stats(self, connection: _Connection, request: protocol.Request) -> None:
        """Report the registry's JSON rendering plus the pool's health block."""
        extra: Dict[str, Any] = {
            "jobs_tracked": len(self._jobs),
            "draining": self.queue.draining,
            "stream_channels": len(self.broker),
            "health": self.pool.health(),
        }
        if self.frontend.cache is not None:
            stats = self.frontend.cache.stats
            extra["result_cache"] = {
                "entries": len(self.frontend.cache),
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": round(stats.hit_rate, 4),
            }
        connection.send_nowait(
            protocol.stats_frame(
                request.id,
                self.metrics.snapshot(
                    queue_depth=self.queue.depth, inflight=self.pool.active, extra=extra
                ),
            )
        )

    def _op_metrics(self, connection: _Connection, request: protocol.Request) -> None:
        """Serve the cluster-wide Prometheus exposition.

        The per-shard gauges are set first from the pool's health block
        (on the event-loop thread, where pool state is owned); the
        render then federates the parent registries with every shard's
        latest heartbeat snapshot.
        """
        self.metrics.set_shard_gauges(self.pool.health())
        connection.send_nowait(
            protocol.metrics_frame(
                request.id,
                self.metrics.prometheus_text(
                    queue_depth=self.queue.depth, inflight=self.pool.active
                ),
            )
        )

    def _op_health(self, connection: _Connection, request: protocol.Request) -> None:
        """Serve structured liveness state plus the recent event tail."""
        health = self.pool.health()
        health["uptime_s"] = round(self.metrics.uptime_s(), 3)
        health["events"] = get_event_log().tail(32)
        connection.send_nowait(protocol.health_frame(request.id, health))

    def _op_shutdown(self, connection: _Connection, request: protocol.Request) -> None:
        """Begin a graceful drain (when permitted by the config)."""
        if not self.config.allow_shutdown:
            raise ProtocolError("this server does not allow remote shutdown")
        drain = bool(request.payload.get("drain", True))
        connection.send_nowait(
            protocol.draining_frame(request.id, self.pool.pending_jobs())
        )
        assert self._loop is not None
        self._loop.create_task(self.stop(drain=drain))


@dataclass
class ServerHandle:
    """A server hosted on a background thread (tests, benchmarks, demos)."""

    server: SolverServer
    thread: threading.Thread
    _stop_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def host(self) -> str:
        """Bound host address."""
        return self.server.host

    @property
    def port(self) -> int:
        """Bound port (resolved when the config asked for port 0)."""
        return self.server.port

    def stop(self, timeout_s: float = 30.0) -> None:
        """Gracefully drain and stop the server, then join its thread."""
        with self._stop_lock:
            loop = self.server._loop  # noqa: SLF001 — the handle owns the server
            if self.thread.is_alive() and loop is not None and not loop.is_closed():
                try:
                    asyncio.run_coroutine_threadsafe(self.server.stop(), loop).result(timeout_s)
                except (RuntimeError, TimeoutError):
                    # Loop already gone or drain overran; joining below is
                    # still correct (the thread is a daemon either way).
                    pass
            self.thread.join(timeout_s)


def run_server_in_thread(
    config: ServerConfig | None = None,
    frontend: ServiceFrontend | None = None,
    ready_timeout_s: float = 10.0,
    frontend_factory: Optional[Callable[[], ServiceFrontend]] = None,
) -> ServerHandle:
    """Start a :class:`SolverServer` on a daemon thread and wait for bind.

    Returns a :class:`ServerHandle` whose :attr:`~ServerHandle.port`
    reports the actual bound port.  The server also stops (and the
    thread exits) when a client issues the ``shutdown`` op.
    ``frontend_factory`` builds each shard's frontend (see
    :class:`SolverServer`).
    """
    server = SolverServer(config=config, frontend=frontend, frontend_factory=frontend_factory)
    ready = threading.Event()
    failures: list = []

    def runner() -> None:
        """Thread body: own event loop, serve until stopped."""

        async def main() -> None:
            try:
                await server.start()
            except Exception as exc:  # noqa: BLE001 — reported to the caller below
                failures.append(exc)
                ready.set()
                return
            ready.set()
            await server.wait_stopped()

        asyncio.run(main())

    thread = threading.Thread(target=runner, name="repro-server", daemon=True)
    thread.start()
    if not ready.wait(ready_timeout_s):
        raise ServerError(f"server did not start within {ready_timeout_s} s")
    if failures:
        raise failures[0]
    return ServerHandle(server=server, thread=thread)
