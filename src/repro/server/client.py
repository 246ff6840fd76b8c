"""Blocking Python client for the solver server.

:class:`SolverClient` opens one TCP connection, speaks the
newline-delimited JSON protocol and exposes the operations as ordinary
method calls: :meth:`~SolverClient.solve` (optionally streaming anytime
updates to a callback), :meth:`~SolverClient.submit` /
:meth:`~SolverClient.wait` for fire-and-collect pipelining,
:meth:`~SolverClient.subscribe` to watch a running job, plus
:meth:`~SolverClient.stats`, :meth:`~SolverClient.ping` and
:meth:`~SolverClient.shutdown`.

Requests are multiplexed over the single connection: every call gets a
fresh request id, and a small frame pump reads the socket until the
awaited terminal frame arrives, stashing frames that belong to other
outstanding requests (e.g. results of earlier ``submit`` calls landing
out of order).  ``update`` frames are dispatched to the caller-supplied
callback as they arrive, *before* the final result — that is the
streaming anytime contract the end-to-end tests assert.

The client is synchronous and not thread-safe; use one client per
thread (the throughput benchmark does exactly that).
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.exceptions import AdmissionError, ProtocolError, ServerError
from repro.mqo.problem import MQOProblem
from repro.mqo.serialization import problem_to_dict
from repro.server import protocol
from repro.service.jobs import SolveRequest, SolveResult

__all__ = ["SolverClient"]

#: Accepted job specifications: a raw spec dictionary (any shape
#: understood by :func:`repro.service.jobs.request_from_spec`), a
#: problem object, or a fully-formed request.
SpecLike = Union[Dict[str, Any], MQOProblem, SolveRequest]

#: Callback receiving ``update`` frames (dictionaries with ``seq``,
#: ``elapsed_ms``, ``cost``, ``solver``, ``job_id``).
UpdateCallback = Callable[[Dict[str, Any]], None]


def _spec_from(spec: SpecLike, **overrides: Any) -> Dict[str, Any]:
    """Normalise any accepted spec shape into a wire dictionary.

    ``overrides`` (solver, budget_ms, seed, job_id, solvers, metadata)
    are applied on top when not ``None``.
    """
    if isinstance(spec, SolveRequest):
        payload = spec.to_dict()
    elif isinstance(spec, MQOProblem):
        payload = {"problem": problem_to_dict(spec)}
    elif isinstance(spec, Mapping):
        payload = dict(spec)
    else:
        raise ProtocolError(
            f"cannot build a job spec from {type(spec).__name__}; "
            "pass a dict, an MQOProblem or a SolveRequest"
        )
    for key, value in overrides.items():
        if value is not None:
            payload[key] = value
    return payload


class SolverClient:
    """One blocking connection to a :class:`~repro.server.app.SolverServer`.

    Parameters
    ----------
    host / port:
        Server address.
    client_name:
        Fairness bucket reported with every job (defaults to the
        server-assigned per-connection id when empty).
    timeout_s:
        Socket timeout applied to every read; calls that legitimately
        wait longer (big budgets, deep queues) need a larger value.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7337,
        client_name: str = "",
        timeout_s: float = 60.0,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.client_name = client_name
        self.max_frame_bytes = max_frame_bytes
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout_s)
        except OSError as exc:
            raise ServerError(f"cannot connect to {host}:{port}: {exc}") from exc
        self._reader = self._sock.makefile("rb")
        self._request_counter = 0
        self._stash: Dict[str, List[Dict[str, Any]]] = {}
        self.last_job_id: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Connection plumbing
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "SolverClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _next_id(self) -> str:
        """A fresh request id for multiplexing."""
        self._request_counter += 1
        return f"r{self._request_counter}"

    def _send(self, frame: Dict[str, Any]) -> None:
        """Encode and transmit one request frame."""
        try:
            self._sock.sendall(protocol.encode_frame(frame, self.max_frame_bytes))
        except OSError as exc:
            raise ServerError(f"connection to {self.host}:{self.port} lost: {exc}") from exc

    def _read_frame(self) -> Dict[str, Any]:
        """Read and decode the next frame off the socket."""
        try:
            line = self._reader.readline(self.max_frame_bytes + 1)
        except socket.timeout as exc:
            # The read may have consumed part of a frame; the stream can
            # no longer be trusted, so fail the whole connection.
            self.close()
            raise ServerError(
                f"timed out waiting for a frame from {self.host}:{self.port}; "
                "connection closed"
            ) from exc
        except OSError as exc:
            raise ServerError(f"connection to {self.host}:{self.port} lost: {exc}") from exc
        if not line:
            raise ServerError(f"server {self.host}:{self.port} closed the connection")
        if not line.endswith(b"\n"):
            # A partial line means framing is lost — either the server's
            # frame exceeds this client's limit or the stream was cut
            # mid-frame.  Close rather than parse garbage forever.
            self.close()
            if len(line) > self.max_frame_bytes:
                raise ProtocolError(
                    f"server frame exceeds the client's {self.max_frame_bytes}-byte "
                    "limit; connection closed"
                )
            raise ServerError(
                f"connection to {self.host}:{self.port} cut mid-frame; connection closed"
            )
        return protocol.decode_frame(line, self.max_frame_bytes)

    @staticmethod
    def _raise_error_frame(frame: Dict[str, Any]) -> None:
        """Translate an ``error`` frame into the matching exception."""
        code = str(frame.get("code", "error"))
        message = str(frame.get("error", "unknown server error"))
        if code in ("queue_full", "client_quota", "draining", "budget", "backpressure"):
            raise AdmissionError(message, code=code)
        if code == "protocol":
            raise ProtocolError(message)
        raise ServerError(f"[{code}] {message}")

    def _pump(
        self,
        request_id: str,
        terminal_types: tuple,
        on_update: Optional[UpdateCallback] = None,
        on_frame: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Read frames until a terminal frame for ``request_id`` arrives.

        Frames addressed to other request ids are stashed for their own
        pump (pipelined submits).  ``error`` frames raise; ``update`` and
        ``progress`` frames go to ``on_update``; any other non-terminal
        frame for this request goes to ``on_frame`` (e.g. ``queued`` acks
        carrying the job id).
        """
        stashed = self._stash.get(request_id)
        while stashed:
            frame = stashed.pop(0)
            result = self._consume(frame, terminal_types, on_update, on_frame)
            if result is not None:
                if not stashed:
                    self._stash.pop(request_id, None)
                return result
        self._stash.pop(request_id, None)
        while True:
            frame = self._read_frame()
            frame_id = str(frame.get("id", ""))
            if frame_id != request_id:
                self._stash.setdefault(frame_id, []).append(frame)
                continue
            result = self._consume(frame, terminal_types, on_update, on_frame)
            if result is not None:
                return result

    def _consume(
        self,
        frame: Dict[str, Any],
        terminal_types: tuple,
        on_update: Optional[UpdateCallback],
        on_frame: Optional[Callable[[Dict[str, Any]], None]],
    ) -> Optional[Dict[str, Any]]:
        """Process one frame of the awaited request; return it if terminal."""
        frame_type = frame.get("type")
        if frame_type == "error":
            self._raise_error_frame(frame)
        if frame_type in terminal_types:
            return frame
        if frame_type in ("update", "progress") and on_update is not None:
            on_update(frame)
        elif on_frame is not None:
            on_frame(frame)
        return None

    # ------------------------------------------------------------------ #
    # Protocol operations
    # ------------------------------------------------------------------ #
    def hello(self) -> Dict[str, Any]:
        """The server's identity frame (name, version, solvers, limits)."""
        request_id = self._next_id()
        self._send({"op": "hello", "id": request_id})
        return self._pump(request_id, ("hello",))

    def ping(self) -> bool:
        """Round-trip liveness probe."""
        request_id = self._next_id()
        self._send({"op": "ping", "id": request_id})
        return self._pump(request_id, ("pong",))["type"] == "pong"

    def _job_request(
        self,
        op: str,
        spec: SpecLike,
        solver: Optional[str],
        budget_ms: Optional[float],
        seed: Optional[int],
        job_id: Optional[str],
        priority: Optional[str],
        stream: bool,
    ) -> str:
        """Send a solve/submit request; returns its request id."""
        payload = _spec_from(
            spec, solver=solver, time_budget_ms=budget_ms, seed=seed, job_id=job_id
        )
        frame: Dict[str, Any] = {"op": op, "id": self._next_id(), "spec": payload}
        if priority is not None:
            frame["priority"] = priority
        if stream:
            frame["stream"] = True
        if self.client_name:
            frame["client"] = self.client_name
        self._send(frame)
        return frame["id"]

    def solve(
        self,
        spec: SpecLike,
        solver: Optional[str] = None,
        budget_ms: Optional[float] = None,
        seed: Optional[int] = None,
        job_id: Optional[str] = None,
        priority: Optional[str] = None,
        on_update: Optional[UpdateCallback] = None,
    ) -> SolveResult:
        """Solve one job and block until its result.

        With ``on_update`` the request subscribes to the job's anytime
        stream and the callback receives every incremental improvement
        (``update`` frames) and decomposition progress report
        (``progress`` frames) before this method returns the final
        :class:`SolveResult`.
        """
        request_id = self._job_request(
            "solve", spec, solver, budget_ms, seed, job_id, priority,
            stream=on_update is not None,
        )

        def capture_ack(frame: Dict[str, Any]) -> None:
            if frame.get("type") == "queued":
                self.last_job_id = frame.get("job_id")

        frame = self._pump(request_id, ("result",), on_update=on_update, on_frame=capture_ack)
        return SolveResult.from_dict(frame["result"])

    def submit(
        self,
        spec: SpecLike,
        solver: Optional[str] = None,
        budget_ms: Optional[float] = None,
        seed: Optional[int] = None,
        job_id: Optional[str] = None,
        priority: Optional[str] = None,
    ) -> str:
        """Enqueue one job fire-and-forget; returns the server job id.

        Raises :class:`~repro.exceptions.AdmissionError` when the server
        applies backpressure.
        """
        request_id = self._job_request(
            "submit", spec, solver, budget_ms, seed, job_id, priority, stream=False
        )
        frame = self._pump(request_id, ("queued",))
        self.last_job_id = str(frame["job_id"])
        return self.last_job_id

    def wait(self, job_id: str) -> SolveResult:
        """Block until ``job_id`` finishes and return its result."""
        request_id = self._next_id()
        self._send({"op": "wait", "id": request_id, "job_id": job_id})
        frame = self._pump(request_id, ("result",))
        return SolveResult.from_dict(frame["result"])

    def subscribe(self, job_id: str, on_update: Optional[UpdateCallback] = None) -> SolveResult:
        """Attach to a running job's anytime stream until it finishes.

        ``on_update`` receives each ``update`` and ``progress`` frame;
        the final :class:`SolveResult` is returned.  Subscribing to an
        already finished job returns its result immediately (no updates).
        """
        request_id = self._next_id()
        self._send({"op": "subscribe", "id": request_id, "job_id": job_id})
        frame = self._pump(request_id, ("result",), on_update=on_update)
        return SolveResult.from_dict(frame["result"])

    def stats(self) -> Dict[str, Any]:
        """The server's metrics snapshot."""
        request_id = self._next_id()
        self._send({"op": "stats", "id": request_id})
        return self._pump(request_id, ("stats",))["stats"]

    def metrics_text(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        request_id = self._next_id()
        self._send({"op": "metrics", "id": request_id})
        return str(self._pump(request_id, ("metrics",))["text"])

    def health(self) -> Dict[str, Any]:
        """The server's structured liveness state (``health`` op).

        Carries the overall ``ok|degraded|draining`` verdict, per-shard
        state on the sharded tier, and the recent lifecycle-event tail.
        """
        request_id = self._next_id()
        self._send({"op": "health", "id": request_id})
        return self._pump(request_id, ("health",))["health"]

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        """Ask the server to shut down (gracefully draining by default)."""
        request_id = self._next_id()
        self._send({"op": "shutdown", "id": request_id, "drain": drain})
        return self._pump(request_id, ("draining",))
