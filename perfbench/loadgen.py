"""One-connection load generator for the solver server's NDJSON protocol.

A closed loop on the calling thread over a single socket: send one
``solve`` frame, read frames until its ``result`` (or ``error``) arrives,
timestamping each frame as it is read, then send the next.

``encode_frame``/``decode_frame`` are bound here by name so a traced run
can wrap the client side separately from the server side.
"""

from __future__ import annotations

import select
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.server.protocol import decode_frame, encode_frame

__all__ = ["Outcome", "Connection", "closed_loop"]


@dataclass
class Outcome:
    """What the client saw for one job (``perf_counter`` seconds)."""

    index: int
    sent: float
    done: Optional[float] = None
    frame: Optional[Dict[str, Any]] = None

    @property
    def latency_ms(self) -> float:
        """From the send to the arrival of the final frame."""
        return (self.done - self.sent) * 1000.0

    @property
    def result(self) -> Optional[Dict[str, Any]]:
        """The ``SolveResult`` payload, or ``None`` for error/missing frames."""
        if self.frame is None or self.frame.get("type") != "result":
            return None
        return self.frame["result"]


class Connection:
    """A blocking socket plus a line buffer for result frames."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        """Close the socket."""
        self.sock.close()

    def ping(self, timeout_s: float = 10.0) -> None:
        """Round-trip a ``ping``: the server is serving this connection."""
        self.sock.sendall(encode_frame({"op": "ping", "id": "ping"}))
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if any(frame.get("type") == "pong" for _, frame in self.read_frames(timeout_s)):
                return
        raise TimeoutError("the server did not answer a ping")

    def send_solve(self, request_id: str, spec: Dict[str, Any]) -> None:
        """Write one ``solve`` frame."""
        self.sock.sendall(encode_frame({"op": "solve", "id": request_id, "spec": spec}))

    def read_frames(self, timeout_s: float) -> List[tuple]:
        """Frames that arrive within ``timeout_s``, as ``(arrival, frame)``."""
        readable, _, _ = select.select([self.sock], [], [], max(0.0, timeout_s))
        if not readable:
            return []
        chunk = self.sock.recv(1 << 16)
        arrival = time.perf_counter()
        if not chunk:
            raise ConnectionError("the server closed the connection")
        *lines, self._buffer = (self._buffer + chunk).split(b"\n")
        return [(arrival, decode_frame(line)) for line in lines if line.strip()]


def _settle(
    outcomes: Sequence[Outcome], arrival: float, frame: Dict[str, Any], first_index: int = 0
) -> bool:
    """Record a final frame on its job; ``True`` if it finished one."""
    if frame.get("type") not in ("result", "error"):
        return False  # "queued" acknowledgements
    position = int(frame["id"]) - first_index
    if not 0 <= position < len(outcomes) or outcomes[position].done is not None:
        return False  # a straggler from an earlier block
    outcome = outcomes[position]
    outcome.done, outcome.frame = arrival, frame
    return True


def closed_loop(
    connection: Connection,
    specs: Sequence[Dict[str, Any]],
    first_index: int = 0,
    job_timeout_s: float = 60.0,
) -> List[Outcome]:
    """Send each spec after the previous result arrived.

    Request ids continue from ``first_index``, so consecutive blocks on
    one connection never reuse an id.
    """
    outcomes: List[Outcome] = []
    for index, spec in enumerate(specs, start=first_index):
        outcome = Outcome(index=index, sent=time.perf_counter())
        outcomes.append(outcome)
        connection.send_solve(str(index), spec)
        deadline = outcome.sent + job_timeout_s
        while outcome.done is None and time.perf_counter() < deadline:
            for arrival, frame in connection.read_frames(deadline - time.perf_counter()):
                _settle(outcomes, arrival, frame, first_index)
    return outcomes

