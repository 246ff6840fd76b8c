"""Fan-out of incremental anytime updates to subscribed clients.

While a job runs, its solvers record incumbent improvements through
:class:`~repro.baselines.anytime.TrajectoryRecorder`; the worker pool
forwards those improvements (via the thread-local observer hook and
``loop.call_soon_threadsafe``) into the :class:`StreamBroker`, which
maintains one channel per live job.  A channel filters the raw
improvement stream down to the *monotone* best-so-far frontier — racing
portfolio members each report their own improvements, but subscribers
only care when the job-level incumbent improves — stamps a sequence
number, and fans the update out to every sink.

Decomposed solves also report cluster completions; those become
``progress`` frames on the same channel.  :func:`forward_job_stream`
installs both observers around a job's solve and turns each report into
a message that :meth:`StreamBroker.publish` replays on the event loop —
handed over with ``call_soon_threadsafe`` on the thread tier, sent over
the pipe by a shard.

Sinks are plain callables ``sink(payload: dict) -> None`` supplied by
the connection layer; a payload is a protocol frame *without* the ``id``
field, which each sink injects for its own request before writing.  The
broker itself is transport-free and single-threaded (event-loop only),
which keeps it directly unit-testable.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.baselines.anytime import observe_improvements
from repro.core.decomposition import observe_decomposition_progress

__all__ = ["StreamBroker", "StreamSink", "forward_job_stream"]

#: A subscriber callback; receives protocol frames without the ``id`` field.
StreamSink = Callable[[Dict[str, Any]], None]

#: Improvements smaller than this are noise, not updates.
_IMPROVEMENT_EPS = 1e-12


@contextmanager
def forward_job_stream(
    job_id: str, started: float, send: Callable[[Tuple[Any, ...]], None]
) -> Iterator[None]:
    """Forward a running job's reports to ``send`` from the solving thread.

    An anytime improvement becomes ``("update", job_id, solver,
    elapsed_ms, cost)``, with the elapsed time re-measured against the
    job's ``started`` (``time.monotonic``) so racing portfolio members
    share one time axis.  A decomposition cluster completion becomes
    ``("progress", job_id, solver, completed, total)``.
    """

    def improvement(solver_name: str, _elapsed_ms: float, cost: float) -> None:
        elapsed_ms = (time.monotonic() - started) * 1000.0
        send(("update", job_id, solver_name, elapsed_ms, cost))

    def progress(solver_name: str, completed: int, total: int) -> None:
        send(("progress", job_id, solver_name, completed, total))

    with observe_improvements(improvement), observe_decomposition_progress(progress):
        yield


class _Channel:
    """Per-job stream state: sinks, sequence counter, incumbent filter."""

    __slots__ = ("update_sinks", "result_sinks", "seq", "best_cost")

    def __init__(self) -> None:
        self.update_sinks: List[StreamSink] = []
        self.result_sinks: List[StreamSink] = []
        self.seq = 0
        self.best_cost = float("inf")


class StreamBroker:
    """Routes per-job update and result payloads to registered sinks.

    All methods must be called from the event-loop thread (worker
    threads hand improvements over via ``call_soon_threadsafe``).
    """

    def __init__(self, on_update_streamed: Optional[Callable[[int], None]] = None) -> None:
        self._channels: Dict[str, _Channel] = {}
        # Metrics hook: called with the number of sinks an update reached.
        self._on_update_streamed = on_update_streamed

    # ------------------------------------------------------------------ #
    # Channel lifecycle
    # ------------------------------------------------------------------ #
    def open(self, job_id: str) -> None:
        """Create the channel for a newly admitted job."""
        self._channels.setdefault(job_id, _Channel())

    def is_open(self, job_id: str) -> bool:
        """Whether ``job_id`` has a live channel."""
        return job_id in self._channels

    def subscribe(self, job_id: str, sink: StreamSink, updates: bool = True) -> bool:
        """Attach ``sink`` to a live job.

        With ``updates=True`` the sink receives every incremental update
        plus the final result; with ``updates=False`` only the final
        result (the ``wait`` operation).  Returns ``False`` when the job
        has no live channel (unknown or already closed) — the caller
        falls back to the completed-job registry.
        """
        channel = self._channels.get(job_id)
        if channel is None:
            return False
        if updates:
            channel.update_sinks.append(sink)
        else:
            channel.result_sinks.append(sink)
        return True

    def discard(self, job_id: str) -> None:
        """Drop a channel without delivering anything (admission failed)."""
        self._channels.pop(job_id, None)

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def publish(self, message: Tuple[Any, ...]) -> bool:
        """Replay one message of :func:`forward_job_stream` on its channel."""
        kind, *fields = message
        if kind == "progress":
            return self.publish_progress(*fields)
        return self.publish_improvement(*fields)

    def publish_improvement(
        self, job_id: str, solver: str, elapsed_ms: float, cost: float
    ) -> bool:
        """Forward one solver improvement if it improves the job incumbent.

        Returns whether an update was emitted.  Non-improving reports
        (a slower portfolio member catching up) are dropped, so streamed
        costs are strictly decreasing and ``seq`` numbers are gap-free.
        """
        channel = self._channels.get(job_id)
        if channel is None:
            return False
        if cost >= channel.best_cost - _IMPROVEMENT_EPS:
            return False
        channel.best_cost = cost
        channel.seq += 1
        payload = {
            "type": "update",
            "job_id": job_id,
            "seq": channel.seq,
            "elapsed_ms": round(float(elapsed_ms), 3),
            "cost": float(cost),
            "solver": solver,
        }
        delivered = 0
        for sink in list(channel.update_sinks):
            try:
                sink(dict(payload))
                delivered += 1
            except Exception:  # noqa: BLE001 — a dead sink must not stop the fan-out
                pass
        if delivered and self._on_update_streamed is not None:
            self._on_update_streamed(delivered)
        return True

    def publish_progress(
        self, job_id: str, solver: str, completed: int, total: int
    ) -> bool:
        """Forward one coarse progress report (decomposition cluster counts).

        Unlike :meth:`publish_improvement` there is no incumbent filter —
        every completion is news — but the frames share the channel's
        ``seq`` counter so subscribers still see one gap-free ordering.
        Clients that predate the ``progress`` frame type ignore it.
        """
        channel = self._channels.get(job_id)
        if channel is None:
            return False
        channel.seq += 1
        payload = {
            "type": "progress",
            "job_id": job_id,
            "seq": channel.seq,
            "solver": solver,
            "completed": int(completed),
            "total": int(total),
        }
        delivered = 0
        for sink in list(channel.update_sinks):
            try:
                sink(dict(payload))
                delivered += 1
            except Exception:  # noqa: BLE001 — see publish_improvement
                pass
        if delivered and self._on_update_streamed is not None:
            self._on_update_streamed(delivered)
        return True

    def close(self, job_id: str, final_payload: Dict[str, Any]) -> int:
        """Deliver the final payload to every sink and drop the channel.

        Returns the number of sinks the final frame reached.
        """
        channel = self._channels.pop(job_id, None)
        if channel is None:
            return 0
        delivered = 0
        for sink in channel.update_sinks + channel.result_sinks:
            try:
                sink(dict(final_payload))
                delivered += 1
            except Exception:  # noqa: BLE001 — see publish_improvement
                pass
        return delivered

    def __len__(self) -> int:
        return len(self._channels)
