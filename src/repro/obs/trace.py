"""Lightweight spans with context propagation and a no-op fast path.

A :class:`Span` names one timed stage of the pipeline (``mqo.qubo_build``,
``mqo.anneal``, ``service.solve`` …).  Spans nest through a
``contextvars.ContextVar``: whichever span is *current* when a new one
starts becomes its parent, so a trace reconstructs the call tree without
any explicit plumbing.

Two boundaries need explicit help:

* **Threads** — ``contextvars`` do not cross ``ThreadPoolExecutor``
  boundaries.  Capture :meth:`Tracer.current_context` before spawning
  and re-install it inside the worker with :meth:`Tracer.activate`
  (the portfolio scheduler does exactly this, mirroring how it already
  forwards improvement observers).
* **Processes** — spans cross only the pipe of a shard process
  (:mod:`repro.server.sharding`): a shard traces each unit of work
  with its own tracer and ships the finished spans back as dictionaries
  (:meth:`Span.to_dict`), tagged with a ``shard`` attribute, for the
  parent's :meth:`Tracer.adopt`.  Shard spans start their own traces.

Tracing defaults to *disabled*.  The disabled path allocates nothing:
:meth:`Tracer.span` returns one shared no-op singleton after a single
attribute check, so instrumentation can stay inline on the hot path.
Per-iteration loops (e.g. hill-climbing improvements) should still guard
on :attr:`Tracer.enabled` and prefer counters over spans.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.obs.metrics import get_registry

__all__ = ["Span", "SpanContext", "Tracer", "get_tracer", "configure_tracer"]

#: Spans discarded because the tracer ring buffer was full — a real
#: counter (not just :attr:`Tracer.dropped`) so lost telemetry is itself
#: visible in the Prometheus exposition, including federated shards.
_SPANS_DROPPED = get_registry().counter(
    "repro_obs_spans_dropped_total",
    "Finished spans dropped because the tracer ring buffer was full.",
)

#: Current tracer ring-buffer occupancy (finished, undrained spans).
_BUFFER_OCCUPANCY = get_registry().gauge(
    "repro_obs_span_buffer_spans",
    "Finished spans currently buffered by the tracer.",
)

#: The ambient span context of the running task (None outside any span).
_CURRENT: ContextVar[Optional["SpanContext"]] = ContextVar("repro_obs_span", default=None)

#: Process-unique prefix so span ids never collide across shard processes.
_ID_PREFIX = uuid.uuid4().hex[:8]
_ID_COUNTER = itertools.count(1)


def _new_span_id() -> str:
    """A process-unique span id (cheap: counter + fixed random prefix)."""
    return f"{_ID_PREFIX}-{next(_ID_COUNTER):08x}"


class SpanContext:
    """The identity of a span: ``(trace_id, span_id)``.

    This is what crosses thread boundaries (:meth:`Tracer.activate`);
    the heavyweight :class:`Span` (timings, attributes) never does.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpanContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SpanContext trace={self.trace_id} span={self.span_id}>"


class Span:
    """One timed, named stage; usable as a context manager.

    Entering the span makes it the ambient parent for spans started
    underneath it (same task); exiting records the duration and hands
    the finished span to its tracer.
    """

    __slots__ = (
        "name",
        "context",
        "parent_id",
        "attributes",
        "start_s",
        "duration_ms",
        "status",
        "_tracer",
        "_start_perf",
        "_token",
    )

    def __init__(
        self,
        name: str,
        tracer: Optional["Tracer"] = None,
        parent: Optional[SpanContext] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        trace_id = parent.trace_id if parent is not None else uuid.uuid4().hex[:16]
        self.name = name
        self.context = SpanContext(trace_id, _new_span_id())
        self.parent_id = parent.span_id if parent is not None else None
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.start_s = 0.0
        self.duration_ms: Optional[float] = None
        self.status = "ok"
        self._tracer = tracer
        self._start_perf = 0.0
        self._token = None

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #
    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one JSON-scalar attribute to the span."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self.start_s = time.time()
        self._start_perf = time.perf_counter()
        self._token = _CURRENT.set(self.context)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_ms = (time.perf_counter() - self._start_perf) * 1000.0
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if self._tracer is not None:
            self._tracer._record(self)
        return None

    # -------------------------------------------------------------- #
    # Serialisation (NDJSON export / shard return path)
    # -------------------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """One JSON-friendly record (one NDJSON line) for this span."""
        return {
            "name": self.name,
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.parent_id,
            "start_s": round(self.start_s, 6),
            "duration_ms": (
                round(self.duration_ms, 6) if self.duration_ms is not None else None
            ),
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        """Rebuild a finished span from its :meth:`to_dict` record."""
        span = cls(name=str(payload["name"]))
        span.context = SpanContext(str(payload["trace_id"]), str(payload["span_id"]))
        parent_id = payload.get("parent_id")
        span.parent_id = None if parent_id is None else str(parent_id)
        span.start_s = float(payload.get("start_s", 0.0))
        duration = payload.get("duration_ms")
        span.duration_ms = None if duration is None else float(duration)
        span.status = str(payload.get("status", "ok"))
        span.attributes = dict(payload.get("attributes", {}))
        return span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Span {self.name} {self.duration_ms} ms>"


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        """Discarded — tracing is off."""
        return None


#: The singleton no-op span; never mutated, safe to share everywhere.
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Creates spans and buffers finished ones until they are drained.

    The buffer is bounded (``buffer_size`` most recent spans are kept;
    older ones are dropped and counted in :attr:`dropped`), so a
    long-running server with tracing left on cannot grow without bound.
    """

    def __init__(self, enabled: bool = False, buffer_size: int = 20000) -> None:
        if buffer_size <= 0:
            raise ValueError(f"buffer_size must be positive, got {buffer_size}")
        self.enabled = enabled
        self.buffer_size = buffer_size
        self.dropped = 0
        self._finished: deque = deque(maxlen=buffer_size)
        self._lock = threading.Lock()

    # -------------------------------------------------------------- #
    # Span creation and context plumbing
    # -------------------------------------------------------------- #
    def span(self, name: str, attributes: Optional[Dict[str, Any]] = None):
        """A new child span of the ambient context (no-op when disabled).

        The disabled path performs one attribute check and returns the
        shared :data:`NOOP_SPAN` — no allocation, no contextvar access.
        """
        if not self.enabled:
            return NOOP_SPAN
        return Span(name, tracer=self, parent=_CURRENT.get(), attributes=attributes)

    def current_context(self) -> Optional[SpanContext]:
        """The ambient span context (capture before spawning threads)."""
        if not self.enabled:
            return None
        return _CURRENT.get()

    @contextmanager
    def activate(self, context: Optional[SpanContext]) -> Iterator[None]:
        """Install ``context`` as the ambient parent for this block.

        Used on the far side of a thread or process hop; ``None`` is
        accepted and means "no parent" (the block runs unchanged).
        """
        if context is None:
            yield
            return
        token = _CURRENT.set(context)
        try:
            yield
        finally:
            _CURRENT.reset(token)

    # -------------------------------------------------------------- #
    # Collection
    # -------------------------------------------------------------- #
    def _record(self, span: Span) -> None:
        """Buffer one finished span (called from ``Span.__exit__``)."""
        with self._lock:
            if len(self._finished) == self.buffer_size:
                self.dropped += 1
                _SPANS_DROPPED.inc()
            self._finished.append(span)
            _BUFFER_OCCUPANCY.set(len(self._finished))

    def adopt(self, records: Iterable[Dict[str, Any]]) -> int:
        """Ingest span dictionaries produced in another process.

        Returns the number of spans adopted.  Used by the shard pool to
        merge the spans a shard shipped back with a job's result.
        """
        count = 0
        with self._lock:
            for record in records:
                if len(self._finished) == self.buffer_size:
                    self.dropped += 1
                    _SPANS_DROPPED.inc()
                self._finished.append(Span.from_dict(record))
                count += 1
            _BUFFER_OCCUPANCY.set(len(self._finished))
        return count

    def drain(self) -> List[Span]:
        """Remove and return every buffered finished span (oldest first)."""
        with self._lock:
            spans = list(self._finished)
            self._finished.clear()
            _BUFFER_OCCUPANCY.set(0)
        return spans

    def __len__(self) -> int:
        """Number of finished spans currently buffered."""
        with self._lock:
            return len(self._finished)


#: The process-wide tracer every instrumented module uses.
_GLOBAL_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled by default)."""
    return _GLOBAL_TRACER


def configure_tracer(enabled: bool, buffer_size: Optional[int] = None) -> Tracer:
    """Enable or disable the global tracer in place.

    Mutating (rather than swapping) the singleton keeps every module
    that grabbed a reference at import time on the live configuration.
    Returns the tracer for convenience.
    """
    if buffer_size is not None:
        if buffer_size <= 0:
            raise ValueError(f"buffer_size must be positive, got {buffer_size}")
        with _GLOBAL_TRACER._lock:
            _GLOBAL_TRACER.buffer_size = buffer_size
            _GLOBAL_TRACER._finished = deque(_GLOBAL_TRACER._finished, maxlen=buffer_size)
    _GLOBAL_TRACER.enabled = enabled
    return _GLOBAL_TRACER
