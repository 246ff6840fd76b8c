"""Observability layer: tracing, a metrics registry, and exporters.

The paper's central claim is a *time* claim — anytime solution quality
per millisecond across a multi-stage pipeline — so this package gives
every stage a name and a number:

``trace``
    Lightweight spans (:class:`~repro.obs.trace.Tracer`,
    :class:`~repro.obs.trace.Span`) propagated through ``contextvars``
    so they survive the portfolio's racing threads; shard processes
    ship their finished spans back over the shard pipe for the parent
    to adopt.  Disabled tracing is a near-zero-cost no-op.

``metrics``
    A generic registry of counters, gauges and histograms, plus the one
    canonical percentile estimator (nearest rank) shared by the bench
    stats and the server metrics.

``export``
    NDJSON span export and Prometheus text-format exposition.

``events``
    A bounded ring of structured lifecycle events (shard spawns/exits,
    retries, admission rejects, drain) served by the ``health`` op.
"""

from repro.obs.events import EventLog, get_event_log, record_event
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
    percentiles,
)
from repro.obs.trace import Span, SpanContext, Tracer, configure_tracer, get_tracer
from repro.obs.export import (
    render_prometheus,
    span_from_json,
    spans_to_ndjson,
    write_ndjson,
)

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "Tracer",
    "configure_tracer",
    "get_event_log",
    "get_registry",
    "get_tracer",
    "record_event",
    "percentile",
    "percentiles",
    "render_prometheus",
    "span_from_json",
    "spans_to_ndjson",
    "write_ndjson",
]
