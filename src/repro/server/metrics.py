"""Server metrics: one registry behind ``stats``, ``metrics`` and ``top``.

Every count and latency the server keeps lives in one
:class:`repro.obs.metrics.MetricsRegistry` per :class:`ServerMetrics`:
the job and stream counters of :data:`COUNTERS` (registered at zero, so
every series carries its HELP line from the start), per-op request
counts, errors and handler latency (``repro_server_request*{op="..."}``),
the queue-wait, job-run and fusion-window histograms, and the shard
processes' per-shard counters and gauges.  Latency percentiles come from
each histogram's bounded window of recent samples, so memory stays
constant however long the server runs.

Two renderings read the registry: :meth:`ServerMetrics.snapshot` is the
JSON ``stats`` document (persisted into ``BENCH_server.json`` by the
throughput benchmark), and :meth:`ServerMetrics.prometheus_text` the
Prometheus exposition served by the ``metrics`` op.  Tier state is not
stored here: the pool's ``health()`` produces it, ``stats`` carries that
block under ``"health"``, and :meth:`ServerMetrics.set_shard_gauges`
mirrors its per-shard entries into gauges before each exposition.

Shard processes federate: each ships its process-global
registry as a :meth:`~repro.obs.metrics.MetricsRegistry.to_snapshot`
payload over the control pipe (heartbeat ticks and drain), the parent
stores the latest snapshot per slot (:meth:`ServerMetrics.record_shard_snapshot`)
and the exposition merges everything — per-shard series under a
``shard="N"`` label plus an unlabelled cluster rollup.

Counting semantics: ``jobs_completed`` counts **successes only**,
``jobs_failed`` counts failures, and ``jobs_finished`` is their total —
so ``jobs_per_second`` (successes per second of uptime) can no longer be
inflated by a stream of failing jobs.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.obs.export import render_prometheus
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, get_registry

__all__ = ["COUNTERS", "SHARD_COUNTERS", "ServerMetrics"]

#: Every unlabelled server counter: short name -> HELP text.  The series
#: of ``<short>`` is ``repro_server_<short>_total``, and ``stats`` lists
#: it under ``counters[<short>]``.
COUNTERS: Dict[str, str] = {
    "jobs_submitted": "Jobs admitted into the queue.",
    "jobs_completed": "Jobs finished successfully.",
    "jobs_finished": "Jobs finished, successful or not.",
    "jobs_failed": "Jobs finished with an error.",
    "jobs_coalesced": "Duplicate jobs attached to an in-flight twin.",
    "jobs_rejected": "Jobs refused at admission.",
    "jobs_retried": "Jobs queued again after their shard died.",
    "updates_streamed": "Anytime improvement frames streamed to clients.",
    "connections_opened": "Client connections accepted.",
    "connections_closed": "Client connections closed.",
    "fusion_windows": "Fused anneal windows executed.",
    "fusion_jobs": "Jobs that ran inside a fused anneal window.",
}

#: Per-shard counters ``repro_server_shard_<short>_total{shard="i"}``;
#: each shard's entry in the ``health()`` block carries them.
SHARD_COUNTERS: Dict[str, str] = {
    "jobs": "Jobs finished per shard process.",
    "failures": "Jobs failed per shard process.",
    "retries": "Jobs queued again after their shard died.",
    "restarts": "Shard process respawns after an unexpected death.",
}

#: Per-shard gauges ``repro_server_shard_<short>{shard="i"}``: short name
#: -> (key of the shard's ``health()`` entry, HELP text).
_SHARD_GAUGES: Dict[str, Tuple[str, str]] = {
    "inflight_jobs": ("assigned", "Jobs sent to the shard and not yet answered."),
    "heartbeat_age_seconds": ("heartbeat_age_s", "Seconds since the shard last sent any message."),
}


class ServerMetrics:
    """Thread-safe recording and rendering of the server's registry.

    Handler paths run on the event loop, but job completions are recorded
    from worker coroutines and the benchmark reads snapshots from other
    threads.  Recording goes through handles to the registry's
    instruments, held per counter and per op, so a call costs no registry
    lookup; a small lock guards the handle maps' growth and the shard
    snapshot store.
    """

    def __init__(self, window: int = 2048) -> None:
        self._lock = threading.Lock()
        self._window = window
        self.registry = MetricsRegistry()
        self._counters: Dict[str, Counter] = {
            short: self.registry.counter(f"repro_server_{short}_total", help_text)
            for short, help_text in COUNTERS.items()
        }
        self._ops: Dict[str, Tuple[Counter, Counter, Histogram]] = {}
        self._shard_metric_snapshots: Dict[int, Dict[str, Any]] = {}
        self.queue_wait = self.registry.histogram(
            "repro_server_queue_wait_ms",
            "Time jobs spent queued before a worker picked them up.",
            window=window,
        )
        self.job_run = self.registry.histogram(
            "repro_server_job_run_ms", "Job execution time on the worker pool.", window=window
        )
        self.fusion_window_ms = self.registry.histogram(
            "repro_server_fusion_window_ms",
            "Wall-clock execution time of fused anneal windows "
            "(compare with repro_server_job_run_ms for solo jobs).",
            window=window,
        )
        self._fusion_batch_gauge = self.registry.gauge(
            "repro_server_fusion_batch_size",
            "Jobs coalesced into the most recent fused anneal window.",
        )
        self._uptime_gauge = self.registry.gauge(
            "repro_server_uptime_seconds", "Seconds since the metrics were created."
        )
        self.started_at = time.monotonic()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _op_series(self, op: str) -> Tuple[Counter, Counter, Histogram]:
        """Register the ``{op="<op>"}`` request, error and latency series."""
        labels = {"op": op}
        with self._lock:
            series = self._ops[op] = (
                self.registry.counter("repro_server_requests_total", "Protocol requests handled.", labels),
                self.registry.counter(
                    "repro_server_request_errors_total", "Protocol requests that errored.", labels
                ),
                self.registry.histogram(
                    "repro_server_request_latency_ms",
                    "Handler latency per protocol op.",
                    labels,
                    window=self._window,
                ),
            )
        return series

    def observe_request(self, op: str, latency_ms: float, error: bool = False) -> None:
        """Record one protocol request handled for endpoint ``op``."""
        requests, errors, latency = self._ops.get(op) or self._op_series(op)
        requests.inc()
        if error:
            errors.inc()
        latency.observe(latency_ms)

    def observe_job(self, queue_wait_ms: float, run_ms: float, failed: bool) -> None:
        """Record one finished job (queue wait + execution time).

        Every finished job counts into ``jobs_finished``; only successes
        count into ``jobs_completed``, only failures into ``jobs_failed``.
        """
        self.queue_wait.observe(queue_wait_ms)
        self.job_run.observe(run_ms)
        self._counters["jobs_finished"].inc()
        self._counters["jobs_failed" if failed else "jobs_completed"].inc()

    def increment(self, counter: str, amount: int = 1) -> None:
        """Bump the counter ``counter`` by ``amount``.

        Server code counts only :data:`COUNTERS` names; any other name
        registers a new ``repro_server_<name>_total`` series, without
        HELP text, on first use.
        """
        instrument = self._counters.get(counter)
        if instrument is None:
            with self._lock:
                instrument = self._counters[counter] = self.registry.counter(
                    f"repro_server_{counter}_total"
                )
        instrument.inc(amount)

    def observe_fusion_window(self, batch_size: int, window_ms: float) -> None:
        """Record one executed fusion window (size + wall-clock).

        Average batch size is derivable from the counters
        (``fusion_jobs / fusion_windows``); the gauge exposes the most
        recent window for live dashboards.
        """
        self.increment("fusion_windows")
        self.increment("fusion_jobs", batch_size)
        self._fusion_batch_gauge.set(batch_size)
        self.fusion_window_ms.observe(window_ms)

    def counter_value(self, name: str) -> int:
        """Current value of the counter with short name ``name`` (0 when unknown)."""
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    # ------------------------------------------------------------------ #
    # Per-shard series (shard processes)
    # ------------------------------------------------------------------ #
    def _shard_counter(self, short: str, shard: int) -> Counter:
        """The ``{shard="<i>"}``-labelled series of one :data:`SHARD_COUNTERS` name."""
        return self.registry.counter(
            f"repro_server_shard_{short}_total", SHARD_COUNTERS[short], {"shard": str(shard)}
        )

    def observe_shard_job(self, shard: int, failed: bool) -> None:
        """Record one job finished by shard ``shard``."""
        self._shard_counter("jobs", shard).inc()
        if failed:
            self._shard_counter("failures", shard).inc()

    def observe_shard_restart(self, shard: int) -> None:
        """Record one respawn of shard ``shard`` after an unexpected death."""
        self._shard_counter("restarts", shard).inc()

    def observe_shard_retry(self, shard: int) -> None:
        """Record one job retried away from dead shard ``shard``."""
        self._shard_counter("retries", shard).inc()

    def shard_counts(self, shard: int) -> Dict[str, int]:
        """Shard ``shard``'s counters by :data:`SHARD_COUNTERS` name, registered at zero on first read."""
        return {short: self._shard_counter(short, shard).value for short in SHARD_COUNTERS}

    def set_shard_gauges(self, health: Dict[str, Any]) -> None:
        """Mirror the per-shard entries of a ``pool.health()`` block into gauges.

        Sets ``repro_server_shard_up`` and the :data:`_SHARD_GAUGES`
        series of every shard, plus the all-slot
        ``repro_server_dispatched_jobs``.  A block without shards sets
        nothing.
        """
        shards = health.get("shards") or {}
        for index, state in shards.items():
            labels = {"shard": str(index)}
            self.registry.gauge(
                "repro_server_shard_up", "Whether the shard slot is ready and alive (1) or not (0).", labels
            ).set(1.0 if state["ready"] and not state["dead"] else 0.0)
            for short, (key, help_text) in _SHARD_GAUGES.items():
                self.registry.gauge(f"repro_server_shard_{short}", help_text, labels).set(state[key])
        if shards:
            self.registry.gauge(
                "repro_server_dispatched_jobs",
                "Jobs sent to shards and not yet answered (all slots).",
            ).set(sum(state["assigned"] for state in shards.values()))

    # ------------------------------------------------------------------ #
    # Metrics federation (shard registry snapshots)
    # ------------------------------------------------------------------ #
    def record_shard_snapshot(self, shard: int, snapshot: Dict[str, Any]) -> None:
        """Store the latest registry snapshot shipped by shard ``shard``.

        Shards send *cumulative* snapshots on every heartbeat, so the
        parent keeps only the newest one per slot — merging happens
        afresh at exposition time, never destructively.  The store is
        guarded by the metrics lock: heartbeats land on the event loop
        while :meth:`prometheus_text` may run from a benchmark thread
        mid-drain.
        """
        with self._lock:
            self._shard_metric_snapshots[int(shard)] = snapshot

    def shard_metric_snapshots(self) -> Dict[int, Dict[str, Any]]:
        """The latest federated snapshot per shard slot (may be empty)."""
        with self._lock:
            return dict(self._shard_metric_snapshots)

    def federated_registry(self) -> MetricsRegistry:
        """One merged registry: server + process-global + shard snapshots.

        Per-shard series carry a ``shard="N"`` label; each shard snapshot
        is additionally merged *unlabelled* so the plain series act as the
        cluster rollup (parent + every shard).  Counter semantics: a
        respawned shard restarts its counters from zero, so a federated
        counter may step down after a respawn — the standard Prometheus
        counter-reset, which ``rate()`` absorbs.  Rollup gauges are
        last-write-wins across shards; prefer the labelled series.
        """
        merged = MetricsRegistry()
        merged.merge_snapshot(self.registry.to_snapshot())
        merged.merge_snapshot(get_registry().to_snapshot())
        for shard, snapshot in sorted(self.shard_metric_snapshots().items()):
            merged.merge_snapshot(snapshot, extra_labels={"shard": str(shard)})
            merged.merge_snapshot(snapshot)
        return merged

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def uptime_s(self) -> float:
        """Seconds since this metrics object was created (never zero)."""
        return max(time.monotonic() - self.started_at, 1e-9)

    def snapshot(
        self,
        queue_depth: Optional[int] = None,
        inflight: Optional[int] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The ``stats`` document: a JSON rendering of the registry.

        ``counters`` holds every unlabelled ``repro_server_<short>_total``
        series under its short name, ``endpoints`` the per-op request
        series, and the latency blocks are :meth:`Histogram.summary`
        documents.  ``queue_depth``/``inflight`` are point-in-time values
        supplied by the caller (the queue and pool own that state);
        ``extra`` is merged in verbatim (the server adds its pool's
        ``health`` block and the result-cache hit rate).
        """
        counters = {
            name[len("repro_server_") : -len("_total")]: value
            for name, value in self.registry.counters_snapshot().items()
        }
        with self._lock:
            ops = sorted(self._ops.items())
        uptime_s = self.uptime_s()
        payload: Dict[str, Any] = {
            "uptime_s": round(uptime_s, 3),
            "counters": counters,
            "jobs_per_second": round(counters["jobs_completed"] / uptime_s, 3),
            "jobs_finished_per_second": round(counters["jobs_finished"] / uptime_s, 3),
            "queue_wait": self.queue_wait.summary(),
            "job_run": self.job_run.summary(),
            "fusion_window": self.fusion_window_ms.summary(),
            "endpoints": {
                op: {"requests": requests.value, "errors": errors.value, **latency.summary()}
                for op, (requests, errors, latency) in ops
            },
        }
        if queue_depth is not None:
            payload["queue_depth"] = queue_depth
        if inflight is not None:
            payload["inflight"] = inflight
        if extra:
            payload.update(extra)
        return payload

    def prometheus_text(
        self, queue_depth: Optional[int] = None, inflight: Optional[int] = None
    ) -> str:
        """The cluster-wide exposition in Prometheus text format.

        Point-in-time gauges (uptime, and queue depth / inflight when
        the caller supplies them) are refreshed just before rendering;
        the output federates this instance's registry, the process-global
        registry and every shard's latest snapshot (see
        :meth:`federated_registry`).
        """
        self._uptime_gauge.set(self.uptime_s())
        if queue_depth is not None:
            self.registry.gauge("repro_server_queue_depth", "Jobs waiting in the queue.").set(
                queue_depth
            )
        if inflight is not None:
            self.registry.gauge("repro_server_inflight_jobs", "Jobs currently executing.").set(
                inflight
            )
        return render_prometheus(self.federated_registry())
