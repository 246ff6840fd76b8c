"""Generic metrics: counters, gauges, histograms, and one percentile.

The registry is deliberately small — just enough structure for the
server's metrics endpoint and the Prometheus exposition in
:mod:`repro.obs.export`:

* instruments are grouped into *families* by metric name; a family has
  one type (counter/gauge/histogram) and optional per-child labels,
* every instrument is thread-safe (one small lock each; the recording
  paths are already lock-protected call sites today),
* histograms keep constant memory: cumulative buckets + lifetime
  count/sum/max + a bounded ring of recent samples for percentiles,
  which :meth:`Histogram.percentile` and :meth:`Histogram.summary` read
  (the server's ``stats`` latency blocks are ``summary()`` documents).

This module is also the home of the repository's **one** percentile
definition.  Before it existed there were two — ``bench/stats.py`` used
the nearest-rank estimator while ``server/metrics.py`` used a rounded
linear index — which made client-side and server-side tails disagree on
small windows.  Nearest rank wins (it is the convention the BENCH
documents were committed with); both callers now delegate here.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "percentile",
    "percentiles",
    "sorted_percentiles",
    "DEFAULT_BUCKETS_MS",
]

#: Default histogram bucket upper bounds, sized for millisecond latencies.
DEFAULT_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


# ------------------------------------------------------------------ #
# The canonical percentile estimator
# ------------------------------------------------------------------ #
def _check_q(q: float) -> None:
    if not 0.0 < q <= 1.0:
        raise ReproError(f"percentile q must be in (0, 1], got {q}")


def sorted_percentiles(ordered: Sequence[float], qs: Sequence[float]) -> List[float]:
    """Nearest-rank percentiles of an **already sorted** sample list.

    The single-sort building block: sort once, then take as many
    percentiles as needed in O(1) each.
    """
    if not ordered:
        raise ReproError("cannot take a percentile of zero samples")
    n = len(ordered)
    values = []
    for q in qs:
        _check_q(q)
        rank = max(1, math.ceil(q * n))
        values.append(float(ordered[rank - 1]))
    return values


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in (0, 1])."""
    return sorted_percentiles(sorted(samples), (q,))[0]


def percentiles(samples: Sequence[float], qs: Sequence[float]) -> List[float]:
    """Nearest-rank percentiles for every ``q`` in ``qs``, sorting once."""
    return sorted_percentiles(sorted(samples), qs)


# ------------------------------------------------------------------ #
# Instruments
# ------------------------------------------------------------------ #
class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Increase the counter (negative amounts are rejected)."""
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease (amount={amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depth, inflight jobs …)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (may be negative)."""
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        """The current value."""
        with self._lock:
            return self._value


class Histogram:
    """Constant-memory distribution: buckets, lifetime stats, sample window.

    Cumulative bucket counts serve the Prometheus exposition; the
    bounded ring of most recent samples serves percentile snapshots
    (the lifetime count/sum/max are exact regardless of the window).
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "labels",
        "buckets",
        "_bucket_counts",
        "_window",
        "_samples",
        "_cursor",
        "count",
        "total",
        "max_value",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        window: int = 2048,
        buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
    ) -> None:
        if window <= 0:
            raise ReproError(f"histogram window must be positive, got {window}")
        if list(buckets) != sorted(buckets):
            raise ReproError(f"histogram buckets must be sorted, got {list(buckets)}")
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._bucket_counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._window = window
        self._samples: List[float] = []
        self._cursor = 0
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        sample = float(value)
        with self._lock:
            self.count += 1
            self.total += sample
            if sample > self.max_value:
                self.max_value = sample
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if sample <= bound:
                    index = i
                    break
            self._bucket_counts[index] += 1
            if len(self._samples) < self._window:
                self._samples.append(sample)
            else:
                self._samples[self._cursor] = sample
                self._cursor = (self._cursor + 1) % self._window

    @property
    def mean(self) -> float:
        """Lifetime mean (0 when no samples)."""
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def window_percentiles(self, qs: Sequence[float]) -> List[float]:
        """Percentiles over the recent-sample window, sorting **once**.

        Returns zeros when no samples have been observed (metrics
        snapshots must render before traffic arrives).
        """
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return [0.0] * len(qs)
        return sorted_percentiles(ordered, qs)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile ``q`` in (0, 1] over the sample window (0 when empty)."""
        return self.window_percentiles((q,))[0]

    def summary(self) -> Dict[str, float]:
        """JSON-friendly summary: count, mean, p50, p99 and max.

        Keys carry the ``_ms`` unit of the default buckets.  Count, mean
        and max are lifetime values; the two percentiles come from one
        sort of the recent-sample window.
        """
        p50, p99 = self.window_percentiles((0.50, 0.99))
        with self._lock:
            count, total, peak = self.count, self.total, self.max_value
        return {
            "count": count,
            "mean_ms": round(total / count, 3) if count else 0.0,
            "p50_ms": round(p50, 3),
            "p99_ms": round(p99, 3),
            "max_ms": round(peak, 3),
        }

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at ``+Inf``."""
        with self._lock:
            counts = list(self._bucket_counts)
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts[:-1]):
            running += count
            pairs.append((bound, running))
        pairs.append((math.inf, running + counts[-1]))
        return pairs

    def state_snapshot(self) -> Dict[str, Any]:
        """The mergeable lifetime state (buckets, counts, sum, max).

        The recent-sample window is deliberately excluded: percentiles
        cannot be merged across processes, only bucket counts can.
        """
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "bucket_counts": list(self._bucket_counts),
                "count": self.count,
                "total": self.total,
                "max": self.max_value,
            }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Add another histogram's :meth:`state_snapshot` into this one.

        Bucket bounds must match exactly — merging differently-bucketed
        histograms of the same name is a registration error upstream.
        """
        bounds = [float(b) for b in state.get("buckets", ())]
        if bounds != list(self.buckets):
            raise ReproError(
                f"histogram {self.name!r}: cannot merge mismatched buckets "
                f"{bounds} into {list(self.buckets)}"
            )
        counts = state.get("bucket_counts", ())
        if len(counts) != len(self._bucket_counts):
            raise ReproError(
                f"histogram {self.name!r}: snapshot has {len(counts)} bucket "
                f"counts, expected {len(self._bucket_counts)}"
            )
        with self._lock:
            for index, count in enumerate(counts):
                self._bucket_counts[index] += int(count)
            self.count += int(state.get("count", 0))
            self.total += float(state.get("total", 0.0))
            self.max_value = max(self.max_value, float(state.get("max", 0.0)))


# ------------------------------------------------------------------ #
# Registry
# ------------------------------------------------------------------ #
class _Family:
    """All instruments sharing one metric name (one type, many labels)."""

    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: Dict[Tuple[Tuple[str, str], ...], Any] = {}


def _label_key(labels: Optional[Dict[str, str]]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items())) if labels else ()


class MetricsRegistry:
    """Thread-safe get-or-create store of metric families.

    Instruments are identified by ``(name, labels)``; asking twice for
    the same identity returns the same object, so call sites can simply
    re-request instead of caching handles.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _get_or_create(self, name: str, kind: str, help_text: str, labels, make):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(name, kind, help_text)
            elif family.kind != kind:
                raise ReproError(
                    f"metric {name!r} is a {family.kind}, cannot re-register as {kind}"
                )
            if help_text and not family.help:
                family.help = help_text
            child = family.children.get(key)
            if child is None:
                child = family.children[key] = make()
            return child

    def counter(self, name: str, help: str = "", labels=None) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get_or_create(name, "counter", help, labels, lambda: Counter(name, labels))

    def gauge(self, name: str, help: str = "", labels=None) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get_or_create(name, "gauge", help, labels, lambda: Gauge(name, labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels=None,
        window: int = 2048,
        buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
    ) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        return self._get_or_create(
            name,
            "histogram",
            help,
            labels,
            lambda: Histogram(name, labels, window=window, buckets=buckets),
        )

    def collect(self) -> List[_Family]:
        """Every family, name-sorted (the exporters iterate this)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def to_snapshot(self) -> Dict[str, Any]:
        """The whole registry as one plain-data, pickle/JSON-safe dict.

        This is the federation wire format: shard processes ship it over
        the control pipe and the parent rebuilds it with
        :meth:`merge_snapshot`.  Counters and gauges carry their value;
        histograms carry their mergeable lifetime state (bucket counts,
        count, sum, max — the percentile window does not travel).
        """
        families: List[Dict[str, Any]] = []
        for family in self.collect():
            children: List[Dict[str, Any]] = []
            for key, instrument in sorted(family.children.items()):
                child: Dict[str, Any] = {"labels": dict(key)}
                if family.kind == "histogram":
                    child.update(instrument.state_snapshot())
                else:
                    child["value"] = instrument.value
                children.append(child)
            families.append(
                {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "children": children,
                }
            )
        return {"families": families}

    def merge_snapshot(
        self, snapshot: Dict[str, Any], extra_labels: Optional[Dict[str, str]] = None
    ) -> None:
        """Merge a :meth:`to_snapshot` payload into this registry.

        Merge semantics per kind: counters **sum**, gauges are
        **last-write-wins** per label set, histograms merge
        **bucket-wise** (bounds must match).  ``extra_labels`` is applied
        to every merged series — the server uses ``{"shard": "N"}`` to
        keep per-shard series distinct, then merges the same snapshot
        again *without* extra labels to synthesize the cluster rollup.
        """
        for family in snapshot.get("families", ()):
            name = family["name"]
            kind = family["kind"]
            help_text = family.get("help", "")
            for child in family.get("children", ()):
                labels = dict(child.get("labels") or {})
                if extra_labels:
                    labels.update(extra_labels)
                label_arg = labels or None
                if kind == "counter":
                    self.counter(name, help_text, label_arg).inc(int(child["value"]))
                elif kind == "gauge":
                    self.gauge(name, help_text, label_arg).set(float(child["value"]))
                elif kind == "histogram":
                    histogram = self.histogram(
                        name, help_text, label_arg, buckets=tuple(child["buckets"])
                    )
                    histogram.merge_state(child)
                else:
                    raise ReproError(f"unknown metric kind {kind!r} in snapshot")

    def counters_snapshot(self) -> Dict[str, int]:
        """Unlabelled counters as one flat ``{name: value}`` dictionary."""
        snapshot: Dict[str, int] = {}
        for family in self.collect():
            if family.kind != "counter":
                continue
            child = family.children.get(())
            if child is not None:
                snapshot[family.name] = child.value
        return snapshot


#: The process-wide registry used by service/pipeline instrumentation.
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _GLOBAL_REGISTRY


def _iter_labelled(families: Iterable[_Family]):
    """Yield ``(family, labels_dict, instrument)`` triples (export helper)."""
    for family in families:
        for key, instrument in sorted(family.children.items()):
            yield family, dict(key), instrument
