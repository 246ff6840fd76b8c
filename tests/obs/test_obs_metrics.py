"""Unit tests of the metrics registry and the canonical percentile."""

import math

import pytest

from repro.bench.stats import percentile as bench_percentile
from repro.exceptions import ReproError
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    percentile,
    percentiles,
    sorted_percentiles,
)
from repro.server.metrics import ServerMetrics


class TestPercentile:
    def test_nearest_rank_on_known_fixtures(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile(samples, 1.00) == 100.0
        assert percentile(samples, 0.01) == 1.0

    def test_small_window_fixtures(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0
        assert percentile([1.0, 2.0], 0.5) == 1.0
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert percentile([3.0, 1.0, 2.0], 0.99) == 3.0

    def test_multi_percentile_matches_single_calls(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
        qs = (0.25, 0.5, 0.9, 0.99)
        assert percentiles(samples, qs) == [percentile(samples, q) for q in qs]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ReproError):
            percentile([], 0.5)
        with pytest.raises(ReproError):
            percentile([1.0], 0.0)
        with pytest.raises(ReproError):
            percentile([1.0], 1.5)

    def test_sorted_percentiles_requires_presorted_semantics(self):
        ordered = [1.0, 2.0, 3.0, 4.0]
        assert sorted_percentiles(ordered, (0.5, 1.0)) == [2.0, 4.0]


class TestPercentileUnification:
    """One definition everywhere: bench and server must agree exactly."""

    FIXTURES = [
        [7.0],
        [1.0, 2.0],
        [3.0, 1.0, 2.0],
        [float(v) for v in range(1, 11)],
        [float(v) for v in range(1, 101)],
        [0.5, 0.5, 0.5, 99.0],
    ]

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99, 1.0])
    def test_bench_and_server_agree_on_every_fixture(self, q):
        for samples in self.FIXTURES:
            expected = percentile(samples, q)
            assert bench_percentile(samples, q) == expected
            stats = ServerMetrics(window=len(samples)).queue_wait
            for sample in samples:
                stats.observe(sample)
            assert stats.percentile(q) == expected


class TestInstruments:
    def test_counter_increments_and_rejects_decrease(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ReproError):
            counter.inc(-1)

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(3.5)
        gauge.add(-1.5)
        assert gauge.value == 2.0

    def test_histogram_lifetime_stats_and_window(self):
        histogram = Histogram("h", window=3, buckets=(10.0, 100.0))
        for value in (5.0, 50.0, 500.0, 7.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 562.0
        assert histogram.max_value == 500.0
        # Window holds the 3 most recent samples only.
        assert histogram.window_percentiles((1.0,)) == [500.0]
        assert histogram.cumulative_buckets() == [(10.0, 2), (100.0, 3), (math.inf, 4)]

    def test_histogram_empty_percentiles_are_zero(self):
        assert Histogram("h").window_percentiles((0.5, 0.99)) == [0.0, 0.0]

    def test_histogram_validates_window_and_buckets(self):
        with pytest.raises(ReproError):
            Histogram("h", window=0)
        with pytest.raises(ReproError):
            Histogram("h", buckets=(10.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.counter("x", labels={"a": "1"}) is not registry.counter("x")

    def test_kind_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ReproError):
            registry.gauge("x")

    def test_counters_snapshot_lists_unlabelled_counters(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.counter("b", labels={"k": "v"}).inc()
        registry.gauge("g").set(9)
        assert registry.counters_snapshot() == {"a": 2}

    def test_collect_is_name_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zzz")
        registry.counter("aaa")
        assert [family.name for family in registry.collect()] == ["aaa", "zzz"]
