"""Unit tests of shard metric snapshot federation in ServerMetrics."""

import threading

from repro.obs.metrics import MetricsRegistry
from repro.server.metrics import ServerMetrics

from tests.obs.test_prometheus_exposition import validate_exposition


def shard_registry(jobs: int = 3, depth: float = 5.0) -> MetricsRegistry:
    """A stand-in for one shard's process-global registry."""
    registry = MetricsRegistry()
    registry.counter("repro_fedtest_jobs_total", "jobs").inc(jobs)
    registry.gauge("repro_fedtest_depth", "depth").set(depth)
    histogram = registry.histogram("repro_fedtest_lat_ms", "lat", buckets=(10.0, 100.0))
    for _ in range(jobs):
        histogram.observe(50.0)
    return registry


class TestRecordShardSnapshot:
    def test_latest_snapshot_per_slot_wins(self):
        metrics = ServerMetrics()
        metrics.record_shard_snapshot(0, shard_registry(jobs=3).to_snapshot())
        metrics.record_shard_snapshot(0, shard_registry(jobs=7).to_snapshot())
        text = metrics.prometheus_text()
        # Cumulative snapshots replace, never add — otherwise every
        # heartbeat would double-count the shard's history.
        assert 'repro_fedtest_jobs_total{shard="0"} 7' in text

    def test_snapshots_returns_a_copy(self):
        metrics = ServerMetrics()
        metrics.record_shard_snapshot(1, shard_registry().to_snapshot())
        snapshots = metrics.shard_metric_snapshots()
        snapshots.clear()
        assert metrics.shard_metric_snapshots()


class TestFederatedExposition:
    def test_counters_get_shard_labels_plus_summed_rollup(self):
        metrics = ServerMetrics()
        metrics.record_shard_snapshot(0, shard_registry(jobs=3).to_snapshot())
        metrics.record_shard_snapshot(1, shard_registry(jobs=4).to_snapshot())
        families = validate_exposition(metrics.prometheus_text())
        samples = {
            labels.get("shard", ""): value
            for labels, value in families["repro_fedtest_jobs_total"]["samples"]
        }
        assert samples == {"0": 3.0, "1": 4.0, "": 7.0}

    def test_rollup_gauge_is_last_write_wins_in_shard_order(self):
        metrics = ServerMetrics()
        metrics.record_shard_snapshot(0, shard_registry(depth=5.0).to_snapshot())
        metrics.record_shard_snapshot(1, shard_registry(depth=9.0).to_snapshot())
        families = validate_exposition(metrics.prometheus_text())
        samples = {
            labels.get("shard", ""): value
            for labels, value in families["repro_fedtest_depth"]["samples"]
        }
        assert samples["0"] == 5.0
        assert samples["1"] == 9.0
        assert samples[""] == 9.0  # highest shard index merged last

    def test_histograms_merge_bucket_wise_into_the_rollup(self):
        metrics = ServerMetrics()
        metrics.record_shard_snapshot(0, shard_registry(jobs=2).to_snapshot())
        metrics.record_shard_snapshot(1, shard_registry(jobs=3).to_snapshot())
        registry = metrics.federated_registry()
        rollup = registry.histogram("repro_fedtest_lat_ms", buckets=(10.0, 100.0))
        assert rollup.count == 5
        assert rollup.total == 250.0
        per_shard = registry.histogram(
            "repro_fedtest_lat_ms", labels={"shard": "1"}, buckets=(10.0, 100.0)
        )
        assert per_shard.count == 3

    def test_parent_instance_metrics_still_render(self):
        metrics = ServerMetrics()
        metrics.increment("jobs_submitted")
        metrics.record_shard_snapshot(0, shard_registry().to_snapshot())
        text = metrics.prometheus_text(queue_depth=4, inflight=2)
        assert "repro_server_jobs_submitted_total 1" in text
        assert "repro_server_queue_depth 4" in text

    def test_exposition_stays_structurally_valid(self):
        metrics = ServerMetrics()
        metrics.observe_job(queue_wait_ms=1.0, run_ms=2.0, failed=False)
        metrics.observe_shard_job(0, failed=False)
        metrics.observe_shard_retry(0)
        metrics.set_shard_gauges(
            {"shards": {"0": {"ready": True, "dead": False, "assigned": 1, "heartbeat_age_s": 0.2}}}
        )
        metrics.record_shard_snapshot(0, shard_registry().to_snapshot())
        validate_exposition(metrics.prometheus_text(queue_depth=0, inflight=0))

    def test_render_is_rebuilt_fresh_each_time(self):
        metrics = ServerMetrics()
        metrics.record_shard_snapshot(0, shard_registry(jobs=2).to_snapshot())
        first = metrics.prometheus_text()
        second = metrics.prometheus_text()
        # Rendering twice must not accumulate (fresh merge per render).
        assert 'repro_fedtest_jobs_total{shard="0"} 2' in first
        assert first == second or "repro_server_uptime_seconds" in first


class TestSnapshotMergeRace:
    """Regression: snapshot()/prometheus_text() vs heartbeat merges.

    Shard heartbeats land on the event-loop thread while the bench
    thread reads ``snapshot()`` mid-drain; both sides go through the
    registry/metrics locks, so hammering them concurrently must neither
    raise nor corrupt the exposition.
    """

    def test_concurrent_heartbeats_and_renders(self):
        metrics = ServerMetrics()
        errors = []
        stop = threading.Event()

        def heartbeats():
            jobs = 0
            try:
                while not stop.is_set():
                    jobs += 1
                    for shard in (0, 1):
                        metrics.record_shard_snapshot(
                            shard, shard_registry(jobs=jobs).to_snapshot()
                        )
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(exc)

        writer = threading.Thread(target=heartbeats)
        writer.start()
        try:
            for _ in range(100):
                metrics.snapshot(queue_depth=1, inflight=1)
                validate_exposition(metrics.prometheus_text())
        finally:
            stop.set()
            writer.join(timeout=10.0)
        assert not errors
        assert not writer.is_alive()

    def test_concurrent_increments_and_snapshots(self):
        metrics = ServerMetrics()
        stop = threading.Event()
        errors = []

        def incrementer():
            try:
                while not stop.is_set():
                    metrics.increment("jobs_completed")
                    metrics.observe_job(queue_wait_ms=0.5, run_ms=1.0, failed=False)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        writer = threading.Thread(target=incrementer)
        writer.start()
        try:
            for _ in range(100):
                snapshot = metrics.snapshot()
                assert snapshot["counters"]["jobs_completed"] >= 0
        finally:
            stop.set()
            writer.join(timeout=10.0)
        assert not errors
