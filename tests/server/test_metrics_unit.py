"""Unit tests of ServerMetrics: counting semantics, snapshots, Prometheus.

The counting-semantics pins matter: ``jobs_completed`` counts successes
only (a stream of failing jobs must not inflate ``jobs_per_second``),
``jobs_failed`` counts failures, and ``jobs_finished`` is their total.
"""

import re
from pathlib import Path

import repro.server
from repro.server.metrics import COUNTERS, ServerMetrics


class TestJobCounting:
    def test_failed_jobs_do_not_count_as_completed(self):
        metrics = ServerMetrics()
        metrics.observe_job(queue_wait_ms=1.0, run_ms=5.0, failed=False)
        metrics.observe_job(queue_wait_ms=1.0, run_ms=5.0, failed=True)
        metrics.observe_job(queue_wait_ms=1.0, run_ms=5.0, failed=True)
        assert metrics.counter_value("jobs_completed") == 1
        assert metrics.counter_value("jobs_failed") == 2
        assert metrics.counter_value("jobs_finished") == 3

    def test_snapshot_rates_split_successes_from_finished(self):
        metrics = ServerMetrics()
        metrics.observe_job(queue_wait_ms=1.0, run_ms=5.0, failed=False)
        metrics.observe_job(queue_wait_ms=1.0, run_ms=5.0, failed=True)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["jobs_completed"] == 1
        assert snapshot["counters"]["jobs_finished"] == 2
        # uptime_s rounds to 0.0 this early; the rates use the raw value.
        assert snapshot["uptime_s"] >= 0.0
        assert snapshot["jobs_per_second"] <= snapshot["jobs_finished_per_second"]
        assert snapshot["jobs_finished_per_second"] > 0

    def test_queue_wait_and_run_observed_for_failures_too(self):
        metrics = ServerMetrics()
        metrics.observe_job(queue_wait_ms=2.0, run_ms=8.0, failed=True)
        assert metrics.queue_wait.count == 1
        assert metrics.job_run.count == 1

    def test_unknown_counter_reads_zero_and_lazily_creates(self):
        metrics = ServerMetrics()
        assert metrics.counter_value("never_touched") == 0
        metrics.increment("custom_events", 3)
        assert metrics.counter_value("custom_events") == 3

    def test_instances_are_isolated(self):
        first = ServerMetrics()
        second = ServerMetrics()
        first.increment("jobs_submitted")
        assert second.counter_value("jobs_submitted") == 0


class TestLatencyStats:
    def test_snapshot_shape_and_values(self):
        stats = ServerMetrics(window=8).queue_wait
        for value in (10.0, 20.0, 30.0, 40.0):
            stats.observe(value)
        snapshot = stats.summary()
        assert snapshot == {
            "count": 4,
            "mean_ms": 25.0,
            "p50_ms": 20.0,
            "p99_ms": 40.0,
            "max_ms": 40.0,
        }

    def test_empty_snapshot_is_all_zero(self):
        assert ServerMetrics().queue_wait.summary() == {
            "count": 0,
            "mean_ms": 0.0,
            "p50_ms": 0.0,
            "p99_ms": 0.0,
            "max_ms": 0.0,
        }

    def test_window_bounds_percentiles_but_not_lifetime_stats(self):
        stats = ServerMetrics(window=2).queue_wait
        for value in (100.0, 1.0, 2.0):
            stats.observe(value)
        assert stats.count == 3
        assert stats.max_value == 100.0
        # The 100 ms outlier scrolled out of the percentile window.
        assert stats.percentile(1.0) == 2.0


class TestEndpointStats:
    def test_requests_errors_and_snapshot(self):
        metrics = ServerMetrics()
        metrics.observe_request("solve", 5.0, error=False)
        metrics.observe_request("solve", 7.0, error=True)
        labels = {"op": "solve"}
        assert metrics.registry.counter("repro_server_requests_total", labels=labels).value == 2
        assert (
            metrics.registry.counter("repro_server_request_errors_total", labels=labels).value == 1
        )
        snapshot = metrics.snapshot()["endpoints"]["solve"]
        assert snapshot["requests"] == 2
        assert snapshot["errors"] == 1
        assert snapshot["count"] == 2


class TestPrometheusText:
    def test_exposition_carries_counters_gauges_and_histograms(self):
        metrics = ServerMetrics()
        metrics.observe_job(queue_wait_ms=1.0, run_ms=5.0, failed=False)
        metrics.observe_job(queue_wait_ms=1.0, run_ms=5.0, failed=True)
        metrics.observe_request("solve", 3.0)
        text = metrics.prometheus_text(queue_depth=4, inflight=2)
        assert "# TYPE repro_server_jobs_completed_total counter" in text
        assert "repro_server_jobs_completed_total 1" in text
        assert "repro_server_jobs_finished_total 2" in text
        assert "repro_server_jobs_failed_total 1" in text
        assert "repro_server_queue_depth 4" in text
        assert "repro_server_inflight_jobs 2" in text
        assert "repro_server_uptime_seconds" in text
        assert 'repro_server_requests_total{op="solve"} 1' in text
        assert 'repro_server_queue_wait_ms_bucket{le="+Inf"} 2' in text
        assert "repro_server_job_run_ms_count 2" in text

    def test_every_server_series_has_a_help_line(self):
        metrics = ServerMetrics()
        metrics.observe_request("solve", 3.0, error=True)
        metrics.observe_job(queue_wait_ms=1.0, run_ms=5.0, failed=True)
        for name in COUNTERS:
            metrics.increment(name)
        metrics.observe_fusion_window(batch_size=2, window_ms=4.0)
        metrics.observe_shard_job(0, failed=True)
        metrics.observe_shard_restart(0)
        metrics.observe_shard_retry(0)
        metrics.set_shard_gauges(
            {"shards": {"0": {"ready": True, "dead": False, "assigned": 1, "heartbeat_age_s": 0.1}}}
        )
        lines = metrics.prometheus_text(queue_depth=0, inflight=0).splitlines()

        def families(prefix):
            return {
                line.split()[2]
                for line in lines
                if line.startswith(prefix) and line.split()[2].startswith("repro_server_")
            }

        typed = families("# TYPE ")
        assert len(typed) >= len(COUNTERS)
        assert typed - families("# HELP ") == set()

    def test_server_code_counts_only_registered_names(self):
        """A counter bumped outside the table would export without HELP."""
        package = Path(repro.server.__file__).parent
        source = "\n".join(path.read_text() for path in package.glob("*.py"))
        names = set(re.findall(r'increment\(\s*"(\w+)"', source))
        assert names and names <= set(COUNTERS)
