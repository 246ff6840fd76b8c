"""End-to-end cluster observability: a sharded server's ``metrics`` op
serves shard-side series with ``shard`` labels plus a cluster rollup,
and ``health`` reports every shard alive.

Shard-side counters (e.g. solver improvements, recorded inside the
shard *processes*) can only reach the parent through snapshot
federation over the control pipe — these tests are the proof that the
heartbeat path works over a real socket, not just in unit tests.

The introspection ops share one source on every tier: ``stats``
carries the pool's ``health`` block verbatim, and its counters are the
unlabelled ``repro_server_*_total`` series the ``metrics`` op exports.
"""

import re

import pytest

from repro.server.app import ServerConfig
from repro.server.client import SolverClient

from tests.obs.test_prometheus_exposition import validate_exposition
from tests.server.conftest import wait_until

#: A shard-side counter: incremented by TrajectoryRecorder inside the
#: shard processes, never by the parent while it merely routes jobs.
_IMPROVEMENTS = "repro_solver_improvements_total"


def _series_value(text: str, name: str, labels: str = "") -> float:
    """The value of one exposition series, or -1.0 when absent."""
    pattern = re.compile(rf"^{re.escape(name + labels)} (\S+)$", re.MULTILINE)
    match = pattern.search(text)
    return float(match.group(1)) if match else -1.0


def _comparable(health: dict) -> dict:
    """A health block minus what two reads never share.

    ``events`` and ``uptime_s`` travel only with the ``health`` op, and
    heartbeat ages tick between any two reads.
    """
    block = {key: value for key, value in health.items() if key not in ("events", "uptime_s")}
    if "shards" in block:
        block["shards"] = {
            index: {key: value for key, value in state.items() if key != "heartbeat_age_s"}
            for index, state in block["shards"].items()
        }
    return block


def assert_one_source(client: SolverClient) -> dict:
    """Check ``stats`` against ``health`` and ``metrics``; return the stats."""
    stats = client.stats()
    health = client.health()
    families = validate_exposition(client.metrics_text())
    assert _comparable(stats["health"]) == _comparable(health)
    exported = {
        name[len("repro_server_") : -len("_total")]: value
        for name, family in families.items()
        if name.startswith("repro_server_") and name.endswith("_total")
        for labels, value in family["samples"]
        if not labels
    }
    assert exported == stats["counters"]
    return stats


@pytest.fixture()
def cluster(server_factory):
    """A two-shard server with a fast federation heartbeat."""
    return server_factory(ServerConfig(workers=2, shards=2, shard_heartbeat_s=0.2))


class TestShardMetricsFederation:
    def test_shard_side_counters_reach_the_parent_with_labels_and_rollup(self, cluster):
        with SolverClient(port=cluster.port) as client:
            # Idle slots alternate between the shards, so both run
            # jobs and report non-zero solver improvements.
            for seed in range(16):
                spec = {"queries": 4, "plans": 2, "seed": seed}
                assert client.solve(spec, solver="STEP", budget_ms=500.0).ok

            def federated():
                text = client.metrics_text()
                zero = _series_value(text, _IMPROVEMENTS, '{shard="0"}')
                one = _series_value(text, _IMPROVEMENTS, '{shard="1"}')
                return text if zero > 0 and one > 0 else None

            # Heartbeats tick every 0.2 s; the labelled series appear as
            # soon as each shard's next snapshot lands.
            text = wait_until(federated)
        zero = _series_value(text, _IMPROVEMENTS, '{shard="0"}')
        one = _series_value(text, _IMPROVEMENTS, '{shard="1"}')
        rollup = _series_value(text, _IMPROVEMENTS)
        # The unlabelled rollup sums the shards (plus any improvements
        # recorded in this parent process by other tests' solvers).
        assert rollup >= zero + one

    def test_cli_visible_exposition_includes_parent_and_shard_series(self, cluster):
        with SolverClient(port=cluster.port) as client:
            assert client.solve(
                {"queries": 4, "plans": 2, "seed": 1}, solver="STEP", budget_ms=500.0
            ).ok

            def has_both():
                text = client.metrics_text()
                return (
                    text
                    if "repro_server_jobs_finished_total 1" in text
                    and f'{_IMPROVEMENTS}{{shard=' in text
                    else None
                )

            text = wait_until(has_both)
        # Parent-side bookkeeping and shard-side counters share one
        # document — what `repro-mqo metrics` prints for scraping.
        assert "repro_server_queue_depth" in text
        assert 'repro_server_shard_up{shard="0"} 1' in text
        assert 'repro_server_shard_up{shard="1"} 1' in text

    def test_federation_survives_drain_without_racing(self, server_factory):
        handle = server_factory(ServerConfig(workers=2, shards=2, shard_heartbeat_s=0.1))
        with SolverClient(port=handle.port) as client:
            job_id = client.submit(
                {"queries": 4, "plans": 2, "seed": 3}, solver="SLEEPY", budget_ms=2000.0
            )
            ack = client.shutdown(drain=True)
            assert ack["type"] == "draining"
            # Metrics render mid-drain while shards flush their final
            # snapshots; must answer cleanly (lock regression coverage).
            text = client.metrics_text()
            assert "repro_server_uptime_seconds" in text
            assert client.wait(job_id).ok
        handle.thread.join(timeout=20.0)
        assert not handle.thread.is_alive()


class TestClusterHealth:
    def test_health_reports_both_shards_alive_with_spawn_events(self, cluster):
        with SolverClient(port=cluster.port) as client:
            health = client.health()
        assert health["verdict"] == "ok"
        assert health["alive"] == 2
        assert health["count"] == 2
        spawns = [
            event
            for event in health["events"]
            if event["kind"] == "shard_spawn" and event.get("pid")
        ]
        assert len(spawns) >= 2

    def test_stats_and_health_agree_on_shard_population(self, cluster):
        with SolverClient(port=cluster.port) as client:
            assert client.solve(
                {"queries": 4, "plans": 2, "seed": 1}, solver="STEP", budget_ms=500.0
            ).ok
            stats = assert_one_source(client)
            health = client.health()
        per_shard = stats["health"]["shards"]
        assert set(per_shard) == set(health["shards"])
        for index, state in health["shards"].items():
            assert state["pid"] == per_shard[index]["pid"]
        # Each shard's entry carries its counts: one job, run once.
        assert sum(state["jobs"] for state in per_shard.values()) == 1
        assert sum(state["failures"] + state["retries"] for state in per_shard.values()) == 0
        assert stats["counters"]["jobs_completed"] == 1


class TestOneIntrospectionSource:
    @pytest.mark.parametrize(
        ("config", "tier"),
        [
            (ServerConfig(workers=2), "threads"),
            (ServerConfig(workers=2, fusion_window_ms=50.0), "threads"),
        ],
        ids=["threads", "fusion"],
    )
    def test_stats_carries_health_and_the_exported_counters(self, server_factory, config, tier):
        handle = server_factory(config)
        with SolverClient(port=handle.port) as client:
            assert client.solve(
                {"queries": 4, "plans": 2, "seed": 1}, solver="STEP", budget_ms=500.0
            ).ok
            stats = assert_one_source(client)
        assert stats["health"]["tier"] == tier
        assert stats["counters"]["jobs_completed"] == 1
