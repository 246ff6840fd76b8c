"""Tests of the ``health`` protocol op and its client/readiness wiring."""

import pytest

from repro.server import protocol
from repro.server.app import ServerConfig
from repro.server.client import SolverClient

from tests.server.conftest import tiny_problem


class TestProtocolSurface:
    def test_health_is_a_request_op(self):
        assert "health" in protocol.REQUEST_OPS

    def test_health_frame_shape(self):
        frame = protocol.health_frame("req-1", {"verdict": "ok", "alive": 2})
        assert frame == {
            "id": "req-1",
            "type": "health",
            "health": {"verdict": "ok", "alive": 2},
        }


class TestThreadTierHealth:
    def test_idle_server_reports_ok(self, server_factory):
        handle = server_factory()
        with SolverClient(port=handle.port) as client:
            health = client.health()
        assert health["verdict"] == "ok"
        assert health["tier"] == "threads"
        assert health["active"] == 0
        assert health["queue_depth"] == 0
        assert health["draining"] is False
        assert health["uptime_s"] >= 0.0
        assert isinstance(health["events"], list)

    def test_health_includes_recent_lifecycle_events(self, server_factory):
        handle = server_factory()
        with SolverClient(port=handle.port) as client:
            kinds = [event["kind"] for event in client.health()["events"]]
        assert "server_started" in kinds

    def test_draining_server_reports_draining(self, server_factory):
        handle = server_factory(ServerConfig(workers=1))
        with SolverClient(port=handle.port) as client:
            job_id = client.submit(tiny_problem(), solver="SLEEPY", budget_ms=2000.0)
            ack = client.shutdown(drain=True)
            assert ack["type"] == "draining"
            health = client.health()
            assert health["verdict"] == "draining"
            assert health["draining"] is True
            assert client.wait(job_id).ok
        handle.thread.join(timeout=15.0)


class TestFusionTierHealth:
    def test_fusion_server_names_its_tier_and_staged_jobs(self, server_factory):
        # Fusion is not a tier of its own: the thread tier reports its
        # staged jobs.
        handle = server_factory(ServerConfig(workers=2, fusion_window_ms=50.0))
        with SolverClient(port=handle.port) as client:
            health = client.health()
        assert health["verdict"] == "ok"
        assert health["tier"] == "threads"
        assert health["staged"] == 0
        assert health["active"] == 0


class TestShardTierHealth:
    def test_sharded_server_reports_per_shard_state(self, server_factory):
        handle = server_factory(ServerConfig(workers=2, shards=2))
        with SolverClient(port=handle.port) as client:
            client.solve(tiny_problem(), solver="STEP", budget_ms=500.0)
            health = client.health()
        assert health["verdict"] == "ok"
        assert health["tier"] == "shards"
        assert health["count"] == 2
        assert health["alive"] == 2
        assert health["restarts"] == 0
        assert set(health["shards"]) == {"0", "1"}
        for state in health["shards"].values():
            assert state["pid"] is not None
            assert state["ready"] is True
            assert state["dead"] is False
            assert state["stale"] is False
            assert state["heartbeat_age_s"] >= 0.0
            assert state["restarts"] == 0

    def test_heartbeats_keep_shards_fresh(self, server_factory):
        # With a fast heartbeat the reported age stays well under the
        # staleness threshold even right after an idle stretch.
        handle = server_factory(ServerConfig(workers=2, shards=2, shard_heartbeat_s=0.1))
        with SolverClient(port=handle.port) as client:
            health = client.health()
        for state in health["shards"].values():
            assert state["heartbeat_age_s"] < 3.0
            assert state["stale"] is False


class TestReadinessUsesHealth:
    def test_wait_for_server_returns_once_shards_alive(self, server_factory):
        # server_factory already routes through wait_for_server with
        # min_shards; reaching this assertion means the probe accepted a
        # healthy sharded server.
        handle = server_factory(ServerConfig(workers=2, shards=2))
        with SolverClient(port=handle.port) as client:
            assert client.health()["alive"] == 2

    def test_probe_rejects_insufficient_min_shards(self, server_factory):
        from repro.exceptions import ServerError
        from repro.server.readiness import wait_for_server

        handle = server_factory(ServerConfig(workers=2, shards=2))
        with pytest.raises(ServerError, match="2/3 shards alive"):
            wait_for_server(port=handle.port, timeout_s=1.0, min_shards=3)
