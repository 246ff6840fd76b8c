"""CLI tests of the ``top`` subcommand and its frame renderer."""

import pytest

from repro.cli import _render_top, build_parser, main
from repro.server.app import ServerConfig, run_server_in_thread
from repro.server.readiness import wait_for_server

from tests.server.conftest import scripted_shard_frontend, tiny_problem


class TestTopParsing:
    def test_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.host == "127.0.0.1"
        assert args.port == 7337
        assert args.interval == 2.0
        assert args.count == 0
        assert args.timeout_s == 10.0

    def test_serve_accepts_trace(self):
        assert (
            build_parser().parse_args(["serve", "--trace", "t.ndjson"]).trace
            == "t.ndjson"
        )
        assert build_parser().parse_args(["serve"]).trace is None


class TestRenderTop:
    STATS = {
        "uptime_s": 12.5,
        "counters": {"jobs_finished": 9, "jobs_failed": 1},
        "jobs_finished_per_second": 0.72,
        "queue_depth": 2,
        "inflight": 1,
        "stream_channels": 0,
        "queue_wait": {"p50_ms": 1.5, "p99_ms": 8.0},
        "job_run": {"p50_ms": 40.0, "p99_ms": 90.0},
    }

    def test_thread_tier_renders_without_a_shard_table(self):
        health = {"verdict": "ok", "tier": "threads", "active": 1}
        frame = _render_top("127.0.0.1", 7337, {**self.STATS, "health": health})
        assert "verdict ok (tier threads)" in frame
        assert "9 finished, 1 failed" in frame
        assert "workers active: 1" in frame
        assert "shard" not in frame

    def test_fusion_tier_shows_its_staged_jobs(self):
        health = {"verdict": "ok", "tier": "fusion", "active": 3, "staged": 2}
        frame = _render_top("127.0.0.1", 7337, {**self.STATS, "health": health})
        assert "verdict ok (tier fusion)" in frame
        assert "workers active: 3 | fusion window staged: 2" in frame

    def test_shard_tier_renders_one_row_per_shard(self):
        health = {
            "verdict": "degraded",
            "tier": "shards",
            "count": 2,
            "alive": 1,
            "restarts": 1,
            "shards": {
                "0": {"pid": 11, "ready": True, "dead": False, "stale": False,
                      "assigned": 1, "restarts": 0,
                      "heartbeat_age_s": 0.3, "jobs": 4},
                "1": {"pid": None, "ready": False, "dead": True, "stale": False,
                      "assigned": 0, "restarts": 1,
                      "heartbeat_age_s": 6.2},
            },
        }
        frame = _render_top("127.0.0.1", 7337, {**self.STATS, "health": health})
        assert "verdict degraded" in frame
        assert "1/2 alive, 1 restarts" in frame
        lines = frame.splitlines()
        rows = [line for line in lines if line.lstrip().startswith(("0 ", "0 |", "1 "))]
        assert any("up" in line and "4" in line for line in rows)
        assert any("dead" in line for line in rows)

    def test_stale_shard_is_labelled(self):
        health = {
            "verdict": "degraded", "tier": "shards", "count": 1, "alive": 0,
            "restarts": 0,
            "shards": {"0": {"pid": 9, "ready": True, "dead": False, "stale": True,
                             "assigned": 0, "restarts": 0, "heartbeat_age_s": 9.9}},
        }
        frame = _render_top("h", 1, {**self.STATS, "health": health})
        assert "stale" in frame


class TestTopAgainstLiveServer:
    @pytest.fixture()
    def server(self):
        """A default-registry solver server on an ephemeral port."""
        handle = run_server_in_thread(ServerConfig(port=0, workers=2))
        yield handle
        handle.stop()

    def test_one_shot_when_stdout_is_piped(self, server, capsys):
        # Under capsys stdout is not a TTY, so `top` prints one frame
        # and exits instead of looping.
        exit_code = main(["top", "--port", str(server.port)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert f"repro-mqo top — 127.0.0.1:{server.port}" in out
        assert "verdict ok (tier threads)" in out
        assert out.count("repro-mqo top") == 1

    def test_count_limits_refreshes(self, server, capsys):
        exit_code = main(
            ["top", "--port", str(server.port), "--count", "2", "--interval", "0.01"]
        )
        assert exit_code == 0
        assert capsys.readouterr().out.count("repro-mqo top") == 2

    def test_sharded_server_shows_the_shard_table(self, capsys):
        handle = run_server_in_thread(
            ServerConfig(port=0, workers=2, shards=2, shard_heartbeat_s=0.2),
            frontend_factory=scripted_shard_frontend,
        )
        try:
            wait_for_server(port=handle.port, timeout_s=15.0, min_shards=2)
            from repro.server.client import SolverClient

            with SolverClient(port=handle.port) as client:
                assert client.solve(tiny_problem(), solver="STEP", budget_ms=500.0).ok
            assert main(["top", "--port", str(handle.port)]) == 0
        finally:
            handle.stop()
        out = capsys.readouterr().out
        assert "tier shards" in out
        assert "2/2 alive" in out
        # One table row per shard, keyed by the shard index column.
        assert "shard" in out
        assert "up" in out

    def test_unreachable_server_reports_error_exit(self, capsys):
        assert main(["top", "--port", "1"]) == 2
        assert "error:" in capsys.readouterr().err
