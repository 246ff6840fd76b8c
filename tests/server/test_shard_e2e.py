"""End-to-end tests of the sharded (multi-process) worker tier.

Same acceptance bar as the threaded end-to-end suite, but with
``ServerConfig(shards=2)``: solving, anytime streaming, coalescing and
graceful drain must all work when execution happens in shard *processes*
and every update/result crosses a pipe before reaching the client.
Fault injection (killed shards) lives in ``test_shard_faults.py`` under
the ``stress`` marker; this file stays in the default lane.
"""

import pytest

from repro.server.app import ServerConfig
from repro.server.client import SolverClient
from repro.service.cache import ResultCache
from repro.service.frontend import ServiceFrontend

from tests.server.conftest import scripted_registry, tiny_problem


@pytest.fixture()
def sharded_server(server_factory):
    """A running server with two shard processes (scripted solvers)."""
    return server_factory(ServerConfig(workers=2, shards=2))


class TestShardedBasics:
    def test_hello_reports_shards_and_solve_works(self, sharded_server):
        with SolverClient(port=sharded_server.port) as client:
            hello = client.hello()
            assert hello["limits"]["shards"] == 2
            result = client.solve(tiny_problem(), solver="STEP", budget_ms=500.0)
            assert result.ok
            assert result.winner == "STEP"
            assert result.best_cost == pytest.approx(2.0)

    def test_stats_expose_per_shard_block(self, sharded_server):
        with SolverClient(port=sharded_server.port) as client:
            client.solve(tiny_problem(), solver="STEP", budget_ms=500.0)
            health = client.stats()["health"]
        assert health["count"] == 2
        assert health["alive"] == 2
        assert sum(state["ready"] for state in health["shards"].values()) == 2
        assert health["restarts"] == 0
        assert set(health["shards"]) == {"0", "1"}
        for state in health["shards"].values():
            assert state["pid"] is not None
            assert state["dead"] is False
        # Exactly one shard executed the job (hash routing, one job).
        executed = [s for s in health["shards"].values() if s["assigned"] == 0]
        assert len(executed) == 2  # finished: nothing left assigned

    def test_jobs_spread_across_shards_by_hash(self, sharded_server):
        # Distinct instances hash to (eventually) both shards; with 16
        # problems the chance of all landing on one shard is 2^-15.
        with SolverClient(port=sharded_server.port) as client:
            for index in range(16):
                spec = {"queries": 4, "plans": 2, "seed": index}
                assert client.solve(spec, solver="STEP", budget_ms=500.0).ok
            text = client.metrics_text()
        assert 'repro_server_shard_jobs_total{shard="0"}' in text
        assert 'repro_server_shard_jobs_total{shard="1"}' in text


class TestShardedStreaming:
    def test_streaming_updates_cross_the_process_boundary(self, sharded_server):
        updates = []
        with SolverClient(port=sharded_server.port) as client:
            result = client.solve(
                tiny_problem(), solver="STEP", budget_ms=500.0, on_update=updates.append
            )
        # Same contract as the threaded tier: >= 2 strictly-improving
        # updates with gap-free sequence numbers, all before the result.
        assert len(updates) >= 2
        costs = [frame["cost"] for frame in updates]
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(costs)
        assert [frame["seq"] for frame in updates] == list(range(1, len(updates) + 1))
        assert result.best_cost == pytest.approx(costs[-1])

    def test_second_connection_subscribes_to_sharded_job(self, sharded_server):
        with SolverClient(port=sharded_server.port) as submitter:
            with SolverClient(port=sharded_server.port) as watcher:
                job_id = submitter.submit(
                    tiny_problem(), solver="SLOW-STEP", budget_ms=2000.0
                )
                updates = []
                result = watcher.subscribe(job_id, on_update=updates.append)
                assert result.ok
                assert len(updates) >= 2
                assert submitter.wait(job_id).best_cost == result.best_cost


class TestShardedCoalescing:
    def test_duplicates_coalesce_before_crossing_a_pipe(self, sharded_server):
        with SolverClient(port=sharded_server.port) as client:
            job_a = client.submit(tiny_problem(), solver="SLEEPY", budget_ms=2000.0, seed=5)
            job_b = client.submit(tiny_problem(), solver="SLEEPY", budget_ms=2000.0, seed=5)
            result_a = client.wait(job_a)
            result_b = client.wait(job_b)
            stats = client.stats()
        assert result_a.ok and result_b.ok
        assert result_a.best_cost == result_b.best_cost
        assert result_b.from_cache  # echoed from the representative
        assert stats["counters"]["jobs_coalesced"] == 1
        # Nothing is left assigned: one execution crossed into a shard
        # and its twin was answered from the parent without a dispatch.
        per_shard = stats["health"]["shards"]
        assert sum(state["assigned"] for state in per_shard.values()) == 0


class TestShardedCaching:
    def test_parent_cache_accumulates_shard_results(self, server_factory):
        """Fresh shard results are mirrored into the parent's cache.

        Shard caches are process-private; the parent's cache is the one
        ``--cache-file`` checkpoints to disk, so without the mirror a
        sharded server would persist an eternally-empty cache.
        """
        frontend = ServiceFrontend(registry=scripted_registry(), cache=ResultCache())
        handle = server_factory(ServerConfig(workers=2, shards=2), frontend=frontend)
        with SolverClient(port=handle.port) as client:
            result = client.solve(tiny_problem(), solver="STEP", budget_ms=500.0)
        assert result.ok and not result.from_cache
        assert len(frontend.cache) == 1
        mirrored = frontend.cache.get(result.cache_key)
        assert mirrored is not None
        assert mirrored["best_cost"] == pytest.approx(result.best_cost)


class TestShardedDrain:
    def test_graceful_drain_finishes_backlog_then_exits(self, server_factory):
        handle = server_factory(ServerConfig(workers=2, shards=2))
        with SolverClient(port=handle.port) as client:
            job_id = client.submit(tiny_problem(), solver="SLEEPY", budget_ms=2000.0)
            ack = client.shutdown(drain=True)
            assert ack["type"] == "draining"
            # The admitted job still completes inside its shard and the
            # result crosses back before the server exits.
            result = client.wait(job_id)
            assert result.ok
            assert result.winner == "SLEEPY"
        handle.thread.join(timeout=15.0)
        assert not handle.thread.is_alive()

    def test_idle_sharded_drain_exits_quickly(self, server_factory):
        handle = server_factory(ServerConfig(workers=2, shards=2))
        with SolverClient(port=handle.port) as client:
            client.solve(tiny_problem(), solver="STEP", budget_ms=300.0)
            client.shutdown(drain=True)
        handle.thread.join(timeout=15.0)
        assert not handle.thread.is_alive()
