"""End-to-end tests of the shard tier (slots in shard processes).

Same acceptance bar as the threaded end-to-end suite, but with
``ServerConfig(shards=2)``: solving, anytime streaming, coalescing and
graceful drain must all work when execution happens in shard *processes*
and every update/result crosses a pipe before reaching the client.
Shard slots pull from the one queue, so any instance can run on any
shard and a job's priority decides when it starts.  Fault injection
(killed shards) lives in ``test_shard_faults.py`` under the ``stress``
marker; this file stays in the default lane.
"""

import sys

import pytest

from repro.mqo.generator import generate_paper_testcase
from repro.obs.metrics import get_registry
from repro.server.app import ServerConfig
from repro.server.client import SolverClient
from repro.service.cache import ResultCache
from repro.service.frontend import ServiceFrontend

from tests.server.conftest import scripted_registry, tiny_problem, wait_until


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
        # The job finished: nothing is left assigned on either shard.
        executed = [s for s in health["shards"].values() if s["assigned"] == 0]
        assert len(executed) == 2


class TestPullScheduling:
    def test_instances_of_one_hash_parity_finish_on_both_shards(self, server_factory):
        """No instance is tied to a shard: jobs whose canonical-hash prefix
        is even — which a hash router sends to one of two shards — run on
        both, because every idle slot pulls the next job."""
        even = []
        for seed in range(64):
            problem = generate_paper_testcase(4, 2, seed=seed)
            if int(problem.canonical_hash()[:16], 16) % 2 == 0:
                even.append(problem)
        assert len(even) >= 4
        handle = server_factory(ServerConfig(workers=1, shards=2))
        with SolverClient(port=handle.port) as client:
            job_ids = [
                client.submit(problem, solver="SLEEPY", budget_ms=2000.0) for problem in even[:4]
            ]
            assert all(client.wait(job_id).ok for job_id in job_ids)
            per_shard = client.stats()["health"]["shards"]
        assert per_shard["0"]["jobs"] >= 1 and per_shard["1"]["jobs"] >= 1
        assert per_shard["0"]["jobs"] + per_shard["1"]["jobs"] == 4

    def test_a_high_priority_job_overtakes_queued_low_ones(self, server_factory):
        """Jobs wait in the one priority queue until a slot is free, so an
        urgent job admitted behind a low-priority backlog runs next."""
        handle = server_factory(ServerConfig(workers=1, shards=1))
        with SolverClient(port=handle.port) as client:
            # Distinct seeds keep the jobs from coalescing.
            low = [
                client.submit(
                    tiny_problem(), solver="SLEEPY", budget_ms=2000.0, seed=i, priority="low"
                )
                for i in range(3)
            ]
            high = client.submit(
                tiny_problem(), solver="SLEEPY", budget_ms=2000.0, seed=99, priority="high"
            )
            assert all(client.wait(job_id).ok for job_id in [*low, high])
        order = [job.job_id for job in handle.server.pool.finished]
        # The first low job was already running when the urgent one came.
        assert order.index(high) < order.index(low[1])
        assert order.index(high) < order.index(low[2])


class TestSlotsOfOneShard:
    def test_concurrent_units_are_each_answered_once(self, server_factory):
        """More slots than cores share one shard's pipe and pending map:
        every unit is answered exactly once and none stays assigned."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            handle = server_factory(ServerConfig(workers=4, shards=1))
            with SolverClient(port=handle.port) as client:
                job_ids = [
                    client.submit(tiny_problem(), solver="STEP", budget_ms=500.0, seed=seed)
                    for seed in range(16)
                ]
                results = [client.wait(job_id) for job_id in job_ids]
                stats = client.stats()
        finally:
            sys.setswitchinterval(interval)
        assert all(result.ok for result in results)
        assert stats["counters"]["jobs_finished"] == 16
        (state,) = stats["health"]["shards"].values()
        assert state["jobs"] == 16 and state["assigned"] == 0


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
        """Fresh shard results are stored in the parent's cache.

        Shards keep no cache: the parent's is the server's only one, the
        one ``--cache-file`` checkpoints to disk.
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


    @pytest.mark.parametrize("shards", [0, 2])
    def test_each_job_counts_once_in_the_cache_and_service_counters(
        self, server_factory, shards
    ):
        """The parent's frontend looks up, solves through a shard and
        stores each job, so cache hits and misses and the winner count
        once per job on either tier, and shards count none of them."""
        wins = get_registry().counter("repro_service_wins_total", labels={"solver": "STEP"})
        before = wins.value
        frontend = ServiceFrontend(registry=scripted_registry(), cache=ResultCache())
        config = ServerConfig(workers=1, shards=shards, shard_heartbeat_s=0.1)
        handle = server_factory(config, frontend=frontend)
        with SolverClient(port=handle.port) as client:
            results = [
                client.solve(tiny_problem(), solver="STEP", budget_ms=500.0, seed=seed)
                for seed in (1, 1, 2)
            ]

            def snapshots_after_the_jobs():
                # A shard's snapshot counts its solver improvements, so
                # a non-zero one was taken after the jobs ran.
                text = client.metrics_text()
                improved = any(
                    float(line.rsplit(" ", 1)[1]) > 0
                    for line in text.splitlines()
                    if line.startswith('repro_solver_improvements_total{shard="')
                )
                return text if improved or not shards else None

            text = wait_until(snapshots_after_the_jobs)
        assert [result.from_cache for result in results] == [False, True, False]
        assert (frontend.cache.stats.hits, frontend.cache.stats.misses) == (1, 2)
        assert wins.value == before + 2
        shard_counts = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_service_") and 'shard="' in line
        ]
        assert not any(shard_counts)

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
