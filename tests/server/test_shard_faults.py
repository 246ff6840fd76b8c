"""Fault-injection tests: SIGKILLed shard processes, mid-job.

The shard tier's failure contract, each clause pinned by a test here:

* a shard killed **mid-job** is invisible to the client: the coroutine
  awaiting the job retries it once on a live shard,
* the surviving shards keep serving throughout,
* the dead slot is respawned and counted in metrics,
* graceful drain still completes after a kill, and no shard process —
  the killed one included — outlives the server.

These run under the ``stress`` marker (deselected by default, CI runs
them as a dedicated ``pytest -m stress`` lane): they kill real OS
processes and depend on respawn timing, so they are kept out of the
fast default lane.
"""

import multiprocessing
import os
import signal

import pytest

from repro.server.app import ServerConfig
from repro.server.client import SolverClient

from tests.server.conftest import tiny_problem, wait_until

pytestmark = pytest.mark.stress


def executing_shard(client: SolverClient):
    """The ``(index, state)`` of the shard currently running a job."""
    per_shard = client.stats()["health"]["shards"]
    busy = [(index, state) for index, state in per_shard.items() if state["assigned"] > 0]
    return busy[0] if len(busy) == 1 else None


def submit_sleepy_and_kill_its_shard(client: SolverClient) -> tuple:
    """Submit a long job, SIGKILL the shard executing it.

    Returns ``(job_id, killed_index, killed_pid)``.  SLEEPY holds the
    shard for 400 ms — plenty to observe it via ``stats`` and deliver
    the signal while the job is genuinely in flight.
    """
    job_id = client.submit(tiny_problem(), solver="SLEEPY", budget_ms=5000.0)
    index, state = wait_until(lambda: executing_shard(client))
    os.kill(state["pid"], signal.SIGKILL)
    return job_id, index, state["pid"]


class TestShardKilledMidJob:
    def test_retried_once_on_a_live_shard_when_enabled(self, server_factory):
        handle = server_factory(ServerConfig(workers=2, shards=2))
        with SolverClient(port=handle.port) as client:
            job_id, index, pid = submit_sleepy_and_kill_its_shard(client)
            result = client.wait(job_id)
            # The client never sees the fault: the job re-ran elsewhere.
            assert result.ok
            assert result.winner == "SLEEPY"
            stats = client.stats()
            assert stats["counters"].get("jobs_retried", 0) >= 1
            assert stats["health"]["restarts"] >= 1

    def test_dead_slot_is_respawned_with_a_new_pid(self, server_factory):
        handle = server_factory(ServerConfig(workers=2, shards=2))
        with SolverClient(port=handle.port) as client:
            job_id, index, pid = submit_sleepy_and_kill_its_shard(client)
            client.wait(job_id)

            def respawned():
                state = client.stats()["health"]["shards"][index]
                return state if state["ready"] and state["pid"] != pid else None

            state = wait_until(respawned)
            assert state["dead"] is False
            assert state["restarts"] == 1
            # Both shards answer work again; the restart shows up in the
            # Prometheus exposition with the shard label.
            for seed in range(8):
                spec = {"queries": 4, "plans": 2, "seed": seed}
                assert client.solve(spec, solver="STEP", budget_ms=500.0).ok
            text = client.metrics_text()
            assert f'repro_server_shard_restarts_total{{shard="{index}"}} 1' in text


class TestShardKilledWithBacklog:
    def test_every_in_flight_job_retried_exactly_once(self, server_factory):
        """Killing a shard that runs several jobs retries each job once.

        Three SLEEPY jobs with distinct seeds (the dedupe key includes
        it, so none coalesce) run at once on the three slots of the only
        shard, so the kill catches all three mid-execution.  Single-owner
        fail-over must hand every one of them to the respawned shard —
        exactly once each: no job may be spuriously failed because two
        code paths both tried to rescue it.
        """
        handle = server_factory(ServerConfig(workers=3, shards=1))
        with SolverClient(port=handle.port) as client:
            job_ids = [
                client.submit(tiny_problem(), solver="SLEEPY", budget_ms=5000.0, seed=seed)
                for seed in range(3)
            ]

            def shard_with_full_backlog():
                per_shard = client.stats()["health"]["shards"]
                busy = [(i, s) for i, s in per_shard.items() if s["assigned"] == 3]
                return busy[0] if busy else None

            index, state = wait_until(shard_with_full_backlog)
            os.kill(state["pid"], signal.SIGKILL)

            results = [client.wait(job_id) for job_id in job_ids]
            assert all(result.ok for result in results)
            assert all(result.winner == "SLEEPY" for result in results)
            stats = client.stats()
            assert stats["counters"].get("jobs_retried", 0) == 3
            assert stats["counters"].get("jobs_failed", 0) == 0
            assert stats["counters"]["jobs_finished"] == 3
            assert stats["health"]["restarts"] >= 1


class TestIdleKill:
    def test_idle_shard_kill_heals_without_failing_anything(self, server_factory):
        handle = server_factory(ServerConfig(workers=2, shards=2))
        with SolverClient(port=handle.port) as client:
            pid = client.stats()["health"]["shards"]["0"]["pid"]
            os.kill(pid, signal.SIGKILL)
            wait_until(
                lambda: (
                    client.stats()["health"]["alive"] == 2
                    and client.stats()["health"]["restarts"] >= 1
                )
            )
            for seed in range(4):
                spec = {"queries": 4, "plans": 2, "seed": seed}
                assert client.solve(spec, solver="STEP", budget_ms=500.0).ok
            assert client.stats()["counters"].get("jobs_failed", 0) == 0


class TestHealthDuringFault:
    def test_health_degrades_on_kill_and_recovers_after_respawn(self, server_factory):
        """The ``health`` op tracks a kill through degraded back to ok.

        Between the parent noticing the SIGKILL and the replacement
        shard reporting ready, the slot is dead or booting — the op
        must report ``degraded`` in that window (polled tightly; the
        respawn takes a process boot, so the window is wide enough to
        observe), then return to ``ok`` with the restart counted in
        both the health payload and the Prometheus exposition.
        """
        handle = server_factory(ServerConfig(workers=2, shards=2))
        with SolverClient(port=handle.port) as client:
            before = client.health()
            assert before["verdict"] == "ok"
            assert before["alive"] == 2
            pid = before["shards"]["0"]["pid"]
            os.kill(pid, signal.SIGKILL)

            def degraded():
                health = client.health()
                return health if health["verdict"] == "degraded" else None

            health = wait_until(degraded, interval_s=0.005)
            assert health["alive"] < 2

            def recovered():
                health = client.health()
                return health if health["verdict"] == "ok" else None

            health = wait_until(recovered)
            assert health["alive"] == 2
            assert health["restarts"] >= 1
            assert health["shards"]["0"]["restarts"] >= 1
            assert health["shards"]["0"]["pid"] != pid
            text = client.metrics_text()
            assert 'repro_server_shard_restarts_total{shard="0"} 1' in text
            # The lifecycle left an audit trail on the event log.
            kinds = [event["kind"] for event in health["events"]]
            assert "shard_exit" in kinds
            assert "shard_respawn" in kinds


class TestDrainAfterFault:
    def test_graceful_drain_completes_after_a_kill(self, server_factory):
        handle = server_factory(ServerConfig(workers=2, shards=2))
        with SolverClient(port=handle.port) as client:
            job_id, index, pid = submit_sleepy_and_kill_its_shard(client)
            ack = client.shutdown(drain=True)
            assert ack["type"] == "draining"
            # The in-flight job resolves (retried or cleanly failed —
            # draining servers do not retry) and the process tree exits.
            result = client.wait(job_id)
            assert result.ok or "ServerError" in (result.error or "")
        handle.thread.join(timeout=20.0)
        assert not handle.thread.is_alive()


class TestProcessLifetime:
    def test_no_shard_process_outlives_its_server(self, server_factory):
        """A killed shard that was respawned is reaped at drain, with the rest."""
        before = set(multiprocessing.active_children())
        handle = server_factory(ServerConfig(workers=1, shards=2))
        with SolverClient(port=handle.port) as client:
            killed = client.stats()["health"]["shards"]["0"]["pid"]
            os.kill(killed, signal.SIGKILL)

            def respawned():
                health = client.health()
                return health if health["alive"] == 2 and health["restarts"] == 1 else None

            pids = {state["pid"] for state in wait_until(respawned)["shards"].values()}
            pids.add(killed)
        handle.stop()
        assert not handle.thread.is_alive()
        assert not set(multiprocessing.active_children()) - before

        def gone(pid: int) -> bool:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            return False

        wait_until(lambda: all(gone(pid) for pid in pids))
