"""Live end-to-end tests: a real server on localhost, real sockets.

Each test boots a :class:`SolverServer` on a background thread (port 0,
scripted solver registry from ``conftest``) and talks to it through
:class:`SolverClient`.  The acceptance-critical behaviours live here:

* a client subscribed to a running job receives **at least two**
  incremental anytime updates before the final result,
* duplicate in-flight requests are coalesced into one execution,
* admission control rejects jobs under backpressure,
* a graceful drain finishes admitted jobs and delivers their results
  before the server exits, answers ``wait`` frames sent after its ack,
  and closes idle connections after a bounded grace period.
"""

import multiprocessing
import socket
import time

import pytest

from repro.exceptions import AdmissionError, ProtocolError, ServerError
from repro.mqo.problem import MQOProblem
from repro.server.app import DRAIN_GRACE_S, ServerConfig
from repro.server.client import SolverClient
from repro.service.cache import ResultCache
from repro.service.frontend import ServiceFrontend

from tests.server.conftest import tiny_problem


class TestBasics:
    def test_hello_ping_and_solve(self, server_factory):
        handle = server_factory()
        with SolverClient(port=handle.port) as client:
            hello = client.hello()
            assert hello["server"] == "repro-mqo"
            assert set(hello["solvers"]) == {"STEP", "SLOW-STEP", "SLEEPY", "PROGRESS"}
            assert client.ping()
            result = client.solve(tiny_problem(), solver="STEP", budget_ms=500.0)
            assert result.ok
            assert result.winner == "STEP"
            assert result.best_cost == pytest.approx(2.0)

    def test_generator_spec_and_registered_solver(self, server_factory):
        handle = server_factory()
        with SolverClient(port=handle.port) as client:
            result = client.solve(
                {"queries": 4, "plans": 2, "seed": 3}, solver="STEP", budget_ms=500.0
            )
            assert result.ok and result.is_valid

    def test_unknown_job_wait_is_a_protocol_error(self, server_factory):
        handle = server_factory()
        with SolverClient(port=handle.port) as client:
            with pytest.raises(ProtocolError):
                client.wait("sj-does-not-exist")

    def test_bad_spec_reports_bad_request(self, server_factory):
        handle = server_factory()
        with SolverClient(port=handle.port) as client:
            with pytest.raises(ServerError):
                client.solve({"nonsense": True})
            assert client.ping()  # the connection survives the bad request


class TestThreadTier:
    def test_runs_fusion_and_solo_jobs_without_a_child_process(self, server_factory):
        """Without shards every slot is a thread of this process: neither a
        solo job nor a fusion window may start a child process."""
        before = set(multiprocessing.active_children())
        handle = server_factory(
            ServerConfig(workers=2, fusion_window_ms=20.0), frontend=ServiceFrontend()
        )
        with SolverClient(port=handle.port) as client:
            assert client.solve(tiny_problem(), solver="CLIMB", budget_ms=50.0).ok
            qa = client.solve({"queries": 4, "plans": 2, "seed": 1}, solver="QA", budget_ms=40.0)
            assert qa.ok and client.stats()["counters"]["fusion_jobs"] == 1
        assert handle.server.pool.shards is None
        assert set(multiprocessing.active_children()) == before


class TestStreaming:
    def test_streaming_solve_gets_incremental_updates(self, server_factory):
        handle = server_factory()
        updates = []
        with SolverClient(port=handle.port) as client:
            result = client.solve(
                tiny_problem(), solver="STEP", budget_ms=500.0, on_update=updates.append
            )
        # Acceptance: >= 2 incremental updates arrive before the result
        # (the callback fires during solve(); the list is full before it
        # returns), strictly improving, gap-free sequence numbers.
        assert len(updates) >= 2
        costs = [frame["cost"] for frame in updates]
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(costs)
        assert [frame["seq"] for frame in updates] == list(range(1, len(updates) + 1))
        assert result.best_cost == pytest.approx(costs[-1])
        assert all(frame["solver"] == "STEP" for frame in updates)

    def test_subscriber_on_second_connection_sees_updates(self, server_factory):
        handle = server_factory()
        with SolverClient(port=handle.port) as submitter:
            with SolverClient(port=handle.port) as watcher:
                # SLOW-STEP waits 250 ms before its first improvement, so
                # the subscription is in place well before updates flow.
                job_id = submitter.submit(
                    tiny_problem(), solver="SLOW-STEP", budget_ms=2000.0
                )
                updates = []
                result = watcher.subscribe(job_id, on_update=updates.append)
                assert result.ok
                assert len(updates) >= 2
                assert [frame["job_id"] for frame in updates] == [job_id] * len(updates)
                # The submitter still collects the same final result.
                assert submitter.wait(job_id).best_cost == result.best_cost

    def test_recently_finished_jobs_survive_the_soft_prune_bound(
        self, server_factory
    ):
        # completed_jobs_kept=1 with the default 300 s retention: results
        # of jobs a pipelined client has not collected yet must survive.
        handle = server_factory(ServerConfig(workers=1, completed_jobs_kept=1))
        with SolverClient(port=handle.port) as client:
            job_ids = [
                client.submit(tiny_problem(f"prune-{i}"), solver="STEP", budget_ms=300.0)
                for i in range(3)
            ]
            # Collect in submit order after all three finished.
            results = [client.wait(job_id) for job_id in job_ids]
            assert all(result.ok for result in results)

    def test_subscribe_to_finished_job_returns_result_without_updates(
        self, server_factory
    ):
        handle = server_factory()
        with SolverClient(port=handle.port) as client:
            job_id = client.submit(tiny_problem(), solver="STEP", budget_ms=500.0)
            first = client.wait(job_id)
            updates = []
            again = client.subscribe(job_id, on_update=updates.append)
            assert updates == []
            assert again.best_cost == first.best_cost


class TestCoalescing:
    def test_duplicate_inflight_requests_coalesce(self, server_factory):
        handle = server_factory(ServerConfig(workers=1))
        with SolverClient(port=handle.port) as client:
            job_a = client.submit(tiny_problem(), solver="SLEEPY", budget_ms=2000.0, seed=5)
            job_b = client.submit(tiny_problem(), solver="SLEEPY", budget_ms=2000.0, seed=5)
            assert job_a != job_b
            result_a = client.wait(job_a)
            result_b = client.wait(job_b)
            stats = client.stats()
        assert result_a.ok and result_b.ok
        assert result_a.best_cost == result_b.best_cost
        assert not result_a.from_cache
        assert result_b.from_cache  # echoed, no second execution
        assert stats["counters"]["jobs_coalesced"] == 1
        assert stats["counters"]["jobs_submitted"] == 2

    def test_different_budgets_do_not_coalesce(self, server_factory):
        handle = server_factory(ServerConfig(workers=2))
        with SolverClient(port=handle.port) as client:
            job_a = client.submit(tiny_problem(), solver="STEP", budget_ms=400.0, seed=5)
            job_b = client.submit(tiny_problem(), solver="STEP", budget_ms=500.0, seed=5)
            client.wait(job_a)
            client.wait(job_b)
            assert client.stats()["counters"]["jobs_coalesced"] == 0


class TestResultCache:
    def test_reordered_plans_miss_the_cache(self, server_factory):
        # One problem listed twice, query 0's plans swapped: equal
        # canonical hashes, but the plan indices of one answer name
        # other plans in the other listing.
        original = MQOProblem([[1.0, 5.0], [2.0, 3.0]], {(0, 2): 0.5, (1, 3): 4.5})
        reordered = MQOProblem([[5.0, 1.0], [2.0, 3.0]], {(1, 2): 0.5, (0, 3): 4.5})
        handle = server_factory(
            ServerConfig(workers=1), frontend=ServiceFrontend(cache=ResultCache())
        )
        with SolverClient(port=handle.port) as client:
            first = client.solve(original, solver="LIN-MQO", budget_ms=500.0, seed=1)
            second = client.solve(reordered, solver="LIN-MQO", budget_ms=500.0, seed=1)
            again = client.solve(reordered, solver="LIN-MQO", budget_ms=500.0, seed=1)
        assert (first.selected_plans, first.best_cost) == ([0, 2], 2.5)
        assert (second.selected_plans, second.best_cost, second.from_cache) == ([1, 2], 2.5, False)
        assert again.from_cache and again.selected_plans == [1, 2]


class TestAdmissionControl:
    def test_backpressure_rejects_beyond_capacity(self, server_factory):
        handle = server_factory(ServerConfig(workers=1, queue_capacity=1))
        rejected = []
        accepted = []
        with SolverClient(port=handle.port) as client:
            for index in range(4):
                try:
                    accepted.append(
                        client.submit(
                            tiny_problem(f"bp-{index}"),
                            solver="SLEEPY",
                            budget_ms=2000.0,
                            seed=index,
                        )
                    )
                except AdmissionError as exc:
                    rejected.append(exc)
            assert rejected, "queue_capacity=1 with a busy worker must reject"
            assert all(exc.code == "queue_full" for exc in rejected)
            for job_id in accepted:
                assert client.wait(job_id).ok  # admitted jobs still finish
            assert client.stats()["counters"]["jobs_rejected"] == len(rejected)

    def test_client_quota_enforced(self, server_factory):
        handle = server_factory(
            ServerConfig(workers=1, queue_capacity=16, max_jobs_per_client=1)
        )
        with SolverClient(port=handle.port, client_name="greedy") as client:
            rejections = []
            for index in range(3):
                try:
                    client.submit(
                        tiny_problem(f"q-{index}"),
                        solver="SLEEPY",
                        budget_ms=2000.0,
                        seed=index,
                    )
                except AdmissionError as exc:
                    rejections.append(exc)
            # One job runs, one fills the quota of a single queued job;
            # at least the third submission must bounce off the quota.
            assert rejections
            assert all(exc.code == "client_quota" for exc in rejections)

    def test_budget_cap_enforced(self, server_factory):
        handle = server_factory(ServerConfig(max_budget_ms=100.0))
        with SolverClient(port=handle.port) as client:
            with pytest.raises(AdmissionError) as excinfo:
                client.submit(tiny_problem(), solver="STEP", budget_ms=5000.0)
            assert excinfo.value.code == "budget"


class TestClientFraming:
    def test_oversized_server_frame_fails_cleanly(self, server_factory):
        handle = server_factory()
        # A client limit smaller than the hello frame: the client must
        # close the connection with one clear error instead of parsing
        # the remainder of the line as garbage frames forever.
        client = SolverClient(port=handle.port, max_frame_bytes=64)
        try:
            with pytest.raises(ProtocolError, match="exceeds the client's"):
                client.hello()
            with pytest.raises(ServerError):
                client.ping()  # the connection was closed, not desynced
        finally:
            client.close()


class TestStatsEndpoint:
    def test_snapshot_reports_endpoints_and_gauges(self, server_factory):
        handle = server_factory()
        with SolverClient(port=handle.port) as client:
            client.ping()
            client.solve(tiny_problem(), solver="STEP", budget_ms=500.0)
            stats = client.stats()
        # The server_factory readiness probe polls with a raw TCP
        # connect plus a pinging client of its own before the test
        # client connects, so ping/connection counters carry an
        # unknown (>= 1) probe contribution on top of this test's.
        assert stats["endpoints"]["ping"]["requests"] >= 2
        assert stats["endpoints"]["solve"]["requests"] == 1
        assert stats["endpoints"]["solve"]["p50_ms"] >= 0.0
        assert stats["counters"]["jobs_completed"] == 1
        assert stats["counters"]["connections_opened"] >= 2
        assert stats["queue_depth"] == 0
        assert stats["inflight"] == 0
        assert stats["jobs_per_second"] > 0
        assert stats["draining"] is False


class TestGracefulDrain:
    def test_drain_finishes_admitted_jobs_then_exits(self, server_factory):
        handle = server_factory(ServerConfig(workers=1))
        with SolverClient(port=handle.port) as client:
            job_id = client.submit(tiny_problem(), solver="SLEEPY", budget_ms=2000.0)
            ack = client.shutdown(drain=True)
            assert ack["type"] == "draining"
            assert ack["pending_jobs"] >= 1
            # New work is refused while draining...
            with pytest.raises((AdmissionError, ServerError)):
                client.submit(tiny_problem("late"), solver="STEP", budget_ms=100.0)
            # ...but the admitted job still completes and delivers.
            result = client.wait(job_id)
            assert result.ok
            assert result.winner == "SLEEPY"
        handle.thread.join(timeout=10.0)
        assert not handle.thread.is_alive()

    def test_idle_drain_exits_quickly(self, server_factory):
        handle = server_factory()
        with SolverClient(port=handle.port) as client:
            client.solve(tiny_problem(), solver="STEP", budget_ms=300.0)
            client.shutdown(drain=True)
        handle.thread.join(timeout=10.0)
        assert not handle.thread.is_alive()

    def test_wait_sent_after_the_ack_is_answered(self, server_factory):
        """The drain serves an open connection after the pool has drained."""
        handle = server_factory(ServerConfig(workers=1))
        with SolverClient(port=handle.port) as client:
            job_id = client.submit(tiny_problem(), solver="STEP", budget_ms=300.0)
            client.shutdown(drain=True)
            time.sleep(0.2)  # the job (~120 ms) finishes, the pool drains
            result = client.wait(job_id)
        assert result.ok
        assert result.winner == "STEP"
        handle.thread.join(timeout=10.0)
        assert not handle.thread.is_alive()

    def test_idle_connection_does_not_hold_the_drain(self, server_factory):
        """An open idle connection is closed once the grace period ends."""
        handle = server_factory(ServerConfig(workers=1))
        address = (handle.host, handle.port)
        with socket.create_connection(address, timeout=10.0) as idle, idle.makefile("rb") as lines:
            idle.sendall(b'{"op": "ping", "id": "idle"}\n')
            assert b'"pong"' in lines.readline()
            started = time.monotonic()
            handle.stop(timeout_s=DRAIN_GRACE_S + 5.0)
            elapsed = time.monotonic() - started
            assert lines.readline() == b""  # the server hung up
        assert not handle.thread.is_alive()
        assert elapsed < DRAIN_GRACE_S + 2.0
