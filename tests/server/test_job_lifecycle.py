"""What a finished server job keeps, and how finished jobs are pruned.

Once a job's result is published, the server releases its request, so
the parsed problem is freed on every tier: a finished job keeps only its
identity, timestamps and result, and ``wait``/``subscribe`` keep serving
that result.  Finished jobs are pruned oldest finish first under a soft
bound (beyond the retention window only) and a hard bound (regardless
of age).  A fusion window and shards combine: the windows run on
shard slots.
"""

from __future__ import annotations

import gc
import time
import weakref

import pytest

from repro.mqo.generator import generate_paper_testcase
from repro.server import app as server_app
from repro.server.app import ServerConfig, SolverServer
from repro.server.client import SolverClient
from repro.server.queue import ServerJob
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest, SolveResult
from repro.service.qa_adapter import QuantumAnnealingSolver
from repro.service.registry import SolverRegistry

from tests.server.conftest import tiny_problem


@pytest.fixture()
def parsed_problems(monkeypatch):
    """Weak references to every problem the server parses from a frame."""
    refs = []
    parse = server_app.request_from_spec

    def recording_parse(*args, **kwargs):
        request = parse(*args, **kwargs)
        refs.append(weakref.ref(request.problem))
        return request

    monkeypatch.setattr(server_app, "request_from_spec", recording_parse)
    return refs


def _assert_all_released(handle, refs, job_ids) -> None:
    """Every parsed problem is freed; every job is queued for pruning."""
    assert len(refs) == len(job_ids)
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(job_ids)
    assert sorted(job.job_id for job in handle.server.pool.finished) == sorted(job_ids)


def _assert_result_kept(client: SolverClient, job_id: str, first: SolveResult) -> None:
    """A second wait and a subscribe serve the same result again."""
    assert client.wait(job_id).to_dict() == first.to_dict()
    updates = []
    assert client.subscribe(job_id, on_update=updates.append).to_dict() == first.to_dict()
    assert updates == []


class TestFinishedJobsReleaseTheirProblem:
    def test_thread_tier(self, server_factory, parsed_problems):
        handle = server_factory(ServerConfig(workers=1))
        with SolverClient(port=handle.port) as client:
            job_id = client.submit(tiny_problem(), solver="STEP", budget_ms=300.0)
            first = client.wait(job_id)
            assert first.ok
            _assert_all_released(handle, parsed_problems, [job_id])
            _assert_result_kept(client, job_id, first)
        job = handle.server._jobs[job_id]
        assert job.state == "done" and job.request is None

    def test_coalesced_duplicate(self, server_factory, parsed_problems):
        handle = server_factory(ServerConfig(workers=1))
        with SolverClient(port=handle.port) as client:
            job_a = client.submit(tiny_problem(), solver="SLEEPY", budget_ms=2000.0, seed=5)
            job_b = client.submit(tiny_problem(), solver="SLEEPY", budget_ms=2000.0, seed=5)
            result_a = client.wait(job_a)
            result_b = client.wait(job_b)
            assert result_b.from_cache and result_b.best_cost == result_a.best_cost
            assert handle.server._jobs[job_b].coalesced_with == job_a
            _assert_all_released(handle, parsed_problems, [job_a, job_b])
            _assert_result_kept(client, job_a, result_a)
            _assert_result_kept(client, job_b, result_b)

    def test_fusion_window(self, server_factory, parsed_problems):
        handle = server_factory(
            ServerConfig(workers=2, fusion_window_ms=500.0, fusion_max_jobs=2),
            frontend=ServiceFrontend(),
        )
        with SolverClient(port=handle.port) as client:
            job_ids = [
                client.submit(
                    generate_paper_testcase(4, 2, seed=seed),
                    solver="QA",
                    budget_ms=40.0,
                    seed=seed,
                )
                for seed in (1, 2)
            ]
            results = [client.wait(job_id) for job_id in job_ids]
            assert all(result.ok for result in results)
            assert client.stats()["counters"]["fusion_jobs"] == 2
            # The process-wide prepared-pipeline cache keeps its own bounded
            # set of problems; empty it so only the server's hold is seen.
            QuantumAnnealingSolver.prepared_cache.clear()
            _assert_all_released(handle, parsed_problems, job_ids)
            for job_id, result in zip(job_ids, results):
                _assert_result_kept(client, job_id, result)

    def test_shard_tier(self, server_factory, parsed_problems):
        handle = server_factory(ServerConfig(shards=1, shard_heartbeat_s=0.2))
        with SolverClient(port=handle.port) as client:
            job_id = client.submit(tiny_problem(), solver="STEP", budget_ms=300.0)
            first = client.wait(job_id)
            assert first.ok
            _assert_all_released(handle, parsed_problems, [job_id])
            _assert_result_kept(client, job_id, first)


# ---------------------------------------------------------------------- #
# Pruning
# ---------------------------------------------------------------------- #
def _server(kept: int) -> SolverServer:
    """An unstarted server (300 s retention); jobs finish through its pool."""
    return SolverServer(
        ServerConfig(completed_jobs_kept=kept, completed_job_retention_s=300.0),
        frontend=ServiceFrontend(registry=SolverRegistry()),
    )


def _track(server: SolverServer, name: str) -> ServerJob:
    """Track a running job the way admission does."""
    job = ServerJob(
        job_id=name,
        client_id="c",
        request=SolveRequest(problem=tiny_problem(name)),
        started_at=time.monotonic(),
    )
    server._jobs[name] = job
    return job


def _finish(server: SolverServer, job: ServerJob, age_s: float) -> None:
    """Publish a result through the pool, then age the job."""
    server.pool._finish(job, SolveResult(job_id=job.job_id, winner="STUB"))
    job.finished_at = time.monotonic() - age_s


def _finished_jobs(server: SolverServer, names_and_ages) -> None:
    for name, age_s in names_and_ages:
        _finish(server, _track(server, name), age_s)


class TestPruneBounds:
    def test_soft_bound_drops_only_jobs_past_the_retention_window(self):
        server = _server(kept=2)
        running = _track(server, "running")
        _finished_jobs(server, [("old-1", 400.0), ("old-2", 350.0), ("new-1", 10.0),
                                ("new-2", 5.0)])
        server._prune_jobs()
        assert set(server._jobs) == {"running", "new-1", "new-2"}
        assert [job.job_id for job in server.pool.finished] == ["new-1", "new-2"]
        assert server._jobs["running"] is running

    def test_soft_bound_stops_once_back_under_it(self):
        server = _server(kept=3)
        _finished_jobs(server, [("old-1", 500.0), ("old-2", 400.0), ("old-3", 350.0),
                                ("old-4", 320.0)])
        server._prune_jobs()
        assert set(server._jobs) == {"old-2", "old-3", "old-4"}

    def test_retention_window_protects_uncollected_results(self):
        server = _server(kept=1)
        _finished_jobs(server, [(f"recent-{i}", 1.0 + i) for i in range(3)])
        server._prune_jobs()
        assert len(server._jobs) == 3  # above the soft bound, below the hard one

    def test_hard_bound_drops_oldest_finished_regardless_of_age(self):
        server = _server(kept=1)
        _track(server, "running")
        _finished_jobs(server, [(f"recent-{i}", 10.0 - i) for i in range(6)])
        server._prune_jobs()
        assert set(server._jobs) == {"running", "recent-3", "recent-4", "recent-5"}
        assert len(server.pool.finished) == 3

    def test_hard_bound_never_drops_unfinished_jobs(self):
        server = _server(kept=1)
        for i in range(5):
            _track(server, f"running-{i}")
        _finished_jobs(server, [("done", 1.0)])
        server._prune_jobs()
        assert set(server._jobs) == {f"running-{i}" for i in range(5)}
        assert not server.pool.finished

    def test_prune_order_is_finish_order_not_admission_order(self):
        server = _server(kept=1)
        first, second = _track(server, "admitted-first"), _track(server, "admitted-second")
        _finish(server, second, age_s=400.0)
        _finish(server, first, age_s=350.0)
        server._prune_jobs()
        assert set(server._jobs) == {"admitted-first"}

    def test_live_server_tracks_finished_jobs_in_finish_order(self, server_factory):
        handle = server_factory(ServerConfig(workers=1))
        with SolverClient(port=handle.port) as client:
            job_ids = [
                client.submit(tiny_problem(f"order-{i}"), solver="STEP", budget_ms=300.0)
                for i in range(3)
            ]
            for job_id in job_ids:
                client.wait(job_id)
        finished = list(handle.server.pool.finished)
        assert [job.job_id for job in finished] == job_ids
        assert [job.finished_at for job in finished] == sorted(
            job.finished_at for job in finished
        )


# ---------------------------------------------------------------------- #
# Fusion and shards
# ---------------------------------------------------------------------- #
class TestContradictoryConfig:
    def test_each_alone_is_accepted(self):
        assert ServerConfig(shards=2).fusion_window_ms == 0.0
        assert ServerConfig(fusion_window_ms=5.0).shards == 0
