"""End-to-end tests of the server's fusion window (the worker pool's staging).

Covers the tentpole contract of cross-request anneal fusion from the
client's point of view: concurrent annealing jobs admitted within one
window are executed as one fused block-diagonal anneal, yet every
client sees exactly the solo behaviour — its own monotone anytime
stream, its own result, bit-identical costs to an unfused solve — plus
the fusion observability (counters, gauge, histogram, stats block) and
the drain guarantee that a staged window still executes on shutdown.
"""

from __future__ import annotations

import threading

import pytest

from repro.server.app import ServerConfig
from repro.server.client import SolverClient
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest
from repro.mqo.generator import generate_paper_testcase

from tests.server.conftest import wait_until


@pytest.fixture()
def qa_frontend():
    """A frontend over the real registry (QA must be solvable)."""
    return ServiceFrontend()


def _fusion_config(**overrides):
    defaults = dict(workers=2, fusion_window_ms=500.0, fusion_max_jobs=2)
    defaults.update(overrides)
    return ServerConfig(**defaults)


def _spec(seed, budget_ms=120.0):
    # Six queries with three plans: the presolve leaves every seed used
    # here something to anneal, so the windows fuse real anneals.
    problem = generate_paper_testcase(6, 3, seed=seed)
    return problem, {"solver": "QA", "budget_ms": budget_ms, "seed": seed}


class TestFusedStreaming:
    def test_two_clients_in_one_window_each_get_their_own_stream(
        self, server_factory, qa_frontend
    ):
        """The satellite contract: concurrent clients sharing one fused
        window each receive their own monotone improvement stream and
        their own (solo-identical) result."""
        handle = server_factory(_fusion_config(), frontend=qa_frontend)
        results = [None, None]
        streams = [[], []]

        def run(index):
            problem, kwargs = _spec(seed=index + 1)
            with SolverClient(port=handle.port, client_name=f"fuse-{index}") as client:
                results[index] = client.solve(
                    problem,
                    on_update=lambda update, i=index: streams[i].append(update),
                    **kwargs,
                )

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        solo = ServiceFrontend()
        for index in range(2):
            result = results[index]
            assert result.ok, result.error
            # Bit-identity with an unfused solve at the same seed.
            problem, _ = _spec(seed=index + 1)
            reference = solo.submit(
                SolveRequest(
                    problem=problem, solver="QA", time_budget_ms=120.0, seed=index + 1
                )
            )
            assert result.best_cost == reference.best_cost
            assert result.selected_plans == reference.selected_plans
            # The stream is this job's own monotone trajectory.
            costs = [update["cost"] for update in streams[index]]
            assert costs, "a fused streaming job must publish its improvements"
            assert all(b < a for a, b in zip(costs, costs[1:]))
            assert costs[-1] == result.best_cost
            job_ids = {update["job_id"] for update in streams[index]}
            assert len(job_ids) == 1  # nobody receives a window peer's updates

        with SolverClient(port=handle.port) as observer:
            stats = observer.stats()
            hello = observer.hello()
        assert stats["counters"]["fusion_windows"] >= 1
        assert stats["counters"]["fusion_jobs"] >= 2
        assert hello["limits"]["fusion_max_jobs"] == 2
        assert stats["fusion_window"]["count"] >= 1

    def test_fusion_metrics_exported_to_prometheus(self, server_factory, qa_frontend):
        handle = server_factory(_fusion_config(), frontend=qa_frontend)
        problem, kwargs = _spec(seed=9)
        with SolverClient(port=handle.port) as client:
            client.solve(problem, **kwargs)
            client.solve(problem, **{**kwargs, "seed": 10})
            text = client.metrics_text()
        assert "repro_server_fusion_jobs_total" in text
        assert "repro_server_fusion_batch_size" in text
        assert "repro_server_fusion_window_ms_bucket" in text


class TestFusionPoolBehaviour:
    def test_non_fusable_solver_runs_solo(self, server_factory):
        """Scripted (non-annealing) solvers bypass the window entirely."""
        handle = server_factory(_fusion_config(fusion_window_ms=5000.0))
        updates = []
        with SolverClient(port=handle.port) as client:
            result = client.solve(
                {"queries": 2, "plans": 2},
                solver="STEP",
                budget_ms=400.0,
                on_update=updates.append,
            )
            stats = client.stats()
        assert result.ok
        assert len(updates) >= 2  # STEP streams live improvements
        assert stats["counters"]["fusion_windows"] == 0

    def test_drain_flushes_a_staged_window(self, server_factory, qa_frontend):
        """A job staged in a not-yet-expired window completes on shutdown."""
        handle = server_factory(
            _fusion_config(fusion_window_ms=30_000.0, fusion_max_jobs=8),
            frontend=qa_frontend,
        )
        result_box = {}

        def run():
            problem, kwargs = _spec(seed=3)
            with SolverClient(port=handle.port, timeout_s=30.0) as client:
                result_box["result"] = client.solve(problem, **kwargs)

        thread = threading.Thread(target=run)
        thread.start()

        def staged():
            with SolverClient(port=handle.port) as observer:
                return observer.stats()["health"]["staged"] >= 1

        wait_until(staged)
        handle.stop()  # graceful drain must flush the open window
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert result_box["result"].ok

    def test_window_fills_to_max_jobs_under_load(self, server_factory, qa_frontend):
        """A burst larger than one window splits into full windows."""
        handle = server_factory(
            _fusion_config(workers=4, fusion_window_ms=2000.0, fusion_max_jobs=3),
            frontend=qa_frontend,
        )
        results = [None] * 6

        def run(index):
            problem, kwargs = _spec(seed=20 + index, budget_ms=80.0)
            with SolverClient(port=handle.port, client_name=f"burst-{index}") as client:
                results[index] = client.solve(problem, **kwargs)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result.ok for result in results)
        with SolverClient(port=handle.port) as observer:
            stats = observer.stats()
        assert stats["counters"]["fusion_jobs"] == 6
        assert stats["counters"]["fusion_windows"] >= 2
