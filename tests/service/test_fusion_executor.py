"""Tests of the service-layer fused executor and frontend entry point.

``execute_fused_requests`` must be indistinguishable from sequential
:func:`execute_request` calls, result for result: same seeds produce the
same trajectories, best costs and selected plans (wall-clock timing
aside), non-annealing requests transparently fall back to the solo
path, and failures stay per-request.  ``ServiceFrontend.submit_fused``
adds the cache semantics of :meth:`submit` on top.
"""

from repro.mqo.generator import generate_paper_testcase
from repro.obs.trace import configure_tracer, get_tracer
from repro.service import fusion
from repro.service.batch import execute_request
from repro.service.cache import ResultCache
from repro.service.frontend import ServiceFrontend
from repro.service.fusion import execute_fused_requests
from repro.service.jobs import SolveRequest


def _qa_request(seed, budget_ms=120.0, queries=4):
    return SolveRequest(
        problem=generate_paper_testcase(queries, 2, seed=seed),
        solver="QA",
        time_budget_ms=budget_ms,
        seed=seed,
    )


class TestExecuteFusedRequests:
    def test_bit_identical_to_sequential_submits(self):
        requests = [_qa_request(seed) for seed in range(4)]
        fused = execute_fused_requests(requests)
        solo_frontend = ServiceFrontend()
        for request, result in zip(requests, fused):
            solo = solo_frontend.submit(request)
            assert result.ok and solo.ok
            assert result.winner == solo.winner == "QA"
            assert result.best_cost == solo.best_cost
            assert result.selected_plans == solo.selected_plans
            assert result.trajectory == solo.trajectory

    def test_decided_request_skips_the_fused_anneal_of_its_peers(self):
        """Two requests anneal in one fused group; a third, which the
        presolve decides, joins no anneal.  All three match their solo
        solves bit for bit."""
        requests = [_qa_request(seed, queries=6) for seed in (1, 2, 3)]
        tracer = get_tracer()
        enabled, buffer_size = tracer.enabled, tracer.buffer_size
        configure_tracer(True, buffer_size=10_000)
        tracer.drain()
        try:
            fused = execute_fused_requests(requests)
            spans = tracer.drain()
        finally:
            configure_tracer(enabled, buffer_size=buffer_size)
        assert [span.attributes["jobs"] for span in spans if span.name == "service.fuse"] == [2]
        decided = [r for r in fused if r.trajectory == [(0.0, r.best_cost)]]
        assert len(decided) == 1 and decided[0].proved_optimal
        for request, result in zip(requests, fused):
            solo = ServiceFrontend().submit(request)
            assert result.best_cost == solo.best_cost
            assert result.selected_plans == solo.selected_plans
            assert result.trajectory == solo.trajectory

    def test_mixed_window_falls_back_for_classical_solvers(self, monkeypatch):
        """Non-annealing requests run solo; order is preserved."""
        solo_seen = []

        def spy_solo(request, **kwargs):
            solo_seen.append(request.solver)
            return execute_request(request, **kwargs)

        monkeypatch.setattr(fusion, "execute_request", spy_solo)

        requests = [
            _qa_request(0),
            SolveRequest(
                problem=generate_paper_testcase(4, 2, seed=1),
                solver="GREEDY",
                time_budget_ms=60.0,
                seed=1,
            ),
            _qa_request(2),
        ]
        results = execute_fused_requests(requests)
        assert solo_seen == ["GREEDY"]
        assert [r.winner for r in results] == ["QA", "GREEDY", "QA"]
        assert all(r.ok for r in results)

    def test_unknown_solver_fails_that_request_only(self):
        requests = [
            _qa_request(0),
            SolveRequest(
                problem=generate_paper_testcase(4, 2, seed=1),
                solver="NOPE",
                time_budget_ms=60.0,
            ),
        ]
        results = execute_fused_requests(requests)
        assert results[0].ok
        assert not results[1].ok
        assert results[1].error

    def test_single_request_window(self):
        """A degenerate one-job window still round-trips."""
        request = _qa_request(7)
        (result,) = execute_fused_requests([request])
        solo = ServiceFrontend().submit(request)
        assert result.ok
        assert result.best_cost == solo.best_cost
        assert result.trajectory == solo.trajectory


class TestSubmitFused:
    def test_cache_hits_served_per_request(self):
        frontend = ServiceFrontend(cache=ResultCache())
        requests = [_qa_request(seed) for seed in range(3)]
        cold = frontend.submit_fused(requests)
        warm = frontend.submit_fused(requests)
        assert all(not r.from_cache for r in cold)
        assert all(r.from_cache for r in warm)
        for before, after in zip(cold, warm):
            assert after.best_cost == before.best_cost
            assert after.selected_plans == before.selected_plans
            assert after.total_time_ms == 0.0

    def test_fused_results_populate_the_submit_cache(self):
        """A fused miss warms the same cache key submit() reads."""
        frontend = ServiceFrontend(cache=ResultCache())
        request = _qa_request(5)
        (fused,) = frontend.submit_fused([request])
        solo = frontend.submit(request)
        assert solo.from_cache
        assert solo.best_cost == fused.best_cost

    def test_results_in_request_order(self):
        frontend = ServiceFrontend()
        requests = [_qa_request(seed, queries=3 + (seed % 3)) for seed in range(5)]
        results = frontend.submit_fused(requests)
        assert len(results) == len(requests)
        references = [ServiceFrontend().submit(request) for request in requests]
        for result, reference in zip(results, references):
            assert result.best_cost == reference.best_cost
