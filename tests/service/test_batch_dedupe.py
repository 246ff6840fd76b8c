"""Tests for in-batch deduplication of identical solve requests."""

from repro.mqo.generator import generate_paper_testcase
from repro.service.batch import BatchExecutor
from repro.service.jobs import SolveRequest


def _request(problem, job_id, seed=3, solver="CLIMB", budget=80.0, metadata=None):
    return SolveRequest(
        problem=problem,
        solver=solver,
        time_budget_ms=budget,
        seed=seed,
        job_id=job_id,
        metadata=metadata or {},
    )


class TestBatchDedupe:
    def test_identical_jobs_solved_once(self):
        problem = generate_paper_testcase(4, 2, seed=1)
        requests = [
            _request(problem, "first", metadata={"k": 1}),
            _request(problem, "twin", metadata={"k": 2}),
            _request(problem, "third"),
        ]
        results = BatchExecutor(workers=0).run(requests)
        assert all(result.ok for result in results)
        assert [result.job_id for result in results] == ["first", "twin", "third"]
        # The representative actually solved; the twins are echoes.
        assert results[0].from_cache is False
        assert results[1].from_cache is True
        assert results[2].from_cache is True
        assert results[1].best_cost == results[0].best_cost
        assert results[1].selected_plans == results[0].selected_plans
        # Identity fields echo each request, not the representative.
        assert results[1].metadata == {"k": 2}
        assert results[1].total_time_ms == 0.0

    def test_different_seeds_not_deduplicated(self):
        problem = generate_paper_testcase(4, 2, seed=1)
        requests = [
            _request(problem, "a", seed=1),
            _request(problem, "b", seed=2),
        ]
        results = BatchExecutor(workers=0).run(requests)
        assert all(result.from_cache is False for result in results)

    def test_deduped_equals_solo_result(self):
        """An echoed twin must carry exactly the representative's answer."""
        problem = generate_paper_testcase(5, 2, seed=2)
        solo = BatchExecutor(workers=0).run([_request(problem, "solo")])[0]
        paired = BatchExecutor(workers=0).run(
            [_request(problem, "rep"), _request(problem, "twin")]
        )
        assert paired[1].best_cost == solo.best_cost
        assert paired[1].selected_plans == solo.selected_plans

    def test_derived_seeds_keep_jobs_distinct(self):
        """Without explicit seeds, per-position derivation prevents dedupe."""
        problem = generate_paper_testcase(4, 2, seed=1)
        requests = [
            SolveRequest(problem=problem, solver="CLIMB", time_budget_ms=50.0, job_id=j)
            for j in ("x", "y")
        ]
        results = BatchExecutor(workers=0).run(requests, base_seed=9)
        assert results[0].seed != results[1].seed
        assert all(result.from_cache is False for result in results)
