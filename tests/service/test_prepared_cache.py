"""Tests for the QA adapter's prepared-pipeline cache and prepare hook."""

import gc
import types

import pytest

from repro.mqo.generator import generate_paper_testcase
from repro.mqo.problem import MQOProblem, Plan, Query
from repro.mqo.serialization import exact_problem_token
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest
from repro.service.qa_adapter import QuantumAnnealingSolver


def _reversed_plans(problem: MQOProblem) -> MQOProblem:
    """``problem`` with every query's plans listed in reverse order."""
    index_map = {}
    for query in problem.queries:
        for old, new in zip(query.plan_indices, reversed(query.plan_indices)):
            index_map[old] = new
    costs = [[problem.plan_cost(p) for p in reversed(q.plan_indices)] for q in problem.queries]
    savings = {(index_map[a], index_map[b]): value for (a, b), value in problem.savings.items()}
    return MQOProblem(costs, savings)


@pytest.fixture(autouse=True)
def _clean_cache():
    QuantumAnnealingSolver.prepared_cache.clear()
    yield
    QuantumAnnealingSolver.prepared_cache.clear()


class TestPreparedCache:
    def test_prepare_is_cached_across_instances(self):
        problem = generate_paper_testcase(4, 2, seed=1)
        first = QuantumAnnealingSolver().prepare(problem)
        second = QuantumAnnealingSolver().prepare(problem)
        assert second is first
        stats = QuantumAnnealingSolver.prepared_cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_distinct_problems_prepare_separately(self):
        a = generate_paper_testcase(4, 2, seed=1)
        b = generate_paper_testcase(4, 2, seed=2)
        solver = QuantumAnnealingSolver()
        assert solver.prepare(a) is not solver.prepare(b)

    def test_relabel_equivalent_instances_keep_separate_slots(self):
        """Isomorphic instances share a canonical hash but not a prepared
        embedding: alternating them must hit after each was prepared once."""
        problem = generate_paper_testcase(4, 2, seed=1)
        relabeled = _reversed_plans(problem)
        assert relabeled.canonical_hash() == problem.canonical_hash()
        assert exact_problem_token(relabeled) != exact_problem_token(problem)
        solver = QuantumAnnealingSolver()
        for _ in range(3):
            for instance in (problem, relabeled):
                solver.solve(instance, time_budget_ms=10.0, seed=0)
        stats = QuantumAnnealingSolver.prepared_cache.stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 4

    def test_solve_results_identical_warm_and_cold(self):
        """A cache hit must not change the solver's output for equal seeds."""
        problem = generate_paper_testcase(4, 2, seed=3)
        cold = QuantumAnnealingSolver().solve(problem, time_budget_ms=50.0, seed=11)
        warm = QuantumAnnealingSolver().solve(problem, time_budget_ms=50.0, seed=11)
        assert warm.points == cold.points
        assert warm.best_cost == cold.best_cost
        assert (
            warm.best_solution.selected_plans == cold.best_solution.selected_plans
        )

    def test_solve_valid_solution(self):
        problem = generate_paper_testcase(5, 2, seed=7)
        trajectory = QuantumAnnealingSolver().solve(problem, time_budget_ms=60.0, seed=0)
        assert trajectory.best_solution is not None
        assert trajectory.best_solution.is_valid


class TestPortfolioPrepareHook:
    def test_portfolio_race_warms_the_cache(self):
        from repro.service.portfolio import PortfolioScheduler

        problem = generate_paper_testcase(4, 2, seed=5)
        scheduler = PortfolioScheduler()
        outcome = scheduler.solve(
            problem, time_budget_ms=200.0, seed=1, solvers=["QA", "CLIMB"]
        )
        assert outcome.winner
        assert len(QuantumAnnealingSolver.prepared_cache) == 1

    def test_repeated_races_hit_the_cache(self):
        from repro.service.portfolio import PortfolioScheduler

        problem = generate_paper_testcase(4, 2, seed=5)
        scheduler = PortfolioScheduler()
        for _ in range(3):
            scheduler.solve(problem, time_budget_ms=100.0, seed=1, solvers=["QA"])
        stats = QuantumAnnealingSolver.prepared_cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= 2


def _reachable(root):
    """Every object reachable from ``root`` through references (types and modules aside)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for child in gc.get_referents(stack.pop()):
            if id(child) in seen or isinstance(child, (type, types.ModuleType)):
                continue
            seen.add(id(child))
            stack.append(child)
            yield child


def test_a_served_qa_solve_leaves_no_plan_or_query_objects():
    """The problem keeps its plans as columns: a solve builds no Plan or Query it keeps."""
    problem = generate_paper_testcase(6, 3, seed=1)
    result = ServiceFrontend().submit(
        SolveRequest(problem=problem, solver="QA", time_budget_ms=20.0, seed=1)
    )
    assert result.ok, result.error
    assert len(result.trajectory) and result.trajectory[-1][0] > 0.0  # it annealed
    leaked = [obj for obj in _reachable(problem) if isinstance(obj, (Plan, Query))]
    assert not leaked
