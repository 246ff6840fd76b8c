"""Tests for the series-of-QUBOs decomposition solver (paper outlook)."""

import itertools

import pytest

from repro.core.decomposition import ParallelDecomposition, build_subproblem
from repro.core.pipeline import QuantumMQO
from repro.exceptions import InvalidProblemError
from repro.mqo.generator import generate_clustered_problem, generate_paper_testcase
from repro.mqo.problem import MQOProblem
from repro.service.cache import ResultCache
from repro.service.frontend import ServiceFrontend


def exhaustive_optimum(problem):
    return min(
        problem.solution_from_choices(list(choices)).cost
        for choices in itertools.product(*(range(q.num_plans) for q in problem.queries))
    )


@pytest.fixture()
def decomposer():
    """QA cluster solves of 30 ms of device time (79 reads) on the ideal D-Wave 2X."""
    return ParallelDecomposition(
        frontend=ServiceFrontend(cache=ResultCache(capacity=16)),
        max_cluster_size=4,
        cluster_solvers=("QA",),
        cluster_budget_ms=30.0,
    )


class TestBuildSubproblem:
    def test_structure_and_plan_map(self, small_problem):
        sub = build_subproblem(small_problem, [1, 2])
        assert sub.cluster_queries == (1, 2)
        assert sub.problem.num_queries == 2
        assert sub.problem.num_plans == 4
        # Sub-plan 0 is the first plan of query 1 (original plan index 2).
        assert sub.plan_map[0] == 2
        assert sub.plan_map[3] == 5

    def test_intra_cluster_savings_preserved(self, small_problem):
        # Original saving (2, 7): queries 1 and 3.
        sub = build_subproblem(small_problem, [1, 3])
        assert sub.problem.num_savings == 1
        assert list(sub.problem.savings.values()) == [1.5]

    def test_cross_cluster_savings_dropped(self, small_problem):
        sub = build_subproblem(small_problem, [0])
        assert sub.problem.num_savings == 0

    def test_conditioning_discounts_costs(self):
        problem = MQOProblem(
            plans_per_query=[[5.0, 5.0], [5.0, 5.0]],
            savings={(0, 2): 4.0},
        )
        # Plan 0 of query 0 is already selected; plan 2 (query 1, first plan)
        # should be discounted by the realisable saving of 4.
        sub = build_subproblem(problem, [1], already_selected=[0])
        costs = [sub.problem.plan_cost(p) for p in range(2)]
        assert costs[0] + 4.0 == pytest.approx(costs[1])

    def test_costs_stay_non_negative_after_conditioning(self):
        problem = MQOProblem(
            plans_per_query=[[1.0], [1.0, 8.0]],
            savings={(0, 1): 6.0},
        )
        sub = build_subproblem(problem, [1], already_selected=[0])
        assert all(plan.cost >= 0 for plan in sub.problem.plans)

    def test_empty_cluster_rejected(self, small_problem):
        with pytest.raises(InvalidProblemError):
            build_subproblem(small_problem, [])


class TestDecomposedSolve:
    def test_produces_valid_solution(self, decomposer):
        problem = generate_paper_testcase(10, 2, seed=3)
        result = decomposer.decompose(problem, seed=5)
        assert result.solution.is_valid
        assert result.num_clusters >= 2

    def test_matches_optimum_on_decomposable_problem(self, decomposer):
        """With no cross-cluster sharing the decomposition is exact."""
        problem = generate_clustered_problem(
            3, 3, 2, intra_cluster_density=1.0, inter_cluster_density=0.0, seed=4
        )
        result = decomposer.decompose(problem, seed=5)
        assert result.solution.cost == pytest.approx(exhaustive_optimum(problem))

    def test_close_to_single_qubo_on_small_problem(self, decomposer, ideal_device):
        problem = generate_paper_testcase(8, 2, seed=6)
        single = QuantumMQO(device=ideal_device, seed=6).solve(
            problem, num_reads=80, num_gauges=8
        )
        decomposed = decomposer.decompose(problem, seed=6)
        # The decomposition is a heuristic: allow a modest gap versus the
        # single-QUBO solve, never an improvement beyond noise.
        assert decomposed.solution.cost >= single.best_solution.cost - 1e-9
        assert decomposed.solution.cost <= single.best_solution.cost + 0.5 * abs(
            single.best_solution.cost
        ) + 5.0

    def test_handles_problems_exceeding_single_device_capacity(self):
        """More plan variables than the TRIAD fallback supports still solve."""
        decomposer = ParallelDecomposition(
            frontend=ServiceFrontend(cache=ResultCache(capacity=16)),
            max_cluster_size=6,
            cluster_solvers=("QA",),
            cluster_budget_ms=12.0,
        )
        # 80 variables > the 48-variable TRIAD cap of the 12x12 device.
        problem = generate_paper_testcase(40, 2, seed=9)
        result = decomposer.decompose(problem, seed=8)
        assert result.solution.is_valid
        assert result.num_clusters >= 7

    def test_invalid_cluster_cap(self):
        with pytest.raises(InvalidProblemError):
            ParallelDecomposition(max_cluster_size=0, cluster_solvers=("QA",))
