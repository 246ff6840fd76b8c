"""Tests for the logical mapping (MQO -> QUBO, paper Section 4)."""

import pytest

from repro.core.logical import LogicalMapping, LogicalMappingConfig, map_mqo_to_qubo
from repro.exceptions import InvalidProblemError
from repro.mqo.problem import MQOProblem


class TestConfig:
    def test_default_epsilon_is_papers(self):
        assert LogicalMappingConfig().epsilon == 0.25

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidProblemError):
            LogicalMappingConfig(epsilon=0.0)

    def test_invalid_scale(self):
        with pytest.raises(InvalidProblemError):
            LogicalMappingConfig(weight_scale=0.5)


class TestPenaltyWeights:
    def test_weight_at_least_one_exceeds_max_cost(self, small_problem):
        mapping = LogicalMapping(small_problem)
        assert mapping.weight_at_least_one > small_problem.max_plan_cost()
        assert mapping.weight_at_least_one == pytest.approx(
            small_problem.max_plan_cost() + 0.25
        )

    def test_weight_at_most_one_exceeds_wl_plus_savings(self, small_problem):
        mapping = LogicalMapping(small_problem)
        bound = mapping.weight_at_least_one + small_problem.max_total_savings_per_plan()
        assert mapping.weight_at_most_one > bound
        assert mapping.weight_at_most_one == pytest.approx(bound + 0.25)

    def test_weight_scale_multiplies_both(self, small_problem):
        base = LogicalMapping(small_problem)
        scaled = LogicalMapping(small_problem, LogicalMappingConfig(weight_scale=3.0))
        assert scaled.weight_at_least_one == pytest.approx(3.0 * base.weight_at_least_one)
        assert scaled.weight_at_most_one == pytest.approx(3.0 * base.weight_at_most_one)

    def test_weights_without_savings(self):
        problem = MQOProblem([[1.0, 2.0], [3.0, 4.0]])
        mapping = LogicalMapping(problem)
        assert mapping.weight_at_least_one == pytest.approx(4.25)
        assert mapping.weight_at_most_one == pytest.approx(4.5)


class TestQUBOStructure:
    def test_one_variable_per_plan(self, small_problem):
        mapping = LogicalMapping(small_problem)
        assert set(mapping.qubo.variables) == set(range(small_problem.num_plans))

    def test_linear_terms_are_cost_minus_wl(self, small_problem):
        mapping = LogicalMapping(small_problem)
        for plan in small_problem.plans:
            expected = plan.cost - mapping.weight_at_least_one
            assert mapping.qubo.get_linear(plan.index) == pytest.approx(expected)

    def test_same_query_pairs_carry_wm(self, small_problem):
        mapping = LogicalMapping(small_problem)
        for query in small_problem.queries:
            plans = query.plan_indices
            for i in range(len(plans)):
                for j in range(i + 1, len(plans)):
                    assert mapping.qubo.get_quadratic(plans[i], plans[j]) == pytest.approx(
                        mapping.weight_at_most_one
                    )

    def test_sharing_pairs_carry_negative_savings(self, small_problem):
        mapping = LogicalMapping(small_problem)
        for (p1, p2), saving in small_problem.interaction_pairs():
            assert mapping.qubo.get_quadratic(p1, p2) == pytest.approx(-saving)

    def test_non_interacting_cross_pairs_have_zero_weight(self, paper_example_problem):
        mapping = LogicalMapping(paper_example_problem)
        # Plans 0 and 3 belong to different queries and share nothing.
        assert mapping.qubo.get_quadratic(0, 3) == 0.0

    def test_number_of_interactions(self, paper_example_problem):
        mapping = LogicalMapping(paper_example_problem)
        # Two intra-query pairs plus one savings pair.
        assert mapping.qubo.num_interactions == 3


class TestInverseMapping:
    def test_solution_from_assignment(self, paper_example_problem):
        mapping = LogicalMapping(paper_example_problem)
        solution = mapping.solution_from_assignment({0: 0, 1: 1, 2: 1, 3: 0})
        assert solution.selected_plans == frozenset({1, 2})
        assert solution.is_valid

    def test_assignment_from_solution_roundtrip(self, small_problem):
        mapping = LogicalMapping(small_problem)
        solution = small_problem.solution_from_choices([0, 1, 0, 1])
        assignment = mapping.assignment_from_solution(solution)
        assert mapping.solution_from_assignment(assignment).selected_plans == solution.selected_plans

    def test_assignment_from_foreign_solution_rejected(self, small_problem, paper_example_problem):
        mapping = LogicalMapping(small_problem)
        foreign = paper_example_problem.solution_from_selection({1, 2})
        with pytest.raises(InvalidProblemError):
            mapping.assignment_from_solution(foreign)

    def test_energy_of_valid_solution_matches_cost_plus_shift(self, small_problem):
        """Theorem 1: for valid solutions, energy = C(Pe) + constant shift."""
        mapping = LogicalMapping(small_problem)
        shift = mapping.constant_energy_shift()
        for choices in ([0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 1, 0]):
            solution = small_problem.solution_from_choices(choices)
            assert mapping.energy_of_solution(solution) == pytest.approx(solution.cost + shift)


class TestBatchedDecode:
    def test_matches_per_assignment_decode(self, small_problem):
        mapping = LogicalMapping(small_problem)
        assignments = [
            {0: 1, 3: 1, 4: 1, 7: 1},  # valid
            {0: 1, 1: 1, 4: 1},  # overfull query 0, missing queries
            {},  # empty
            {plan.index: 1 for plan in small_problem.plans},  # everything
        ]
        batch = mapping.solutions_from_sampleset(assignments)
        assert len(batch) == len(assignments)
        for assignment, solution in zip(assignments, batch):
            reference = mapping.solution_from_assignment(assignment)
            assert solution.selected_plans == reference.selected_plans
            assert solution.is_valid == reference.is_valid
            assert solution.cost == pytest.approx(reference.cost)

    def test_accepts_sample_sets_and_matrices(self, small_problem):
        import numpy as np

        from repro.annealer.sampleset import SampleSet

        mapping = LogicalMapping(small_problem)
        assignment = {0: 1, 3: 1, 4: 1, 7: 1}
        sample_set = SampleSet(
            states=np.array([list(assignment.values())]),
            variables=list(assignment),
            read_energies=np.zeros(1),
        )
        from_set = mapping.solutions_from_sampleset(sample_set)
        matrix = np.zeros((1, small_problem.num_plans), dtype=np.int8)
        matrix[0, [0, 3, 4, 7]] = 1
        from_matrix = mapping.solutions_from_sampleset(matrix)
        reference = mapping.solution_from_assignment(assignment)
        for solution in (*from_set, *from_matrix):
            assert solution.selected_plans == reference.selected_plans
            assert solution.cost == pytest.approx(reference.cost)

    def test_empty_batch(self, small_problem):
        mapping = LogicalMapping(small_problem)
        assert mapping.solutions_from_sampleset([]) == []


class TestRepair:
    def test_repair_of_empty_assignment(self, small_problem):
        mapping = LogicalMapping(small_problem)
        repaired = mapping.repair({})
        assert repaired.is_valid
        # Every query gets its cheapest plan.
        for query in small_problem.queries:
            cheapest = min(query.plan_indices, key=small_problem.plan_cost)
            assert cheapest in repaired.selected_plans

    def test_repair_of_overfull_assignment(self, paper_example_problem):
        mapping = LogicalMapping(paper_example_problem)
        repaired = mapping.repair({0: 1, 1: 1, 2: 1, 3: 1})
        assert repaired.is_valid
        assert len(repaired.selected_plans) == 2

    def test_repair_keeps_valid_assignment(self, paper_example_problem):
        mapping = LogicalMapping(paper_example_problem)
        repaired = mapping.repair({0: 0, 1: 1, 2: 1, 3: 0})
        assert repaired.selected_plans == frozenset({1, 2})

    def test_map_mqo_to_qubo_wrapper(self, small_problem):
        mapping = map_mqo_to_qubo(small_problem)
        assert isinstance(mapping, LogicalMapping)
