"""Tests for the MQO problem model (repro.mqo.problem)."""

import pytest

from repro.exceptions import InvalidProblemError, InvalidSolutionError
from repro.mqo.problem import MQOProblem, Plan, Query
from repro.mqo.serialization import solution_from_dict


class TestPlanAndQuery:
    def test_plan_rejects_negative_cost(self):
        with pytest.raises(InvalidProblemError):
            Plan(index=0, query_index=0, cost=-1.0)

    def test_plan_rejects_nan_cost(self):
        with pytest.raises(InvalidProblemError):
            Plan(index=0, query_index=0, cost=float("nan"))

    def test_plan_rejects_negative_index(self):
        with pytest.raises(InvalidProblemError):
            Plan(index=-1, query_index=0, cost=1.0)

    def test_query_rejects_empty_plan_list(self):
        with pytest.raises(InvalidProblemError):
            Query(index=0, plan_indices=())

    def test_query_rejects_duplicate_plans(self):
        with pytest.raises(InvalidProblemError):
            Query(index=0, plan_indices=(1, 1))

    def test_query_num_plans(self):
        assert Query(index=0, plan_indices=(0, 1, 2)).num_plans == 3


class TestMQOProblemConstruction:
    def test_basic_structure(self, small_problem):
        assert small_problem.num_queries == 4
        assert small_problem.num_plans == 8
        assert small_problem.num_savings == 4

    def test_plan_indices_are_dense_and_ordered(self, small_problem):
        assert [p.index for p in small_problem.plans] == list(range(8))
        assert small_problem.query_of_plan(0) == 0
        assert small_problem.query_of_plan(7) == 3

    def test_empty_problem_rejected(self):
        with pytest.raises(InvalidProblemError):
            MQOProblem([])

    def test_query_without_plans_rejected(self):
        with pytest.raises(InvalidProblemError):
            MQOProblem([[1.0], []])

    def test_saving_between_same_query_plans_rejected(self):
        with pytest.raises(InvalidProblemError):
            MQOProblem([[1.0, 2.0]], savings={(0, 1): 1.0})

    def test_saving_referencing_unknown_plan_rejected(self):
        with pytest.raises(InvalidProblemError):
            MQOProblem([[1.0], [2.0]], savings={(0, 5): 1.0})

    def test_negative_saving_rejected(self):
        with pytest.raises(InvalidProblemError):
            MQOProblem([[1.0], [2.0]], savings={(0, 1): -1.0})

    def test_zero_saving_rejected(self):
        with pytest.raises(InvalidProblemError):
            MQOProblem([[1.0], [2.0]], savings={(0, 1): 0.0})

    def test_self_saving_rejected(self):
        with pytest.raises(InvalidProblemError):
            MQOProblem([[1.0], [2.0]], savings={(0, 0): 1.0})

    def test_duplicate_saving_pair_rejected(self):
        # (1, 0) normalises to (0, 1): listing both is a duplicate entry.
        with pytest.raises(InvalidProblemError):
            MQOProblem([[1.0], [2.0]], savings={(0, 1): 1.0, (1, 0): 2.0})

    def test_savings_pairs_normalised(self):
        problem = MQOProblem([[1.0], [2.0]], savings={(1, 0): 2.5})
        assert problem.saving(0, 1) == 2.5
        assert problem.saving(1, 0) == 2.5
        assert (0, 1) in problem.savings

    def test_unknown_plan_lookup_raises(self, small_problem):
        with pytest.raises(InvalidProblemError):
            small_problem.plan(100)
        with pytest.raises(InvalidProblemError):
            small_problem.query(100)
        with pytest.raises(InvalidProblemError):
            small_problem.query_of_plan(100)

    def test_negative_plan_and_query_indices_are_unknown(self):
        # Python list indexing would read -1 as the last plan or query.
        problem = MQOProblem([[1.0, 2.0], [3.0, 4.0]], {(0, 2): 1.5})
        for index in (-1, -4, -5):
            with pytest.raises(InvalidProblemError, match="unknown plan index"):
                problem.plan(index)
        for index in (-1, -2, -3):
            with pytest.raises(InvalidProblemError, match="unknown query index"):
                problem.query(index)
        with pytest.raises(InvalidProblemError):
            problem.solution_from_selection([-1, 0])
        with pytest.raises(InvalidProblemError):
            solution_from_dict(problem, {"selected_plans": [-4]})
        with pytest.raises(InvalidProblemError):
            problem.selection_cost([-1, 0])
        # Valid selections cost what they always did.
        assert problem.selection_cost([0, 2]) == 2.5
        assert problem.solution_from_selection([1, 3]).cost == 6.0


class TestCostAccounting:
    def test_max_plan_cost(self, small_problem):
        assert small_problem.max_plan_cost() == 6.0

    def test_max_total_savings_per_plan(self, small_problem):
        # Plan 2 participates in savings (0,2)=2.0 and (2,7)=1.5 -> 3.5.
        assert small_problem.max_total_savings_per_plan() == pytest.approx(3.5)

    def test_max_total_savings_zero_without_savings(self):
        problem = MQOProblem([[1.0], [2.0]])
        assert problem.max_total_savings_per_plan() == 0.0

    def test_sharing_partners(self, small_problem):
        partners = small_problem.sharing_partners(2)
        assert partners == {0: 2.0, 7: 1.5}

    def test_sharing_partners_is_cached_read_only_view(self, small_problem):
        """Hot-path accessor: no per-call copies and no mutation leaks."""
        partners = small_problem.sharing_partners(2)
        assert small_problem.sharing_partners(2) is partners
        with pytest.raises(TypeError):
            partners[0] = 99.0
        with pytest.raises(AttributeError):
            partners.pop(0)  # read-only views expose no mutators at all
        # The failed mutations left the problem untouched.
        assert small_problem.sharing_partners(2) == {0: 2.0, 7: 1.5}
        assert small_problem.saving(0, 2) == 2.0

    def test_savings_is_cached_read_only_view(self, small_problem):
        savings = small_problem.savings
        assert small_problem.savings is savings
        with pytest.raises(TypeError):
            savings[(0, 2)] = 99.0
        with pytest.raises(TypeError):
            del savings[(0, 2)]
        assert small_problem.savings[(0, 2)] == 2.0
        assert dict(savings) == {(0, 2): 2.0, (1, 4): 1.0, (5, 6): 3.0, (2, 7): 1.5}

    def test_selection_cost_with_savings(self, paper_example_problem):
        # Executing plans 1 and 2 costs 4 + 3 - 5 = 2.
        assert paper_example_problem.selection_cost({1, 2}) == pytest.approx(2.0)

    def test_selection_cost_without_savings(self, paper_example_problem):
        assert paper_example_problem.selection_cost({0, 3}) == pytest.approx(3.0)

    def test_selection_cost_of_invalid_selection(self, paper_example_problem):
        # Selecting both plans of query 0 simply sums both costs.
        assert paper_example_problem.selection_cost({0, 1}) == pytest.approx(6.0)


class TestSolutions:
    def test_valid_solution(self, paper_example_problem):
        solution = paper_example_problem.solution_from_selection({1, 2})
        assert solution.is_valid
        assert solution.cost == pytest.approx(2.0)

    def test_invalid_solution_flagged_not_rejected(self, paper_example_problem):
        solution = paper_example_problem.solution_from_selection({0, 1, 2})
        assert not solution.is_valid
        with pytest.raises(InvalidSolutionError):
            solution.require_valid()

    def test_solution_from_choices(self, paper_example_problem):
        solution = paper_example_problem.solution_from_choices([1, 0])
        assert solution.selected_plans == frozenset({1, 2})

    def test_solution_from_choices_wrong_length(self, paper_example_problem):
        with pytest.raises(InvalidSolutionError):
            paper_example_problem.solution_from_choices([0])

    def test_solution_from_choices_out_of_range(self, paper_example_problem):
        with pytest.raises(InvalidSolutionError):
            paper_example_problem.solution_from_choices([2, 0])

    def test_choices_roundtrip(self, small_problem):
        solution = small_problem.solution_from_choices([1, 0, 1, 0])
        assert solution.choices() == [1, 0, 1, 0]

    def test_choices_requires_valid(self, small_problem):
        invalid = small_problem.solution_from_selection({0})
        with pytest.raises(InvalidSolutionError):
            invalid.choices()

    def test_plan_indicator(self, paper_example_problem):
        solution = paper_example_problem.solution_from_selection({1, 2})
        assert solution.plan_indicator() == {0: 0, 1: 1, 2: 1, 3: 0}

    def test_unknown_plan_in_selection_rejected(self, paper_example_problem):
        with pytest.raises(InvalidProblemError):
            paper_example_problem.solution_from_selection({99})

    def test_describe_mentions_dimensions(self, small_problem):
        text = small_problem.describe()
        assert "4" in text and "8" in text
