"""Property-based tests for the MQO problem model (hypothesis)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.exceptions import InvalidProblemError
from repro.mqo.problem import MQOProblem


@st.composite
def mqo_problems(draw, max_queries=5, max_plans=4):
    """Strategy generating small random MQO problems."""
    num_queries = draw(st.integers(min_value=1, max_value=max_queries))
    plans_per_query = [
        [
            draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
            for _ in range(draw(st.integers(min_value=1, max_value=max_plans)))
        ]
        for _ in range(num_queries)
    ]
    problem = MQOProblem(plans_per_query)
    plan_query = {p.index: p.query_index for p in problem.plans}
    candidate_pairs = [
        (p1, p2)
        for p1 in plan_query
        for p2 in plan_query
        if p1 < p2 and plan_query[p1] != plan_query[p2]
    ]
    savings = {}
    for pair in candidate_pairs:
        if draw(st.booleans()):
            savings[pair] = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    return MQOProblem(plans_per_query, savings)


@st.composite
def problems_with_selection(draw):
    """A problem together with a valid one-plan-per-query selection."""
    problem = draw(mqo_problems())
    choices = [
        draw(st.integers(min_value=0, max_value=query.num_plans - 1))
        for query in problem.queries
    ]
    return problem, choices


class TestProblemInvariants:
    @given(mqo_problems())
    @settings(max_examples=40, deadline=None)
    def test_plan_indices_are_dense(self, problem):
        assert [p.index for p in problem.plans] == list(range(problem.num_plans))

    @given(mqo_problems())
    @settings(max_examples=40, deadline=None)
    def test_savings_symmetric_lookup(self, problem):
        for (p1, p2), value in problem.savings.items():
            assert problem.saving(p1, p2) == value
            assert problem.saving(p2, p1) == value

    @given(mqo_problems())
    @settings(max_examples=40, deadline=None)
    def test_max_total_savings_bounds_each_plan(self, problem):
        bound = problem.max_total_savings_per_plan()
        for plan in problem.plans:
            assert sum(problem.sharing_partners(plan.index).values()) <= bound + 1e-9


class TestSolutionInvariants:
    @given(problems_with_selection())
    @settings(max_examples=40, deadline=None)
    def test_valid_selection_is_valid(self, problem_and_choices):
        problem, choices = problem_and_choices
        solution = problem.solution_from_choices(choices)
        assert solution.is_valid
        assert len(solution.selected_plans) == problem.num_queries

    @given(problems_with_selection())
    @settings(max_examples=40, deadline=None)
    def test_cost_decomposition(self, problem_and_choices):
        """C(Pe) = sum of costs minus sum of realised savings."""
        problem, choices = problem_and_choices
        solution = problem.solution_from_choices(choices)
        selected = solution.selected_plans
        expected = sum(problem.plan_cost(p) for p in selected)
        for (p1, p2), saving in problem.savings.items():
            if p1 in selected and p2 in selected:
                expected -= saving
        assert solution.cost == expected

    @given(problems_with_selection())
    @settings(max_examples=40, deadline=None)
    def test_choices_roundtrip(self, problem_and_choices):
        problem, choices = problem_and_choices
        solution = problem.solution_from_choices(choices)
        assert solution.choices() == choices

    @given(problems_with_selection())
    @settings(max_examples=40, deadline=None)
    def test_cost_never_exceeds_sum_of_costs(self, problem_and_choices):
        problem, choices = problem_and_choices
        solution = problem.solution_from_choices(choices)
        upper = sum(problem.plan_cost(p) for p in solution.selected_plans)
        assert solution.cost <= upper + 1e-9


class TestLazyAccessors:
    """The partner views are built on first use and must equal an eager build."""

    @given(mqo_problems(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_lazy_views_equal_an_eager_build(self, problem, partners_first):
        eager = {plan.index: {} for plan in problem.plans}
        for (p1, p2), value in problem.savings.items():
            eager[p1][p2] = value
            eager[p2][p1] = value
        expected_max = 0.0
        if problem.num_savings:
            expected_max = max(sum(partners.values()) for partners in eager.values())
        if partners_first:
            problem.sharing_partners(0)
        assert problem.max_total_savings_per_plan() == expected_max
        for plan in problem.plans:
            partners = problem.sharing_partners(np.int64(plan.index))
            assert list(partners.items()) == list(eager[plan.index].items())
            assert problem.sharing_partners(plan.index) is partners

    @given(mqo_problems())
    @settings(max_examples=40, deadline=None)
    def test_plan_lookups(self, problem):
        for plan in problem.plans:
            assert problem.query_of_plan(plan.index) == plan.query_index
            assert problem.query_of_plan(np.int32(plan.index)) == plan.query_index
        for unknown in (-1, problem.num_plans, "0", 1.5):
            with pytest.raises(InvalidProblemError):
                problem.query_of_plan(unknown)
            with pytest.raises(InvalidProblemError):
                problem.sharing_partners(unknown)
        first_plans = [np.int64(query.plan_indices[0]) for query in problem.queries]
        assert problem.is_valid_selection(frozenset(first_plans))
        assert not problem.is_valid_selection(frozenset(first_plans + [np.int64(problem.num_plans)]))
        assert not problem.is_valid_selection(frozenset(first_plans[1:] + [-1]))
