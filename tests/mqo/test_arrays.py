"""Equivalence of the columnar ProblemArrays core with the legacy paths.

Hypothesis property tests asserting that the array-backed objective,
swap deltas and QUBO coefficients are *exactly* equal (``==``, not
approx) to the legacy dict-based implementations on random instances,
including the savings-free and fully-dense edge cases.

Exactness is well-defined here because the strategies draw dyadic
rational costs/savings (integer multiples of 1/64 with bounded
magnitude): every value and every partial sum is exactly representable
in float64, so any bit difference between the array and dict paths
would be a real divergence, not summation-order noise.  The adjacency
is additionally laid out in savings insertion order precisely so the
segmented sums visit values in the same order as the legacy dicts.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.mqo.arrays import ProblemArrays
from repro.mqo.problem import MQOProblem

# Dyadic rationals: k / 64 with bounded k — closed under the sums the
# objective computes, so float64 arithmetic is exact in any order.
_dyadic = st.integers(min_value=0, max_value=1 << 12).map(lambda k: k / 64.0)
_dyadic_positive = st.integers(min_value=1, max_value=1 << 12).map(lambda k: k / 64.0)


@st.composite
def array_problems(draw, max_queries=6, max_plans=4):
    """Random dyadic-cost MQO problems spanning sparse to fully dense sharing."""
    num_queries = draw(st.integers(min_value=1, max_value=max_queries))
    plans_per_query = [
        draw(st.lists(_dyadic, min_size=1, max_size=max_plans)) for _ in range(num_queries)
    ]
    problem = MQOProblem(plans_per_query)
    cross_pairs = [
        (p1.index, p2.index)
        for p1 in problem.plans
        for p2 in problem.plans
        if p1.index < p2.index and p1.query_index != p2.query_index
    ]
    # density 0.0 => savings-free, 1.0 => fully dense; both must be common.
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    savings = {}
    for pair in cross_pairs:
        if density == 1.0 or (density > 0.0 and draw(st.booleans())):
            savings[pair] = draw(_dyadic_positive)
    return MQOProblem(plans_per_query, savings)


@st.composite
def problems_with_choices(draw):
    """A problem plus a batch of valid per-query choice rows."""
    problem = draw(array_problems())
    rows = draw(st.integers(min_value=1, max_value=4))
    choices = [
        [
            draw(st.integers(min_value=0, max_value=query.num_plans - 1))
            for query in problem.queries
        ]
        for _ in range(rows)
    ]
    return problem, np.asarray(choices, dtype=np.int64)


def legacy_selection_cost(problem, chosen):
    """The pre-refactor selection cost loop, verbatim."""
    chosen = set(int(p) for p in chosen)
    total = 0.0
    for p in chosen:
        total += problem.plan(p).cost
    for (p1, p2), value in problem.savings.items():
        if p1 in chosen and p2 in chosen:
            total -= value
    return total


def legacy_swap_delta(problem, selected_set, selected_plan, query_index, new_choice):
    """The pre-refactor SelectionState.swap_delta logic, verbatim."""

    def realized(plan, excluding_query):
        total = 0.0
        for partner, saving in problem.sharing_partners(plan).items():
            if partner in selected_set:
                if problem.query_of_plan(partner) == excluding_query:
                    continue
                total += saving
        return total

    query = problem.query(query_index)
    old_plan = selected_plan[query_index]
    new_plan = query.plan_indices[new_choice]
    if new_plan == old_plan:
        return 0.0
    delta = problem.plan_cost(new_plan) - problem.plan_cost(old_plan)
    delta -= realized(new_plan, excluding_query=query_index)
    delta += realized(old_plan, excluding_query=query_index)
    return delta


def legacy_qubo_terms(problem, w_l, w_m):
    """The pre-refactor per-term QUBO coefficient construction, verbatim."""
    linear = {}
    quadratic = {}
    for plan in problem.plans:
        linear[plan.index] = plan.cost - w_l
    for query in problem.queries:
        indices = query.plan_indices
        for i in range(len(indices)):
            for j in range(i + 1, len(indices)):
                quadratic[(indices[i], indices[j])] = w_m
    for (p1, p2), saving in problem.savings.items():
        quadratic[(p1, p2)] = quadratic.get((p1, p2), 0.0) - saving
    return linear, quadratic


class TestLayout:
    @given(array_problems())
    @settings(max_examples=40, deadline=None)
    def test_columns_mirror_object_model(self, problem):
        arrays = problem.arrays()
        assert isinstance(arrays, ProblemArrays)
        assert arrays.num_plans == problem.num_plans
        assert arrays.num_queries == problem.num_queries
        assert arrays.num_savings == problem.num_savings
        for plan in problem.plans:
            assert arrays.plan_cost[plan.index] == plan.cost
            assert arrays.plan_query[plan.index] == plan.query_index
        for query in problem.queries:
            lo, hi = arrays.query_offsets[query.index], arrays.query_offsets[query.index + 1]
            assert tuple(range(lo, hi)) == query.plan_indices

    @given(array_problems())
    @settings(max_examples=40, deadline=None)
    def test_adjacency_matches_partner_dicts_in_order(self, problem):
        arrays = problem.arrays()
        for plan in problem.plans:
            lo, hi = arrays.adj_indptr[plan.index], arrays.adj_indptr[plan.index + 1]
            partners = problem.sharing_partners(plan.index)
            assert arrays.adj_indices[lo:hi].tolist() == list(partners.keys())
            assert arrays.adj_values[lo:hi].tolist() == list(partners.values())

    @given(array_problems())
    @settings(max_examples=40, deadline=None)
    def test_same_query_pairs_in_legacy_insertion_order(self, problem):
        expected = [
            [i, j]
            for query in problem.queries
            for k, i in enumerate(query.plan_indices)
            for j in query.plan_indices[k + 1 :]
        ]
        assert problem.arrays().same_query_pairs.tolist() == expected

    def test_memoised_and_read_only(self, small_problem):
        arrays = small_problem.arrays()
        assert small_problem.arrays() is arrays
        with pytest.raises(ValueError):
            arrays.plan_cost[0] = 99.0


class TestObjectiveEquivalence:
    @given(problems_with_choices())
    @settings(max_examples=60, deadline=None)
    def test_selection_cost_batch_exactly_matches_legacy(self, problem_and_choices):
        problem, choices = problem_and_choices
        arrays = problem.arrays()
        batch = arrays.selection_cost_batch(choices)
        for row, cost in zip(choices, batch):
            selected = arrays.choices_to_plans(row)
            assert cost == legacy_selection_cost(problem, selected.tolist())
            assert cost == problem.selection_cost(selected.tolist())

    @given(array_problems(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_indicator_cost_and_validity_match_legacy(self, problem, data):
        arrays = problem.arrays()
        # Arbitrary subsets: empty, overfull and valid selections alike.
        indicator = np.asarray(
            [
                [data.draw(st.integers(min_value=0, max_value=1)) for _ in problem.plans]
                for _ in range(3)
            ],
            dtype=np.int8,
        )
        costs = arrays.indicator_cost_batch(indicator)
        valid = arrays.indicator_valid_batch(indicator)
        for row, cost, is_valid in zip(indicator, costs, valid):
            selected = frozenset(np.flatnonzero(row).tolist())
            assert cost == legacy_selection_cost(problem, selected)
            assert cost == problem.selection_cost(selected)
            assert bool(is_valid) == problem.is_valid_selection(selected)

    @given(array_problems())
    @settings(max_examples=40, deadline=None)
    def test_aggregates_exactly_match_problem_methods(self, problem):
        arrays = problem.arrays()
        assert arrays.max_plan_cost() == problem.max_plan_cost()
        assert arrays.max_total_savings_per_plan() == problem.max_total_savings_per_plan()


class TestSwapDeltaEquivalence:
    @given(problems_with_choices())
    @settings(max_examples=60, deadline=None)
    def test_swap_deltas_exactly_match_legacy(self, problem_and_choices):
        problem, choices = problem_and_choices
        arrays = problem.arrays()
        row = choices[0]
        selected = arrays.choices_to_plans(row)
        selected_set = set(selected.tolist())
        mask = np.zeros(arrays.num_plans, dtype=bool)
        mask[selected] = True
        all_deltas = arrays.all_swap_deltas(selected, mask)
        for query in problem.queries:
            deltas = arrays.swap_deltas(selected, mask, query.index)
            for choice in range(query.num_plans):
                expected = legacy_swap_delta(
                    problem, selected_set, selected, query.index, choice
                )
                assert deltas[choice] == expected
                assert all_deltas[query.plan_indices[choice]] == expected


class TestQUBOCoefficientEquivalence:
    @given(array_problems())
    @settings(max_examples=60, deadline=None)
    def test_coefficients_exactly_match_legacy_construction(self, problem):
        from repro.core.logical import LogicalMapping

        mapping = LogicalMapping(problem)
        linear, quadratic = legacy_qubo_terms(
            problem, mapping.weight_at_least_one, mapping.weight_at_most_one
        )
        qubo = mapping.qubo
        assert qubo.num_variables == problem.num_plans
        assert qubo.linear == linear
        assert qubo.quadratic == quadratic

    @given(array_problems())
    @settings(max_examples=40, deadline=None)
    def test_penalty_weights_exactly_match_legacy_derivation(self, problem):
        from repro.core.logical import LogicalMapping

        mapping = LogicalMapping(problem)
        epsilon = mapping.config.epsilon
        assert mapping.weight_at_least_one == problem.max_plan_cost() + epsilon
        assert mapping.weight_at_most_one == (
            mapping.weight_at_least_one + problem.max_total_savings_per_plan() + epsilon
        )
