"""The savings columns are the problem's storage; the dict forms are oracles.

A problem built from a savings dict (keys in either order, numpy integer
keys, or no savings at all) must have exactly the columnar view, hashes,
pair order, partner views and selection costs that the entry-by-entry
construction in ``tests/oracles.py`` gives, and a malformed dict must
fail with the oracle's error.  Both problem formats round-trip to
byte-identical arrays, and the classical solve path never builds the
dict views at all.
"""

import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.baselines.greedy import GreedyConstructiveSolver
from repro.exceptions import InvalidProblemError
from repro.mqo.problem import MQOProblem
from repro.mqo.serialization import exact_problem_token, problem_from_dict, problem_to_dict
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest
from repro.workloads.base import get_family

from tests.oracles import (
    canonical_problem_hash as oracle_canonical_hash,
    problem_arrays,
    problem_to_format1_dict,
    savings_mapping,
)
from tests.server.test_shard_transport import assert_bit_identical

_KEY_TYPES = (int, np.int64, np.int32)


def views_built(problem: MQOProblem) -> bool:
    """Whether the savings mapping or the partner views exist."""
    return problem._savings_view is not None or problem._partner_views is not None  # noqa: SLF001


@st.composite
def dict_specs(draw, max_queries=5, max_plans=4):
    """``(plans_per_query, savings)`` with keys in either order and mixed key types."""
    num_queries = draw(st.integers(min_value=1, max_value=max_queries))
    plans_per_query = [
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=1,
                max_size=max_plans,
            )
        )
        for _ in range(num_queries)
    ]
    query_of = [q for q, costs in enumerate(plans_per_query) for _ in costs]
    pairs = [
        (a, b)
        for a in range(len(query_of))
        for b in range(a + 1, len(query_of))
        if query_of[a] != query_of[b]
    ]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    key_type = draw(st.sampled_from(_KEY_TYPES))
    savings = {}
    for a, b in chosen:
        if draw(st.booleans()):
            a, b = b, a
        savings[(key_type(a), key_type(b))] = draw(
            st.floats(min_value=0.001, max_value=50.0, allow_nan=False)
        )
    return plans_per_query, savings


@st.composite
def malformed_specs(draw):
    """A dict spec with one bad entry inserted at a random position."""
    plans_per_query, savings = draw(dict_specs())
    num_plans = sum(len(costs) for costs in plans_per_query)
    items = list(savings.items())
    kinds = ["self", "unknown", "value"]
    if items:
        kinds.append("duplicate")
    if any(len(costs) > 1 for costs in plans_per_query):
        kinds.append("same-query")
    kind = draw(st.sampled_from(kinds))
    plan = draw(st.integers(min_value=0, max_value=num_plans - 1))
    value = draw(st.floats(min_value=0.001, max_value=50.0, allow_nan=False))
    if kind == "self":
        bad = ((plan, plan), value)
    elif kind == "unknown":
        stray = draw(st.sampled_from([-1 - draw(st.integers(0, 3)), num_plans + draw(st.integers(0, 3))]))
        bad = ((plan, stray) if draw(st.booleans()) else (stray, plan), value)
    elif kind == "value":
        bad_value = draw(st.sampled_from([0.0, -0.0, -1.5, math.nan]))
        other = draw(st.integers(min_value=0, max_value=num_plans - 1))
        bad = ((plan, other), bad_value)
    elif kind == "duplicate":
        (a, b), _ = draw(st.sampled_from(items))
        bad = ((b, a), value)
    else:
        query = draw(st.sampled_from([q for q, costs in enumerate(plans_per_query) if len(costs) > 1]))
        first = sum(len(costs) for costs in plans_per_query[:query])
        bad = ((first, first + len(plans_per_query[query]) - 1), value)
    items = [item for item in items if item[0] != bad[0]]  # keep the bad key unique
    position = draw(st.integers(min_value=0, max_value=len(items)))
    items.insert(position, bad)
    return plans_per_query, dict(items)


def legacy_selection_cost(problem, reference, selected):
    """The selection cost as a loop over the plans and the savings dict."""
    chosen = set(int(p) for p in selected)
    total = 0.0
    for p in chosen:
        total += problem.plan(p).cost
    for (p1, p2), value in reference.items():
        if p1 in chosen and p2 in chosen:
            total -= value
    return total


@settings(max_examples=150, deadline=None)
@given(spec=dict_specs(), data=st.data())
def test_dict_built_problem_matches_the_oracle(spec, data):
    plans_per_query, savings = spec
    reference = savings_mapping(plans_per_query, savings)
    problem = MQOProblem(plans_per_query, savings)
    twin = MQOProblem(plans_per_query, reference)

    assert_bit_identical(problem.arrays(), problem_arrays(problem, reference))
    assert problem.num_savings == len(reference)
    assert list(problem.interaction_pairs()) == list(reference.items())
    assert problem.canonical_hash() == twin.canonical_hash() == oracle_canonical_hash(twin)
    assert exact_problem_token(problem) == exact_problem_token(twin)
    for _ in range(3):
        selected = data.draw(st.sets(st.integers(min_value=0, max_value=problem.num_plans - 1)))
        assert problem.selection_cost(selected) == legacy_selection_cost(problem, reference, selected)
    assert not views_built(problem)

    assert list(problem.savings.items()) == list(reference.items())
    eager = {plan.index: {} for plan in problem.plans}
    for (p1, p2), value in reference.items():
        eager[p1][p2] = value
        eager[p2][p1] = value
    for plan in problem.plans:
        assert list(problem.sharing_partners(plan.index).items()) == list(eager[plan.index].items())
    for (p1, p2), value in reference.items():
        assert problem.saving(p2, p1) == value


@settings(max_examples=150, deadline=None)
@given(spec=malformed_specs())
def test_malformed_savings_raise_the_oracle_error(spec):
    plans_per_query, savings = spec
    with pytest.raises(InvalidProblemError) as expected:
        savings_mapping(plans_per_query, savings)
    with pytest.raises(InvalidProblemError) as built:
        MQOProblem(plans_per_query, savings)
    assert str(built.value) == str(expected.value)

    pairs = [(int(a), int(b)) for a, b in savings]
    values = [float(value) for value in savings.values()]
    format1 = {
        "plans_per_query": plans_per_query,
        "savings": [{"plans": list(pair), "value": value} for pair, value in zip(pairs, values)],
    }
    format2 = {
        "format_version": 2,
        "plans_per_query": plans_per_query,
        "savings": {
            "p1": [a for a, _ in pairs],
            "p2": [b for _, b in pairs],
            "value": values,
        },
    }
    for data in (format1, format2):
        with pytest.raises(InvalidProblemError) as parsed:
            problem_from_dict(data)
        assert str(parsed.value) == str(expected.value)


@settings(max_examples=100, deadline=None)
@given(spec=dict_specs())
def test_both_formats_round_trip_to_identical_arrays(spec):
    plans_per_query, savings = spec
    reference = savings_mapping(plans_per_query, savings)
    for order in (reference, dict(sorted(reference.items()))):
        problem = MQOProblem(plans_per_query, order, name="round-trip")
        format2 = json.loads(json.dumps(problem_to_dict(problem)))
        format1 = json.loads(json.dumps(problem_to_format1_dict(problem)))
        unversioned = {key: value for key, value in format1.items() if key != "format_version"}
        assert format2["format_version"] == 2
        rebuilt = [problem_from_dict(data) for data in (format1, format2, unversioned)]
        for other in rebuilt:
            assert_bit_identical(other.arrays(), rebuilt[0].arrays())
            assert other.name == "round-trip"
            assert other.canonical_hash() == problem.canonical_hash()
            assert exact_problem_token(other) == exact_problem_token(problem)
        if list(order) == sorted(order):
            assert_bit_identical(rebuilt[0].arrays(), problem.arrays())


def test_format2_spec_is_three_sorted_columns():
    problem = MQOProblem([[1.0, 2.0], [3.0, 4.0]], {(3, 0): 0.5, (0, 2): 1.0, (1, 3): 2.0})
    assert problem_to_dict(problem)["savings"] == {
        "p1": [0, 0, 1],
        "p2": [2, 3, 3],
        "value": [1.0, 0.5, 2.0],
    }
    empty = problem_to_dict(MQOProblem([[1.0], [2.0]]))
    assert empty["savings"] == {"p1": [], "p2": [], "value": []}
    assert problem_from_dict(empty).num_savings == 0


#: The ``classical-mix`` benchmark families and sizes.
CLASSICAL_MIX = [
    ("chain", {"num_queries": 24, "plans_per_query": 3, "window": 2}),
    ("zipf", {"num_queries": 20, "plans_per_query": 3}),
    ("correlated", {"num_queries": 20, "plans_per_query": 3}),
    ("tpch_mix", {"num_queries": 22}),
    ("random", {"num_queries": 20, "plans_per_query": 3}),
]


@pytest.mark.parametrize("family, params", CLASSICAL_MIX, ids=[name for name, _ in CLASSICAL_MIX])
def test_classical_path_never_builds_the_dict_views(family, params):
    problem = get_family(family).build(5, **params)
    parsed = problem_from_dict(json.loads(json.dumps(problem_to_dict(problem))))
    assert parsed.canonical_hash() == problem.canonical_hash()
    assert exact_problem_token(parsed) == exact_problem_token(problem)
    frontend = ServiceFrontend()
    for instance in (problem, parsed):
        greedy = GreedyConstructiveSolver().solve(instance, 1000.0, seed=0)
        result = frontend.submit(
            SolveRequest(problem=instance, solver="CLIMB", time_budget_ms=20.0, seed=3)
        )
        assert result.ok, result.error
        for selected, cost in (
            (greedy.best_solution.selected_plans, greedy.best_cost),
            (result.selected_plans, result.best_cost),
        ):
            solution = instance.solution_from_selection(selected)
            assert solution.is_valid
            assert math.isclose(solution.cost, cost, rel_tol=1e-9, abs_tol=1e-6)
        assert not views_built(instance)
