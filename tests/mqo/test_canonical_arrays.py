"""The array canonical hash and exact token: pinned digests and dict oracles.

The canonical digest keys persisted result caches and shard routing, so
it must never change.  ``PINNED`` holds the digests of seeded instances
(paper classes, the classical-mix families and symmetric instances whose
canonical search branches), generated by the dictionary implementation
the array refinement replaced.  ``oracles.py`` keeps that implementation;
the property tests require equal canonical dicts and digests on random
tie-heavy problems, and exact tokens that compare equal exactly when the
JSON problem forms do.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import canonical_problem_dict as dict_canonical_problem_dict
from oracles import canonical_problem_hash as dict_canonical_problem_hash
from oracles import json_problem_token

from repro.chimera.hardware import DWAVE_2X
from repro.mqo.problem import MQOProblem
from repro.mqo.serialization import (
    canonical_problem_dict,
    canonical_problem_hash,
    exact_problem_token,
)
from repro.workloads.base import get_family
from repro.workloads.embedded import generate_embedded_testcase

PINNED = {
    "paper-2x40": "1ac54686eb56de2e7bdd6a5186bd91f07b2017c92ae1cfd3720940be5fdcb398",
    "paper-3x24": "ce36b16806bccc480b605f6a9a471b6e94b903de8209eed33685522328a9c499",
    "paper-4x16": "27517b5330bc2d993ee26e45a163231e42f37a18d5157218cc2761ae12c9494b",
    "paper-5x12": "3b670134df899fb437eeee19396e670d151bb94e0a791ed2de4629487e7a0fcd",
    "chain": "ffa2b78f4a2b28a868e53008673f84c3d2728a4fd3d791390d6716e21b1618b0",
    "zipf": "1c47f92e995836f52c3ee273fd948d83a80dcdc58ae6b4a5266e80fd55dd74fb",
    "correlated": "f1417ec6bee58c494f5a3d0217d4a4700431026e431dc37b059f2e889cfae2a0",
    "tpch_mix": "28c41829be1f7db77285182214d215cf9945d26e84a7e7c7339001314964cfa2",
    "random": "b6bf44c424b411b18ff7230c57863847b39d1edc1e2aff9f7383cd356b4e68c0",
    "star": "9b86f7e0c7f935f55103abe3be93530f4ecb4054df41b13d0194421db015c1da",
    "clique": "f534209b1f5985d100f7034e523f23616f0529d55bf05ed7485921c3ee3af5f0",
    "bipartite": "a4fc467356c728550fb772e17d59a66a4f76a53c4c2737597ba428ec18a6881a",
    "correlated-ties": "541117e76595edc8f48792802b6d201c09ef9a684e1319a4efa016985251ab63",
    "interchangeable": "f775ec3cbfd143c9a97e6671ac6e9d1fe7070c5262d5757ee64e1cf8702db991",
}
FAMILIES = {
    "chain": ({"num_queries": 24, "plans_per_query": 3, "window": 2}, 21),
    "zipf": ({"num_queries": 20, "plans_per_query": 3}, 22),
    "correlated": ({"num_queries": 20, "plans_per_query": 3}, 23),
    "tpch_mix": ({"num_queries": 22}, 24),
    "random": ({"num_queries": 20, "plans_per_query": 3}, 25),
    "star": ({}, 26),
    "clique": ({}, 27),
    "bipartite": ({}, 28),
}
PAPER = {
    "paper-2x40": (2, 40, 11),
    "paper-3x24": (3, 24, 12),
    "paper-4x16": (4, 16, 13),
    "paper-5x12": (5, 12, 14),
}


def _pinned_instance(name: str) -> MQOProblem:
    if name in PAPER:
        plans, queries, seed = PAPER[name]
        topology = DWAVE_2X.build_topology(perfect=True)
        return generate_embedded_testcase(queries, plans, topology, sharing_density=0.75, seed=seed).problem
    if name in FAMILIES:
        params, seed = FAMILIES[name]
        return get_family(name).build(seed, **params)
    if name == "correlated-ties":
        # Plans 1/2 and 3/5 are only interchangeable together: the search branches.
        savings = {
            (0, 3): 0.5, (0, 5): 0.5, (0, 6): 0.5, (1, 4): 0.25, (1, 5): 0.5, (2, 3): 0.5,
            (2, 4): 0.25, (3, 7): 0.25, (4, 6): 0.5, (4, 7): 0.5, (5, 7): 0.25,
        }
        return MQOProblem([[1, 2, 2], [2, 2, 2], [2, 1, 1]], savings)
    return MQOProblem([[2.0, 2.0, 2.0, 2.0], [1.0, 3.0]], {(0, 5): 1.0})


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_canonical_digest(name):
    problem = _pinned_instance(name)
    assert canonical_problem_hash(problem) == PINNED[name]


# 96.3181716739735 and 49292.51164774214 round differently under np.round.
COSTS = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, 2.0, 3.0, 0.1 + 0.2, 0.3, 1 / 3, 2.675, 1e-13, 96.3181716739735]
)
SAVINGS = st.sampled_from([1.0, 1.0, 2.0, 0.5, 0.1 + 0.2, 0.3, 1 / 3, 1e-13, 49292.51164774214])


@st.composite
def problems(draw):
    """Small problems with few distinct costs and savings: many ties."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    plans_per_query = [[draw(COSTS) for _ in range(size)] for size in sizes]
    query_of = [q for q, size in enumerate(sizes) for _ in range(size)]
    pairs = [
        (a, b)
        for a in range(len(query_of))
        for b in range(a + 1, len(query_of))
        if query_of[a] != query_of[b]
    ]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    return MQOProblem(plans_per_query, {pair: draw(SAVINGS) for pair in chosen})


@settings(max_examples=150, deadline=None)
@given(problem=problems())
def test_canonical_form_matches_dict_refinement(problem):
    assert canonical_problem_dict(problem) == dict_canonical_problem_dict(problem)
    assert canonical_problem_hash(problem) == dict_canonical_problem_hash(problem)


def _relabeled(problem: MQOProblem, order) -> MQOProblem:
    """``problem`` with query ``q``'s plans listed as ``order[q]`` (a permutation)."""
    index_map = {}
    costs = []
    for query, permutation in zip(problem.queries, order):
        plans = [query.plan_indices[k] for k in permutation]
        costs.append([problem.plan_cost(p) for p in plans])
        for new, old in enumerate(plans):
            index_map[old] = query.plan_indices[0] + new
    savings = {(index_map[a], index_map[b]): v for (a, b), v in problem.savings.items()}
    return MQOProblem(costs, savings, name="relabeled")


@settings(max_examples=150, deadline=None)
@given(problem=problems(), data=st.data())
def test_exact_token_equal_exactly_when_json_form_is(problem, data):
    order = [data.draw(st.permutations(range(q.num_plans))) for q in problem.queries]
    other = _relabeled(problem, order)
    assert (exact_problem_token(other) == exact_problem_token(problem)) == (
        json_problem_token(other) == json_problem_token(problem)
    )
    assert exact_problem_token(_relabeled(problem, [range(q.num_plans) for q in problem.queries])) == (
        exact_problem_token(problem)
    )


def test_exact_token_tells_signed_zero_costs_apart():
    zero, negative_zero = MQOProblem([[0.0, 1.0]]), MQOProblem([[-0.0, 1.0]])
    assert json_problem_token(zero) != json_problem_token(negative_zero)
    assert exact_problem_token(zero) != exact_problem_token(negative_zero)


def test_exact_token_ignores_savings_insertion_order():
    savings = {(0, 2): 1.0, (1, 3): 2.0, (0, 3): 0.5}
    forward = MQOProblem([[1.0, 2.0], [3.0, 4.0]], savings)
    backward = MQOProblem([[1.0, 2.0], [3.0, 4.0]], dict(reversed(list(savings.items()))))
    assert exact_problem_token(forward) == exact_problem_token(backward)
    assert exact_problem_token(forward) != exact_problem_token(MQOProblem([[1.0, 2.0], [3.0, 4.0]]))
