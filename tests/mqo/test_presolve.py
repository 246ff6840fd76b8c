"""Exactness oracle of the presolve (repro.mqo.presolve).

Every instance here is small enough to enumerate all plan selections,
so the presolve is checked against the brute-force optimum of the
original problem:

* the reduced optimum plus the offset is the original optimum;
* the lifted reduced optimum is a valid selection that attains it;
* the reduced problem is a fixpoint: no plan in it is dominated (checked
  here from its columns, not with the presolve), and presolving it again
  drops and decides nothing;
* a query's cheapest plan is never dropped: for every query left
  undecided, the cheapest of its plans (costs lowered by the savings
  with the decided plans) is kept.

The instances are the paper's generator, every standard-suite family
at 5 queries or fewer and 3 plans per query (TPC-H's templates fix
2 to 4 plans) and hypothesis-drawn dyadic instances with many cost
ties.  On a subset, LIN-MQO must find the brute-force optimum and the
served QA answer must be valid and never below it.
"""

from __future__ import annotations

import itertools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.mqo.generator import generate_paper_testcase
from repro.mqo.presolve import presolve
from repro.mqo.problem import MQOProblem
from repro.obs.export import render_prometheus
from repro.obs.metrics import get_registry
from repro.obs.trace import configure_tracer, get_tracer
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest
from repro.workloads.base import get_family

#: (family, params) of every standard-suite family at <= 5 queries.
SMALL_FAMILIES = (
    ("star", {"num_queries": 5, "plans_per_query": 3}),
    ("chain", {"num_queries": 5, "plans_per_query": 3, "window": 2}),
    ("clique", {"num_queries": 5, "plans_per_query": 3}),
    ("bipartite", {"num_producers": 2, "num_consumers": 3, "plans_per_query": 3}),
    ("zipf", {"num_queries": 5, "plans_per_query": 3}),
    ("correlated", {"num_queries": 5, "plans_per_query": 3}),
    ("tpch_mix", {"num_queries": 4}),
    ("oversubscribed", {"plans_per_query": 3, "cell_rows": 1, "cell_cols": 1}),
    ("paper", {"num_queries": 5, "plans_per_query": 3}),
    ("random", {"num_queries": 5, "plans_per_query": 3}),
    ("clustered", {"num_clusters": 2, "queries_per_cluster": 2, "plans_per_query": 3}),
    ("embedded", {"num_queries": 5, "plans_per_query": 3, "cell_rows": 2, "cell_cols": 2}),
    ("warehouse", {"num_queries": 5, "plans_per_query": 3, "group_size": 3}),
)

PAPER_INSTANCES = [
    generate_paper_testcase(queries, plans, seed=seed)
    for queries in (2, 3, 4, 5)
    for plans in (2, 3)
    for seed in range(16)
]
FAMILY_INSTANCES = [
    get_family(family).build(seed, **params)
    for family, params in SMALL_FAMILIES
    for seed in range(10)
]


def _all_selections(problem: MQOProblem) -> np.ndarray:
    """Every one-plan-per-query selection as a ``(count, |Q|)`` plan matrix."""
    offsets = problem.plan_columns()[2].tolist()
    ranges = [range(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]
    return np.array(list(itertools.product(*ranges)), dtype=np.int64)


def _optimum(problem: MQOProblem):
    """The brute-force optimum and one selection attaining it."""
    selections = _all_selections(problem)
    costs = [problem.selection_cost(row) for row in selections.tolist()]
    best = int(np.argmin(costs))
    return costs[best], selections[best].tolist()


def _total_savings(problem: MQOProblem, among: np.ndarray) -> np.ndarray:
    """Per plan, the sum of its savings with the plans flagged in ``among``."""
    p1, p2, value = problem.savings_columns()
    totals = np.zeros(problem.num_plans)
    np.add.at(totals, p1, np.where(among[p2], value, 0.0))
    np.add.at(totals, p2, np.where(among[p1], value, 0.0))
    return totals


def _dominated_plans(problem: MQOProblem) -> list:
    """Plans that the dominance rule would drop from ``problem`` as it stands."""
    cost, plan_query, offsets = problem.plan_columns()
    savings = _total_savings(problem, np.ones(problem.num_plans, dtype=bool))
    dominated = []
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        cheapest = min(range(lo, hi), key=lambda p: (cost[p], p))
        dominated += [
            p for p in range(lo, hi) if p != cheapest and cost[p] - savings[p] >= cost[cheapest]
        ]
    return dominated


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


def check_exact(problem: MQOProblem) -> None:
    """Every check of the module docstring on one instance."""
    result = presolve(problem)
    optimum, _ = _optimum(problem)
    if result.reduced is None:
        decided = result.decided.tolist()
        assert problem.is_valid_selection(frozenset(decided))
        assert _close(problem.selection_cost(decided), optimum)
        return
    reduced = result.reduced
    reduced_optimum, reduced_selection = _optimum(reduced)
    assert _close(reduced_optimum + result.offset, optimum)
    lifted = result.lift(reduced_selection)
    assert problem.is_valid_selection(frozenset(lifted))
    assert _close(problem.selection_cost(lifted), optimum)

    # A fixpoint: nothing in the reduced problem is dominated or decided.
    assert not _dominated_plans(reduced)
    assert min(np.diff(reduced.plan_columns()[2]).tolist()) >= 2
    again = presolve(reduced)
    assert again.reduced is reduced and not again.queries_decided

    # The cheapest plan of each undecided query is kept.
    cost, plan_query, offsets = problem.plan_columns()
    is_decided = np.zeros(problem.num_plans, dtype=bool)
    is_decided[result.decided] = True
    folded = cost - _total_savings(problem, is_decided)
    kept_queries = set(plan_query[result.kept].tolist())
    for query in kept_queries:
        plans = range(int(offsets[query]), int(offsets[query + 1]))
        kept = [p for p in result.kept.tolist() if plan_query[p] == query]
        assert min(folded[p] for p in kept) <= min(folded[p] for p in plans) + 1e-9


@pytest.mark.parametrize("index", range(len(PAPER_INSTANCES)))
def test_paper_instances_keep_their_optimum(index):
    check_exact(PAPER_INSTANCES[index])


@pytest.mark.parametrize("index", range(len(FAMILY_INSTANCES)))
def test_family_instances_keep_their_optimum(index):
    check_exact(FAMILY_INSTANCES[index])


# Dyadic values (multiples of 1/4 from a small range) are exact in
# float64 and tie often, in costs and in the dominance comparison.
_dyadic = st.integers(min_value=0, max_value=12).map(lambda k: k / 4.0)


@st.composite
def dyadic_problems(draw):
    num_queries = draw(st.integers(min_value=1, max_value=5))
    costs = [
        draw(st.lists(_dyadic, min_size=1, max_size=3)) for _ in range(num_queries)
    ]
    problem = MQOProblem(costs)
    plan_query = problem.plan_columns()[1].tolist()
    savings = {}
    for p1 in range(problem.num_plans):
        for p2 in range(p1 + 1, problem.num_plans):
            if plan_query[p1] != plan_query[p2] and draw(st.booleans()):
                savings[(p1, p2)] = draw(st.integers(min_value=1, max_value=8)) / 4.0
    return MQOProblem(costs, savings)


@given(dyadic_problems())
@settings(max_examples=150, deadline=None)
def test_dyadic_instances_keep_their_optimum(problem):
    check_exact(problem)


def test_enough_instances_and_reductions():
    """The oracle covers at least 300 instances, and presolve does drop plans there."""
    instances = PAPER_INSTANCES + FAMILY_INSTANCES
    results = [presolve(problem) for problem in instances]
    assert len(instances) + 150 >= 300
    assert sum(result.plans_dropped for result in results) > 0
    assert sum(result.queries_decided for result in results) > 0
    assert any(result.reduced is None for result in results)
    assert any(result.reduced is not None for result in results)


class TestRules:
    def test_a_tied_plan_is_dropped(self):
        result = presolve(MQOProblem([[2.0, 2.0], [1.0, 3.0]]))
        assert result.reduced is None
        assert result.decided.tolist() == [0, 2]
        assert result.offset == 3.0

    def test_savings_protect_a_plan_until_its_partner_is_gone(self):
        # Plan 1 costs more than plan 0 but shares 2.0 with plan 3, which
        # is dominated by plan 2 (5.0 - 2.0 >= 1.0): then plan 1 falls too.
        problem = MQOProblem([[1.0, 2.0], [1.0, 5.0]], {(1, 3): 2.0})
        result = presolve(problem)
        assert result.reduced is None
        assert result.decided.tolist() == [0, 2]
        assert result.plans_dropped == 2

    def test_decided_savings_fold_into_partner_costs(self):
        # Query 0 has one plan: its saving with plan 2 makes plan 2 the
        # cheaper plan of query 1.
        problem = MQOProblem([[4.0], [1.0, 2.0], [3.0, 1.0]], {(0, 2): 3.0, (2, 3): 2.5})
        result = presolve(problem)
        optimum, _ = _optimum(problem)
        assert result.offset + (_optimum(result.reduced)[0] if result.reduced else 0.0) == optimum

    def test_same_round_saving_is_counted_once(self):
        problem = MQOProblem([[4.0], [3.0]], {(0, 1): 2.0})
        result = presolve(problem)
        assert result.reduced is None
        assert result.offset == 5.0 == problem.selection_cost([0, 1])

    def test_nothing_to_drop_returns_the_problem_itself(self):
        problem = MQOProblem([[1.0, 2.0], [1.0, 2.0]], {(1, 3): 5.0})
        result = presolve(problem)
        assert result.reduced is problem
        assert result.kept.tolist() == [0, 1, 2, 3]
        assert result.offset == 0.0

    def test_negative_folded_costs_are_shifted(self):
        # Folding plan 0's saving makes plan 1 cost -2; plan 2 stays live
        # through its saving with plan 3, so query 1 is shifted by 2.
        problem = MQOProblem([[1.0], [1.0, 2.0], [1.0, 1.0]], {(0, 1): 3.0, (2, 3): 5.0, (1, 4): 1.0})
        result = presolve(problem)
        assert result.reduced.plan_columns()[0].tolist() == [0.0, 4.0, 1.0, 1.0]
        assert result.kept.tolist() == [1, 2, 3, 4]
        assert result.offset == -1.0
        check_exact(problem)


def test_span_and_counters_report_the_reduction():
    registry = get_registry()
    assert "# HELP repro_presolve_plans_dropped_total" in render_prometheus(registry)
    assert "# HELP repro_presolve_queries_decided_total" in render_prometheus(registry)
    before = registry.counters_snapshot()
    tracer = get_tracer()
    enabled, buffer_size = tracer.enabled, tracer.buffer_size
    configure_tracer(True, buffer_size=100)
    tracer.drain()
    try:
        result = presolve(MQOProblem([[1.0, 2.0], [1.0, 5.0], [3.0, 1.0]], {(1, 3): 2.0, (0, 5): 1.0}))
        (span,) = [span for span in tracer.drain() if span.name == "mqo.presolve"]
    finally:
        configure_tracer(enabled, buffer_size=buffer_size)
    after = registry.counters_snapshot()
    assert span.attributes == {"plans_in": 6, "plans_kept": 0, "queries_decided": 3}
    assert result.plans_dropped == 3
    dropped = "repro_presolve_plans_dropped_total"
    decided = "repro_presolve_queries_decided_total"
    assert after[dropped] - before[dropped] == 3
    assert after[decided] - before[decided] == 3


#: Instances the solvers are checked on: a few of each source.
SOLVER_SUBSET = PAPER_INSTANCES[::16] + FAMILY_INSTANCES[::10]


@pytest.mark.parametrize("index", range(len(SOLVER_SUBSET)))
def test_lin_mqo_and_served_qa_agree_with_brute_force(index):
    problem = SOLVER_SUBSET[index]
    optimum, _ = _optimum(problem)
    frontend = ServiceFrontend()
    exact = frontend.submit(
        SolveRequest(problem=problem, solver="LIN-MQO", time_budget_ms=2000.0, seed=0)
    )
    assert exact.ok, exact.error
    assert _close(exact.best_cost, optimum)
    served = frontend.submit(
        SolveRequest(problem=problem, solver="QA", time_budget_ms=10.0, seed=index)
    )
    assert served.ok, served.error
    selected = frozenset(served.selected_plans)
    assert problem.is_valid_selection(selected)
    assert served.best_cost == problem.selection_cost(selected)
    assert served.best_cost >= optimum - 1e-9
