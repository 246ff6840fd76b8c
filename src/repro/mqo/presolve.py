"""Exact presolve: drop dominated plans and fold decided queries.

Before a problem is annealed, :func:`presolve` removes the plans that
no optimal selection needs and the queries whose plan is already known,
so fewer qubits are annealed without losing the optimum.  It works on
the problem's columns and repeats two rules until nothing changes:

* **Dominance.**  ``S(p)`` is the sum of the savings between plan ``p``
  and the live plans of the *other undecided* queries, ``c`` the
  current (folded) cost and ``p*`` the cheapest live plan of ``p``'s
  query (ties go to the lowest index).  Every live ``p != p*`` with
  ``c(p) - S(p) >= c(p*)`` is dropped: switching from ``p`` to ``p*``
  loses at most ``S(p)`` in savings, so it never raises the cost.
* **Folding.**  A query left with one live plan ``d`` is decided:
  ``c(d)`` is added to the offset, ``s(d, b)`` is subtracted from the
  cost of every live plan ``b`` of an undecided query, and a saving
  between two plans decided in the same round is subtracted from the
  offset once.

Finally each remaining query's costs are shifted so that none is
negative, and the shift is added to the offset.  The cost of a reduced
selection plus :attr:`Presolve.offset` is the cost of its lifted
selection (:meth:`Presolve.lift`) in the original problem, and the
reduced optimum plus the offset is the original optimum.  This is the
plan-level form of pruning a query-intersection graph: a decided query
is a resolved vertex whose edges are folded into its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.mqo.problem import MQOProblem
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

__all__ = ["Presolve", "presolve"]

_PLANS_DROPPED = get_registry().counter(
    "repro_presolve_plans_dropped_total", "Plans the exact presolve dropped as dominated."
)
_QUERIES_DECIDED = get_registry().counter(
    "repro_presolve_queries_decided_total", "Queries the exact presolve decided and folded."
)


@dataclass(frozen=True, eq=False)
class Presolve:
    """What the exact presolve of one problem leaves to solve.

    Attributes
    ----------
    reduced:
        The undecided queries with their kept plans, costs folded and
        shifted; ``None`` when every query is decided.  The problem
        itself when the presolve changes nothing.
    kept:
        Original plan index of each plan of ``reduced`` (ascending).
    decided:
        Original plan index of the plan of each decided query (ascending).
    offset:
        Cost of the decided part: a reduced selection costs ``offset``
        less than its lifted selection does in the original problem.
    plans_in:
        Number of plans of the original problem.
    """

    reduced: Optional[MQOProblem]
    kept: np.ndarray
    decided: np.ndarray
    offset: float
    plans_in: int

    @property
    def plans_kept(self) -> int:
        """Number of plans left to solve."""
        return len(self.kept)

    @property
    def queries_decided(self) -> int:
        """Number of queries the presolve decided."""
        return len(self.decided)

    @property
    def plans_dropped(self) -> int:
        """Number of plans dropped as dominated."""
        return self.plans_in - self.plans_kept - self.queries_decided

    def lift(self, reduced_plans: Iterable[int]) -> List[int]:
        """Original plan indices of a reduced selection plus the decided plans."""
        reduced = np.fromiter(reduced_plans, dtype=np.int64)
        return sorted(self.kept[reduced].tolist() + self.decided.tolist())


def presolve(problem: MQOProblem) -> Presolve:
    """Apply the dominance and folding rules to ``problem`` until nothing changes."""
    with get_tracer().span("mqo.presolve") as span:
        result = _presolve(problem)
        span.set_attribute("plans_in", result.plans_in)
        span.set_attribute("plans_kept", result.plans_kept)
        span.set_attribute("queries_decided", result.queries_decided)
    _PLANS_DROPPED.inc(result.plans_dropped)
    _QUERIES_DECIDED.inc(result.queries_decided)
    return result


def _presolve(problem: MQOProblem) -> Presolve:
    """The rules of the module docstring, one vectorised pass per round."""
    plan_cost, plan_query, query_offsets = problem.plan_columns()
    p1, p2, value = problem.savings_columns()
    num_plans = len(plan_cost)
    starts = query_offsets[:-1]
    index = np.arange(num_plans)
    cost = plan_cost.copy()
    live = np.ones(num_plans, dtype=bool)
    undecided = np.ones(len(starts), dtype=bool)
    offset = 0.0
    while True:
        active = live & undecided[plan_query]
        both = active[p1] & active[p2]
        savings = np.bincount(p1[both], value[both], num_plans)
        savings += np.bincount(p2[both], value[both], num_plans)
        cheapest = np.minimum.reduceat(np.where(active, cost, np.inf), starts)
        is_cheapest = active & (cost == cheapest[plan_query])
        first = np.minimum.reduceat(np.where(is_cheapest, index, num_plans), starts)
        dropped = active & (index != first[plan_query])
        dropped &= cost - savings >= cheapest[plan_query]
        live &= ~dropped
        counts = np.bincount(plan_query[live & undecided[plan_query]], minlength=len(starts))
        newly = undecided & (counts == 1)
        if not (dropped.any() or newly.any()):
            break
        decided_now = live & newly[plan_query]
        undecided &= ~newly
        offset += float(cost[decided_now].sum())
        offset -= float(value[decided_now[p1] & decided_now[p2]].sum())
        remaining = live & undecided[plan_query]
        for decided_end, other_end in ((p1, p2), (p2, p1)):
            fold = decided_now[decided_end] & remaining[other_end]
            np.subtract.at(cost, other_end[fold], value[fold])

    kept = np.flatnonzero(live & undecided[plan_query])
    decided = np.flatnonzero(live & ~undecided[plan_query])
    if len(kept) == num_plans:
        return Presolve(problem, kept, decided, 0.0, num_plans)
    if not len(kept):
        return Presolve(None, kept, decided, offset, num_plans)
    # Shift each remaining query's costs so that none is negative.
    sizes = np.bincount(plan_query[kept], minlength=len(starts))[undecided]
    first_kept = np.cumsum(sizes) - sizes
    shift = np.minimum(np.minimum.reduceat(cost[kept], first_kept), 0.0)
    offset += float(shift.sum())
    costs = (cost[kept] - np.repeat(shift, sizes)).tolist()
    local = np.full(num_plans, -1, dtype=np.int64)
    local[kept] = np.arange(len(kept))
    keep = (local[p1] >= 0) & (local[p2] >= 0)
    reduced = MQOProblem.from_columns(
        [costs[lo : lo + size] for lo, size in zip(first_kept.tolist(), sizes.tolist())],
        local[p1[keep]],
        local[p2[keep]],
        value[keep],
        name=problem.name,
    )
    return Presolve(reduced, kept, decided, offset, num_plans)
