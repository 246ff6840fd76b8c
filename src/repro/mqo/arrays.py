"""Columnar, NumPy-backed view of an MQO problem (the classical hot core).

The object model of :mod:`repro.mqo.problem` is the right API for
building and inspecting instances, but its per-plan :class:`Plan`
dataclasses and per-pair savings dicts turn the classical pre/post
processing around the anneal — QUBO construction, heuristic baselines,
sampleset decoding — into Python loops.  :class:`ProblemArrays` is the
flat columnar form those hot paths consume instead.  Its plan and
savings columns are the ones the problem stores; only the adjacency is
derived:

* ``plan_cost`` / ``plan_query`` — one entry per plan (``float64`` /
  ``int32``),
* a CSR query→plan mapping (``query_offsets``): plans of query ``q``
  are the contiguous range ``query_offsets[q]:query_offsets[q + 1]``
  (plan indices are assigned densely in query order, so offsets alone
  describe the mapping),
* the savings as COO triplets (``savings_p1``/``savings_p2``/
  ``savings_value``, normalised ``p1 < p2``, in the problem's savings
  insertion order),
* a CSR plan→partner adjacency (``adj_indptr``/``adj_indices``/
  ``adj_values``).  Within one plan's row, partners appear in savings
  insertion order — exactly the iteration order of the legacy
  ``sharing_partners`` dictionaries, so segment sums over the CSR rows
  are bit-identical to the dict-based sums they replace.

All arrays are read-only; the view is memoised on the problem
(:meth:`~repro.mqo.problem.MQOProblem.arrays`), so repeated consumers
(solver restarts, batched decodes, the service cache) share one copy.

Batch evaluation API
--------------------
``selection_cost_batch`` costs a whole ``(B, |Q|)`` matrix of per-query
plan choices; ``indicator_cost_batch`` / ``indicator_valid_batch``
cost and validate arbitrary 0/1 plan indicators (annealing read-outs
may select zero or several plans per query); ``swap_deltas`` /
``all_swap_deltas`` evaluate single-query plan swaps for the local
search baselines — every candidate of one query (or of *all* queries)
in one vectorised call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, Tuple

import numpy as np

from repro.exceptions import InvalidSolutionError
from repro.utils.arrays import concat_ranges

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (problem -> arrays)
    from repro.mqo.problem import MQOProblem

__all__ = ["ProblemArrays", "build_problem_arrays", "problem_from_arrays"]


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only and return it."""
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class ProblemArrays:
    """Immutable columnar arrays describing one MQO problem.

    Built once per problem via :func:`build_problem_arrays` and cached
    by :meth:`MQOProblem.arrays`; see the module docstring for the
    layout contract.
    """

    num_queries: int
    num_plans: int
    num_savings: int
    plan_cost: np.ndarray  #: float64[|P|] — execution cost per plan.
    plan_query: np.ndarray  #: int32[|P|] — owning query per plan.
    query_offsets: np.ndarray  #: int64[|Q|+1] — CSR query→plan offsets.
    savings_p1: np.ndarray  #: int64[|S|] — smaller plan of each sharing pair.
    savings_p2: np.ndarray  #: int64[|S|] — larger plan of each sharing pair.
    savings_value: np.ndarray  #: float64[|S|] — saving per sharing pair.
    adj_indptr: np.ndarray  #: int64[|P|+1] — CSR adjacency row pointers.
    adj_indices: np.ndarray  #: int64[2|S|] — partner plan per adjacency entry.
    adj_values: np.ndarray  #: float64[2|S|] — saving per adjacency entry.

    # ------------------------------------------------------------------ #
    # Pickling (zero-copy transport)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, Any]:
        """Pickle only the declared columns, never the lazy caches.

        The server's shard transport pickles these objects with protocol
        5, where every NumPy column travels as an out-of-band buffer (no
        copy into the pickle stream).  Dropping the ``cached_property``
        memo entries keeps the wire payload down to the columns
        themselves; the receiver re-derives the caches lazily.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Restore the columns read-only (matching the frozen contract).

        Arrays rebuilt from out-of-band pickle buffers arrive writeable
        when the transport hands over ownership; re-freeze them so the
        "all arrays are read-only" invariant survives the trip.
        """
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def nbytes(self) -> int:
        """Total byte size of the columns (the zero-copy payload size)."""
        return sum(
            getattr(self, f.name).nbytes
            for f in fields(self)
            if isinstance(getattr(self, f.name), np.ndarray)
        )

    # ------------------------------------------------------------------ #
    # Derived structure (lazy, cached)
    # ------------------------------------------------------------------ #
    @cached_property
    def plans_per_query(self) -> np.ndarray:
        """int64[|Q|] — number of alternative plans per query."""
        return _frozen(np.diff(self.query_offsets))

    @cached_property
    def adj_row(self) -> np.ndarray:
        """int64[2|S|] — owning plan of each adjacency entry (row index)."""
        return _frozen(np.repeat(np.arange(self.num_plans), np.diff(self.adj_indptr)))

    @cached_property
    def savings_query_pair(self) -> Tuple[np.ndarray, np.ndarray]:
        """Owning queries of each savings pair's endpoints (two int arrays)."""
        return (
            _frozen(self.plan_query[self.savings_p1].astype(np.int64)),
            _frozen(self.plan_query[self.savings_p2].astype(np.int64)),
        )

    def query_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Aggregated query-pair edges of the savings graph.

        Returns ``(q1, q2, weight)`` with ``q1 < q2``: every pair of
        queries linked by at least one savings pair, carrying the total
        savings between their plans.  One vectorised pass (two gathers,
        one ``unique``, one ``bincount``) replaces the per-pair Python
        accumulation the networkx query graph was built with — this is
        what makes partitioning a 50k-plan instance a milliseconds
        operation.  Edges come out sorted by ``(q1, q2)``.
        """
        if self.num_savings == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=np.float64)
        qa, qb = self.savings_query_pair
        lo = np.minimum(qa, qb)
        hi = np.maximum(qa, qb)
        keys = lo * np.int64(self.num_queries) + hi
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        weight = np.bincount(inverse, weights=self.savings_value)
        return (
            (unique_keys // self.num_queries).astype(np.int64),
            (unique_keys % self.num_queries).astype(np.int64),
            weight,
        )

    def cheapest_choices(self) -> np.ndarray:
        """int64[|Q|] — per-query offset of the cheapest plan (first on ties).

        The valid fallback selection the decomposition stitcher starts
        from: picking every query's cheapest plan ignores all savings but
        is always feasible, so the stitched anytime trajectory has a
        finite incumbent before the first cluster completes.  Computed
        with one segmented ``minimum.reduceat`` pass — no Python loop
        over queries.
        """
        starts = self.query_offsets[:-1]
        minima = np.minimum.reduceat(self.plan_cost, starts)
        # First index reaching the per-query minimum: positions where the
        # plan cost equals its query's minimum, reduced segment-wise.
        is_min = self.plan_cost == minima[self.plan_query]
        first_hit = np.minimum.reduceat(
            np.where(is_min, np.arange(self.num_plans), self.num_plans), starts
        )
        return (first_hit - starts).astype(np.int64)

    @property
    def same_query_pairs(self) -> np.ndarray:
        """int64[M, 2] — all same-query plan pairs ``(i, j)`` with ``i < j``.

        Ordered by query index, then lexicographically within the query —
        the order the legacy per-pair QUBO construction inserted them in.
        Each plan ``i`` pairs with the plans after it in its query.  Built
        on each access and not kept: its one caller, the logical mapping,
        reads it once, and a memo would stay with the problem.
        """
        plans = np.arange(self.num_plans, dtype=np.int64)
        later = self.query_offsets[1:][self.plan_query] - plans - 1
        return _frozen(np.column_stack((np.repeat(plans, later), concat_ranges(plans + 1, later))))

    # ------------------------------------------------------------------ #
    # Scalar aggregates (penalty-weight derivation)
    # ------------------------------------------------------------------ #
    def max_plan_cost(self) -> float:
        """``max_p c_p`` over the whole problem."""
        return float(self.plan_cost.max())

    def total_savings_per_plan(self) -> np.ndarray:
        """float64[|P|] — ``sum_{p2} s_{p,p2}`` per plan ``p``.

        Each per-plan sum accumulates in CSR (= savings insertion)
        order, matching the legacy dict-based sums bit for bit.  The row
        of each entry is derived here rather than from the
        :attr:`adj_row` memo, which only the local search keeps.
        """
        rows = np.repeat(np.arange(self.num_plans), np.diff(self.adj_indptr))
        return np.bincount(rows, weights=self.adj_values, minlength=self.num_plans)

    def max_total_savings_per_plan(self) -> float:
        """``max_p sum_{p2} s_{p,p2}`` (0.0 for savings-free problems)."""
        if self.num_savings == 0:
            return 0.0
        return float(self.total_savings_per_plan().max())

    # ------------------------------------------------------------------ #
    # Choice-encoded selections (one plan per query)
    # ------------------------------------------------------------------ #
    def check_choices(self, choices: np.ndarray) -> np.ndarray:
        """Validate a ``(..., |Q|)`` per-query choice array.

        Returns the choices as int64; the result may share memory with
        the input (callers that mutate must copy, as
        :class:`~repro.baselines.selection_state.SelectionState` does).
        """
        choices = np.asarray(choices)
        if choices.shape[-1] != self.num_queries:
            raise InvalidSolutionError(
                f"expected {self.num_queries} choices, got {choices.shape[-1]}"
            )
        choices = choices.astype(np.int64, copy=False)
        bad = (choices < 0) | (choices >= self.plans_per_query)
        if bad.any():
            position = np.argwhere(bad)[0]
            query = int(position[-1])
            raise InvalidSolutionError(
                f"choice {int(choices[tuple(position)])} out of range for query "
                f"{query} with {int(self.plans_per_query[query])} plans"
            )
        return choices

    def choices_to_plans(self, choices: np.ndarray) -> np.ndarray:
        """Map ``(..., |Q|)`` per-query choices to global plan indices."""
        return self.query_offsets[:-1] + np.asarray(choices, dtype=np.int64)

    def selection_cost_batch(self, choices: np.ndarray, validate: bool = True) -> np.ndarray:
        """Objective ``C(Pe)`` of every row of a ``(B, |Q|)`` choice matrix.

        The whole GA population (or any batch of valid one-plan-per-query
        selections) is costed with two gathers and one matrix-vector
        product — no per-row Python work.
        """
        choices = np.atleast_2d(np.asarray(choices))
        if validate:
            choices = self.check_choices(choices)
        selected = self.query_offsets[:-1] + choices  # (B, |Q|)
        base = self.plan_cost[selected].sum(axis=1)
        if self.num_savings == 0:
            return base
        q1, q2 = self.savings_query_pair
        hit = (selected[:, q1] == self.savings_p1) & (selected[:, q2] == self.savings_p2)
        return base - hit.astype(np.float64) @ self.savings_value

    # ------------------------------------------------------------------ #
    # Indicator-encoded selections (arbitrary 0/1 plan subsets)
    # ------------------------------------------------------------------ #
    def indicator_cost_batch(self, indicators: np.ndarray) -> np.ndarray:
        """Raw objective ``sum c_p - sum s`` of ``(B, |P|)`` 0/1 indicators.

        Invalid selections (zero or several plans per query) are costed
        exactly as :meth:`MQOProblem.selection_cost` costs them — the
        ``E_C + E_S`` terms of the QUBO objective.
        """
        indicators = np.atleast_2d(np.asarray(indicators))
        if indicators.shape[1] != self.num_plans:
            raise InvalidSolutionError(
                f"indicator matrix must have {self.num_plans} columns, "
                f"got {indicators.shape[1]}"
            )
        dense = indicators.astype(np.float64, copy=False)
        base = dense @ self.plan_cost
        if self.num_savings == 0:
            return base
        hit = dense[:, self.savings_p1] * dense[:, self.savings_p2]
        return base - hit @ self.savings_value

    def indicator_valid_batch(self, indicators: np.ndarray) -> np.ndarray:
        """bool[B] — whether each indicator row selects exactly one plan per query."""
        indicators = np.atleast_2d(np.asarray(indicators))
        counts = np.add.reduceat(
            indicators.astype(np.int64, copy=False), self.query_offsets[:-1], axis=1
        )
        return (counts == 1).all(axis=1)

    # ------------------------------------------------------------------ #
    # Local-search moves
    # ------------------------------------------------------------------ #
    def realized_savings(self, selected_mask: np.ndarray, query_index: int) -> np.ndarray:
        """Savings each plan of ``query_index`` realises with the selection.

        ``selected_mask`` is a ``bool[|P|]`` indicator of the currently
        selected plans.  Savings never link plans of the same query, so
        no exclusion of the query's own selected plan is needed.  Each
        per-plan sum accumulates in CSR order (bit-identical to the
        legacy dict iteration).
        """
        lo = int(self.query_offsets[query_index])
        hi = int(self.query_offsets[query_index + 1])
        a_lo = int(self.adj_indptr[lo])
        a_hi = int(self.adj_indptr[hi])
        span = hi - lo
        if a_lo == a_hi:
            return np.zeros(span)
        partners = self.adj_indices[a_lo:a_hi]
        contrib = np.where(selected_mask[partners], self.adj_values[a_lo:a_hi], 0.0)
        segments = np.repeat(np.arange(span), np.diff(self.adj_indptr[lo : hi + 1]))
        return np.bincount(segments, weights=contrib, minlength=span)

    def swap_deltas(
        self, selected_plans: np.ndarray, selected_mask: np.ndarray, query_index: int
    ) -> np.ndarray:
        """Cost delta of switching ``query_index`` to each of its plans.

        ``selected_plans`` holds the currently selected global plan per
        query; the entry for the query's current plan is exactly 0.0.
        One call replaces the per-candidate ``swap_delta`` loop of the
        legacy :class:`~repro.baselines.selection_state.SelectionState`.
        """
        lo = int(self.query_offsets[query_index])
        hi = int(self.query_offsets[query_index + 1])
        old_plan = int(selected_plans[query_index])
        realized = self.realized_savings(selected_mask, query_index)
        deltas = (self.plan_cost[lo:hi] - self.plan_cost[old_plan]) - realized
        deltas += realized[old_plan - lo]
        deltas[old_plan - lo] = 0.0
        return deltas

    def all_swap_deltas(
        self, selected_plans: np.ndarray, selected_mask: np.ndarray
    ) -> np.ndarray:
        """float64[|P|] — swap delta for moving each plan's query onto it.

        ``deltas[p]`` is the cost change of switching plan ``p``'s query
        from its currently selected plan to ``p`` (0.0 for the selected
        plans themselves).  One call evaluates every candidate move of a
        steepest-descent sweep — the hill-climbing hot loop — with one
        gather and one segmented reduction over the savings adjacency.
        """
        contrib = np.where(selected_mask[self.adj_indices], self.adj_values, 0.0)
        realized = np.bincount(self.adj_row, weights=contrib, minlength=self.num_plans)
        old_plan = np.asarray(selected_plans, dtype=np.int64)[self.plan_query]
        deltas = (self.plan_cost - self.plan_cost[old_plan]) - realized
        deltas += realized[old_plan]
        deltas[np.asarray(selected_plans, dtype=np.int64)] = 0.0
        return deltas


def build_problem_arrays(problem: "MQOProblem") -> ProblemArrays:
    """Construct the columnar view of ``problem`` from its stored columns.

    Callers should prefer the memoised :meth:`MQOProblem.arrays`.  The
    plan and savings columns are the problem's own (shared, not copied);
    only the adjacency is derived, laid out so each plan's partners
    appear in savings insertion order, matching the ``sharing_partners``
    dicts (see the module docstring for why that ordering matters).
    """
    plan_cost, plan_query, query_offsets = problem.plan_columns()
    savings_p1, savings_p2, savings_value = problem.savings_columns()
    num_plans = len(plan_cost)
    num_savings = len(savings_value)

    # Interleave the two directed copies of each pair so that a stable
    # sort by owning plan reproduces the savings insertion order within
    # every plan's partner row.
    rows = np.column_stack((savings_p1, savings_p2)).reshape(-1)
    cols = np.column_stack((savings_p2, savings_p1)).reshape(-1)
    order = np.argsort(rows, kind="stable")
    adj_indptr = np.zeros(num_plans + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_plans), out=adj_indptr[1:])

    return ProblemArrays(
        num_queries=len(query_offsets) - 1,
        num_plans=num_plans,
        num_savings=num_savings,
        plan_cost=plan_cost,
        plan_query=plan_query,
        query_offsets=query_offsets,
        savings_p1=savings_p1,
        savings_p2=savings_p2,
        savings_value=savings_value,
        adj_indptr=_frozen(adj_indptr),
        adj_indices=_frozen(cols[order]),
        adj_values=_frozen(np.repeat(savings_value, 2)[order]),
    )


def problem_from_arrays(
    arrays: ProblemArrays,
    name: str = "",
    canonical_hash: str | None = None,
) -> "MQOProblem":
    """Rebuild an :class:`MQOProblem` from its columnar view.

    Inverse of :func:`build_problem_arrays` up to labels (which carry no
    identity: the canonical hash and the exact problem token both ignore
    them).  The savings columns become the rebuilt problem's stored
    columns and the given ``arrays`` object its memoised view, so
    consumers that received the columns over a zero-copy transport (the
    server's shard processes) keep operating on the transferred buffers
    instead of rebuilding them; an optional pre-computed
    ``canonical_hash`` is memoised the same way.
    """
    costs = arrays.plan_cost.tolist()
    offsets = arrays.query_offsets.tolist()
    # Imported here: problem imports this module's builder lazily too.
    from repro.mqo.problem import MQOProblem

    problem = MQOProblem.from_columns(
        [costs[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])],
        arrays.savings_p1,
        arrays.savings_p2,
        arrays.savings_value,
        name=name,
    )
    problem._arrays = arrays  # noqa: SLF001 — seeding the documented memo
    if canonical_hash is not None:
        problem._canonical_hash = canonical_hash  # noqa: SLF001
    return problem
