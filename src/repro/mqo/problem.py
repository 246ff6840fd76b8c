"""Core data model for multiple query optimization (paper Section 3).

An :class:`MQOProblem` is defined by

* a set ``Q`` of queries, each query ``q`` owning a non-empty set ``P_q``
  of alternative plans,
* an execution cost ``c_p >= 0`` for every plan ``p``,
* pairwise cost savings ``s_{p1,p2} > 0`` for plan pairs belonging to
  *different* queries that can share intermediate results.

A solution ``Pe`` selects exactly one plan per query; its cost is

    C(Pe) = sum_{p in Pe} c_p  -  sum_{{p1,p2} subset Pe} s_{p1,p2}.

Plans are identified by dense integer indices (0..num_plans-1) assigned
in query order, which keeps the mapping onto QUBO variables trivial.

A problem is stored as columns only: the plans as ``plan_cost``,
``plan_query`` and ``query_offsets``, the savings as ``savings_p1``,
``savings_p2`` and ``savings_value`` (normalised ``p1 < p2``, in
insertion order).  :class:`Plan` and :class:`Query` objects are built on
demand by :meth:`MQOProblem.plan`, :meth:`MQOProblem.query` and the
``plans``/``queries`` properties, never kept.  The dictionary views
(:attr:`MQOProblem.savings`, :meth:`MQOProblem.saving`,
:meth:`MQOProblem.sharing_partners`) are built from the savings columns
on first use.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidProblemError, InvalidSolutionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (arrays -> problem)
    from repro.mqo.arrays import ProblemArrays

__all__ = ["Plan", "Query", "MQOProblem", "MQOSolution"]

PlanPair = Tuple[int, int]


def _normalize_pair(p1: int, p2: int) -> PlanPair:
    """Return the pair ordered ``(small, large)``; reject self-pairs."""
    if p1 == p2:
        raise InvalidProblemError(f"a plan cannot share results with itself (plan {p1})")
    return (p1, p2) if p1 < p2 else (p2, p1)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _float_column(values: Any, what: str) -> np.ndarray:
    """``values`` as a read-only float64 array (a read-only input is kept)."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and not values.flags.writeable:
        return values
    try:
        return _read_only(np.array(values, dtype=np.float64))
    except (TypeError, ValueError) as exc:
        raise InvalidProblemError(f"{what} must be numbers") from exc


def _index_column(values: Any, what: str) -> np.ndarray:
    """``values`` as an int64 array; entries that are not integers are rejected."""
    try:
        column = np.asarray(values)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise InvalidProblemError(f"{what} must be integers") from exc
    if column.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            integral = column.astype(np.int64)
        if not np.array_equal(integral, column):
            raise InvalidProblemError(f"{what} must be integers, got {column[integral != column][0]}")
        return integral
    if column.dtype.kind not in "iu":
        raise InvalidProblemError(f"{what} must be integers")
    return column.astype(np.int64, copy=False)


def _mapping_columns(savings: Mapping[PlanPair, float] | None) -> Tuple[Any, Any, Any]:
    """A ``{(p1, p2): saving}`` mapping as ``(p1, p2, value)`` columns."""
    if not savings:
        return (), (), ()
    pairs = _index_column(list(savings.keys()), "savings plan pairs")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidProblemError("savings keys must be (plan, plan) pairs")
    return pairs[:, 0], pairs[:, 1], list(savings.values())


@dataclass(frozen=True, slots=True)
class Plan:
    """One alternative execution plan for a query.

    Attributes
    ----------
    index:
        Global plan index, unique across the whole problem.
    query_index:
        Index of the query this plan belongs to.
    cost:
        Execution cost ``c_p`` when no sharing is exploited.
    label:
        Optional human-readable name (e.g. ``"q3_plan1"``).
    """

    index: int
    query_index: int
    cost: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidProblemError(f"plan index must be non-negative, got {self.index}")
        if self.query_index < 0:
            raise InvalidProblemError(f"query index must be non-negative, got {self.query_index}")
        if not (self.cost >= 0.0) or self.cost != self.cost:  # also rejects NaN
            raise InvalidProblemError(f"plan {self.index} has invalid cost {self.cost!r}; costs must be >= 0")


@dataclass(frozen=True, slots=True)
class Query:
    """One query of the batch together with its alternative plans."""

    index: int
    plan_indices: Tuple[int, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidProblemError(f"query index must be non-negative, got {self.index}")
        if not self.plan_indices:
            raise InvalidProblemError(f"query {self.index} has no plans")
        if len(set(self.plan_indices)) != len(self.plan_indices):
            raise InvalidProblemError(f"query {self.index} lists a plan twice")

    @property
    def num_plans(self) -> int:
        """Number of alternative plans for this query."""
        return len(self.plan_indices)


class MQOProblem:
    """An immutable multiple-query-optimization problem instance.

    Parameters
    ----------
    plans_per_query:
        For each query, the sequence of plan costs.  Plan indices are
        assigned densely in iteration order.
    savings:
        Mapping from plan-index pairs to the cost saving ``s_{p1,p2} > 0``
        obtained when both plans are executed.  Pairs may be given in any
        order; they are normalised to ``(min, max)``.
    query_labels / plan_labels:
        Optional human-readable names.
    name:
        Optional instance name used in reports.

    The mapping is converted to savings columns and not kept;
    :meth:`from_columns` builds a problem from columns directly.
    """

    def __init__(
        self,
        plans_per_query: Sequence[Sequence[float]],
        savings: Mapping[PlanPair, float] | None = None,
        query_labels: Sequence[str] | None = None,
        plan_labels: Sequence[str] | None = None,
        name: str = "",
    ) -> None:
        self._setup(plans_per_query, *_mapping_columns(savings), query_labels, plan_labels, name)

    @classmethod
    def from_columns(
        cls,
        plans_per_query: Sequence[Sequence[float]],
        savings_p1: Any,
        savings_p2: Any,
        savings_value: Any,
        query_labels: Sequence[str] | None = None,
        plan_labels: Sequence[str] | None = None,
        name: str = "",
    ) -> "MQOProblem":
        """Build a problem from its savings as three equal-length columns.

        Entry ``i`` is the saving ``savings_value[i]`` between plans
        ``savings_p1[i]`` and ``savings_p2[i]`` (in either order).  The
        columns are validated in one vectorised pass; an invalid entry
        raises :class:`~repro.exceptions.InvalidProblemError`, naming the
        first offending entry.  Read-only int64/float64 inputs are stored
        as given, so columns shipped from another problem are shared.
        """
        problem = cls.__new__(cls)
        problem._setup(
            plans_per_query, savings_p1, savings_p2, savings_value, query_labels, plan_labels, name
        )
        return problem

    def _setup(
        self,
        plans_per_query: Sequence[Sequence[float]],
        savings_p1: Any,
        savings_p2: Any,
        savings_value: Any,
        query_labels: Sequence[str] | None,
        plan_labels: Sequence[str] | None,
        name: str,
    ) -> None:
        if not plans_per_query:
            raise InvalidProblemError("an MQO problem needs at least one query")
        try:
            per_query = [list(costs) for costs in plans_per_query]
        except TypeError as exc:
            raise InvalidProblemError("plans_per_query must list the plan costs of each query") from exc
        plan_cost = _float_column(list(chain.from_iterable(per_query)), "plan costs")
        if plan_cost.ndim != 1:
            raise InvalidProblemError("plan costs must be numbers")

        sizes = np.array([len(query_costs) for query_costs in per_query], dtype=np.int64)
        self.name = name
        self._plan_cost = plan_cost
        self._plan_query = _read_only(np.repeat(np.arange(len(sizes), dtype=np.int32), sizes))
        self._query_offsets = _read_only(np.concatenate(([0], np.cumsum(sizes))))
        self._check_plans(sizes)
        # Labels are kept only when given; the defaults are built on demand.
        self._query_labels = self._checked_labels(query_labels, len(sizes), "query")
        self._plan_labels = self._checked_labels(plan_labels, len(plan_cost), "plan")
        self._savings_p1, self._savings_p2, self._savings_value = self._checked_savings(
            _index_column(savings_p1, "savings plan indices"),
            _index_column(savings_p2, "savings plan indices"),
            _float_column(savings_value, "savings values"),
        )

        # The dictionary views are built on first use: the array-backed
        # solvers never need them.  They are cached read-only views, so
        # the dict-based inner loops (sharing_partners() per move) do not
        # allocate a copy per call.
        self._savings_view: Mapping[PlanPair, float] | None = None
        self._partner_views: Dict[int, Mapping[int, float]] | None = None

        self._canonical_hash: str | None = None
        self._arrays: "ProblemArrays | None" = None

    def _check_plans(self, sizes: np.ndarray) -> None:
        """Reject a query without plans and a cost that is negative or NaN.

        The first offending query or plan in query order raises, with the
        message a query-by-query construction would have raised first.
        """
        empty = np.flatnonzero(sizes == 0)
        bad_cost = np.flatnonzero(~(self._plan_cost >= 0.0))
        first_empty = int(empty[0]) if empty.size else len(sizes)
        if bad_cost.size and int(self._plan_query[bad_cost[0]]) < first_empty:
            index = int(bad_cost[0])
            cost = float(self._plan_cost[index])
            raise InvalidProblemError(f"plan {index} has invalid cost {cost!r}; costs must be >= 0")
        if empty.size:
            raise InvalidProblemError(f"query {first_empty} has no plans")

    @staticmethod
    def _checked_labels(labels: Sequence[str] | None, count: int, what: str) -> Tuple[str, ...] | None:
        """Given labels as a tuple (``None`` when not given); too few are rejected."""
        if not labels:
            return None
        labels = tuple(labels)
        if len(labels) < count:
            raise InvalidProblemError(f"expected {count} {what} labels, got {len(labels)}")
        return labels

    def _checked_savings(
        self, p1: np.ndarray, p2: np.ndarray, value: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Normalise the savings columns to ``p1 < p2`` and validate every entry.

        One vectorised pass flags every entry that is a self-pair, names
        an unknown plan, pairs two plans of one query, has a saving that
        is not positive, or repeats an earlier pair; the first flagged
        entry raises, with its first failing check in that order.
        """
        if not p1.ndim == p2.ndim == value.ndim == 1:
            raise InvalidProblemError("savings columns must be flat lists")
        if not len(p1) == len(p2) == len(value):
            raise InvalidProblemError(
                f"savings columns differ in length: p1 has {len(p1)}, p2 has {len(p2)}, "
                f"value has {len(value)}"
            )
        # Read-only columns that are already normalised (shipped arrays)
        # are shared; any other input is stored as a normalised copy.
        if p1.flags.writeable or p2.flags.writeable or not (p1 < p2).all():
            p1, p2 = _read_only(np.minimum(p1, p2)), _read_only(np.maximum(p1, p2))
        num_plans = len(self._plan_cost)
        known = (p1 >= 0) & (p2 < num_plans)
        plan_query = self._plan_query
        same_query = known & (plan_query[np.where(known, p1, 0)] == plan_query[np.where(known, p2, 0)])
        keys = np.where(known, p1 * num_plans + p2, -1 - np.arange(len(p1)))
        repeated = np.ones(len(p1), dtype=bool)
        repeated[np.unique(keys, return_index=True)[1]] = False
        bad = (p1 == p2) | ~known | same_query | ~(value > 0.0) | repeated
        if bad.any():
            entry = int(np.argmax(bad))
            pair = (int(p1[entry]), int(p2[entry]))
            if pair[0] == pair[1]:
                raise InvalidProblemError(f"a plan cannot share results with itself (plan {pair[0]})")
            for p in pair:
                if not 0 <= p < num_plans:
                    raise InvalidProblemError(f"savings entry references unknown plan {p}")
            if same_query[entry]:
                raise InvalidProblemError(
                    f"plans {pair[0]} and {pair[1]} belong to the same query and cannot share"
                )
            if not value[entry] > 0.0:
                raise InvalidProblemError(
                    f"saving for plan pair {pair} must be positive, got {float(value[entry])}"
                )
            raise InvalidProblemError(f"duplicate savings entry for plan pair {pair}")
        return p1, p2, value

    # ------------------------------------------------------------------ #
    # Structure accessors
    # ------------------------------------------------------------------ #
    @property
    def queries(self) -> Tuple[Query, ...]:
        """All queries, ordered by index (built on each access, not kept)."""
        return tuple(map(self.query, range(self.num_queries)))

    @property
    def plans(self) -> Tuple[Plan, ...]:
        """All plans, ordered by global plan index (built on each access, not kept)."""
        return tuple(map(self.plan, range(self.num_plans)))

    @property
    def num_queries(self) -> int:
        """Number of queries ``|Q|``."""
        return len(self._query_offsets) - 1

    @property
    def num_plans(self) -> int:
        """Total number of plans ``|P|``."""
        return len(self._plan_cost)

    @property
    def savings(self) -> Mapping[PlanPair, float]:
        """Read-only view of the savings map keyed by normalised plan pairs.

        Built from the savings columns on first access, in insertion
        order; the same cached view object is returned on every later
        access (the problem is immutable).  Attempts to mutate it raise
        ``TypeError``.
        """
        if self._savings_view is None:
            self._savings_view = MappingProxyType(dict(self.interaction_pairs()))
        return self._savings_view

    @property
    def num_savings(self) -> int:
        """Number of sharing (savings) entries."""
        return len(self._savings_value)

    def savings_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored savings: read-only ``(p1, p2, value)`` columns.

        ``int64`` plan indices normalised ``p1 < p2`` and the ``float64``
        saving of each pair, in insertion order.
        """
        return self._savings_p1, self._savings_p2, self._savings_value

    def plan_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(plan_cost, plan_query, query_offsets)`` columns.

        ``float64`` cost and ``int32`` owning query per plan, and the
        ``int64`` offsets of each query's plans (``|Q| + 1`` entries).
        """
        return self._plan_cost, self._plan_query, self._query_offsets

    def _plan_index(self, index: int) -> int:
        """``index`` as a Python int when it names a plan; raises otherwise."""
        index = operator.index(index)
        if not 0 <= index < len(self._plan_cost):
            raise InvalidProblemError(f"unknown plan index {index}")
        return index

    def plan(self, index: int) -> Plan:
        """The plan with global index ``index``, built from the columns (negative ones are unknown)."""
        index = self._plan_index(index)
        query = int(self._plan_query[index])
        label = (
            self._plan_labels[index]
            if self._plan_labels is not None
            else f"q{query}_p{index - int(self._query_offsets[query])}"
        )
        return Plan(index, query, float(self._plan_cost[index]), label)

    def query(self, index: int) -> Query:
        """The query with index ``index``, built from the columns (negative ones are unknown)."""
        index = operator.index(index)
        if not 0 <= index < self.num_queries:
            raise InvalidProblemError(f"unknown query index {index}")
        label = self._query_labels[index] if self._query_labels is not None else f"q{index}"
        lo, hi = self._query_offsets[index : index + 2].tolist()
        return Query(index, tuple(range(lo, hi)), label)

    def _query_index(self, plan_index: int) -> int | None:
        """The query owning ``plan_index``, or ``None`` when it is no plan."""
        try:
            index = operator.index(plan_index)
        except TypeError:
            return None
        return int(self._plan_query[index]) if 0 <= index < len(self._plan_cost) else None

    def query_of_plan(self, plan_index: int) -> int:
        """Return the index of the query owning ``plan_index``."""
        query = self._query_index(plan_index)
        if query is None:
            raise InvalidProblemError(f"unknown plan index {plan_index}")
        return query

    def plan_cost(self, plan_index: int) -> float:
        """Execution cost ``c_p`` of the given plan."""
        return float(self._plan_cost[self._plan_index(plan_index)])

    def saving(self, p1: int, p2: int) -> float:
        """Saving ``s_{p1,p2}`` for a plan pair, or 0.0 if the pair shares nothing."""
        return self.savings.get(_normalize_pair(p1, p2), 0.0)

    def sharing_partners(self, plan_index: int) -> Mapping[int, float]:
        """All plans sharing work with ``plan_index`` mapped to the saving value.

        Returns a cached read-only view (not a copy): the solvers call
        this inside their inner loops, where an ``O(degree)`` dict
        allocation per call dominated the move evaluation.
        """
        try:
            return self._partners()[plan_index]
        except KeyError:
            raise InvalidProblemError(f"unknown plan index {plan_index}") from None

    def _partners(self) -> Dict[int, Mapping[int, float]]:
        """Per plan, a read-only view of its partners (built on first use)."""
        if self._partner_views is None:
            by_plan: Dict[int, Dict[int, float]] = {p: {} for p in range(self.num_plans)}
            for (p1, p2), value in self.interaction_pairs():
                by_plan[p1][p2] = value
                by_plan[p2][p1] = value
            self._partner_views = {plan: MappingProxyType(partners) for plan, partners in by_plan.items()}
        return self._partner_views

    def arrays(self) -> "ProblemArrays":
        """The memoised columnar view of this problem.

        Built on first access and shared by every array-backed consumer
        (QUBO construction, heuristic baselines, batched decoding); see
        :class:`repro.mqo.arrays.ProblemArrays` for the layout.
        """
        if self._arrays is None:
            # Imported here: arrays imports this module's types at top level.
            from repro.mqo.arrays import build_problem_arrays

            self._arrays = build_problem_arrays(self)
        return self._arrays

    def canonical_hash(self) -> str:
        """Stable SHA-256 hex digest of the problem *structure*.

        The digest ignores the instance name and all labels and is
        invariant to the order in which plans are enumerated within each
        query, so it can key caches and deduplicate workloads.  Computed
        lazily and memoised (the problem is immutable).
        """
        if self._canonical_hash is None:
            # Imported here: serialization imports this module at top level.
            from repro.mqo.serialization import canonical_problem_hash

            self._canonical_hash = canonical_problem_hash(self)
        return self._canonical_hash

    def max_plan_cost(self) -> float:
        """``max_p c_p`` — used to derive the penalty weight ``w_L``."""
        return float(self._plan_cost.max())

    def max_total_savings_per_plan(self) -> float:
        """``max_{p1} sum_{p2} s_{p1,p2}`` — used to derive the penalty weight ``w_M``."""
        return self.arrays().max_total_savings_per_plan()

    def interaction_pairs(self) -> Iterator[Tuple[PlanPair, float]]:
        """Iterate over ``((p1, p2), saving)`` entries (normalised pairs, insertion order)."""
        return zip(
            zip(self._savings_p1.tolist(), self._savings_p2.tolist()),
            self._savings_value.tolist(),
        )

    # ------------------------------------------------------------------ #
    # Solution handling
    # ------------------------------------------------------------------ #
    def solution_from_selection(self, selected: Iterable[int]) -> "MQOSolution":
        """Build an :class:`MQOSolution` from an iterable of plan indices."""
        return MQOSolution(self, frozenset(int(p) for p in selected))

    def solution_from_choices(self, choices: Sequence[int]) -> "MQOSolution":
        """Build a solution from per-query plan *offsets*.

        ``choices[q]`` is the position of the chosen plan within query
        ``q``'s plan list (0-based).  This is the natural encoding used by
        the classical heuristics (hill climbing, genetic algorithm).
        """
        if len(choices) != self.num_queries:
            raise InvalidSolutionError(f"expected {self.num_queries} choices, got {len(choices)}")
        offsets = self._query_offsets.tolist()
        selected = []
        for query, choice in enumerate(choices):
            num_plans = offsets[query + 1] - offsets[query]
            if not 0 <= choice < num_plans:
                raise InvalidSolutionError(
                    f"choice {choice} out of range for query {query} with {num_plans} plans"
                )
            selected.append(offsets[query] + operator.index(choice))
        return MQOSolution(self, frozenset(selected))

    def _plan_array(self, selected: Iterable[int]) -> np.ndarray:
        """``selected`` as an int64 array; an unknown plan raises, naming the first."""
        plans = [operator.index(p) for p in selected]
        num_plans = len(self._plan_cost)
        try:
            array = np.array(plans, dtype=np.int64)
        except OverflowError:  # an index beyond int64 names no plan either
            array = None
        if array is None or ((array < 0) | (array >= num_plans)).any():
            unknown = next(p for p in plans if not 0 <= p < num_plans)
            raise InvalidProblemError(f"unknown plan index {unknown}")
        return array

    def is_valid_selection(self, selected: FrozenSet[int]) -> bool:
        """Whether ``selected`` picks exactly one known plan per query."""
        try:
            plans = self._plan_array(selected)
        except (TypeError, InvalidProblemError):
            return False
        if len(plans) != self.num_queries:
            return False
        counts = np.bincount(self._plan_query[plans], minlength=self.num_queries)
        return bool((counts == 1).all())

    def selection_cost(self, selected: Iterable[int]) -> float:
        """Cost ``C(Pe)`` of an arbitrary plan selection (validity not required).

        This is the raw objective ``sum c_p - sum s``; invalid selections
        (zero or multiple plans for a query) are costed exactly as the
        QUBO objective terms ``E_C + E_S`` would cost them, which is what
        the correctness proofs in Section 6 reason about.
        """
        chosen = list(set(int(p) for p in selected))
        total = 0.0
        # Costs are added one by one in set order, as they always were.
        for cost in self._plan_cost[self._plan_array(chosen)].tolist():
            total += cost
        if not self.num_savings:
            return total
        mask = np.zeros(self.num_plans, dtype=bool)
        mask[chosen] = True
        # Realised savings are subtracted one by one in insertion order,
        # so the total is the same float as a loop over the pairs.
        for value in self._savings_value[mask[self._savings_p1] & mask[self._savings_p2]].tolist():
            total -= value
        return total

    # ------------------------------------------------------------------ #
    # Dunder / reporting helpers
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<MQOProblem{label}: {self.num_queries} queries, {self.num_plans} plans, "
            f"{self.num_savings} sharing pairs>"
        )

    def describe(self) -> str:
        """A short multi-line human-readable description."""
        plans_per_query = np.diff(self._query_offsets).tolist()
        return "\n".join(
            [
                f"MQO problem {self.name or '<unnamed>'}",
                f"  queries:        {self.num_queries}",
                f"  plans:          {self.num_plans}"
                f" (per query: min={min(plans_per_query)}, max={max(plans_per_query)})",
                f"  sharing pairs:  {self.num_savings}",
                f"  max plan cost:  {self.max_plan_cost():.3f}",
            ]
        )


@dataclass(frozen=True)
class MQOSolution:
    """A plan selection for an :class:`MQOProblem`.

    The selection is stored as a frozen set of global plan indices.  The
    solution may be *invalid* (not exactly one plan per query); this is
    deliberate because annealing read-outs can produce invalid selections
    and the experiment harness needs to detect and cost them.
    """

    problem: MQOProblem
    selected_plans: FrozenSet[int]
    _cost: float = field(init=False, repr=False, default=0.0)
    _valid: bool = field(init=False, repr=False, default=False)

    def __post_init__(self) -> None:
        # Raises InvalidProblemError for unknown plans.
        self.problem._plan_array(self.selected_plans)  # noqa: SLF001 — same module
        object.__setattr__(self, "_valid", self.problem.is_valid_selection(self.selected_plans))
        object.__setattr__(self, "_cost", self.problem.selection_cost(self.selected_plans))

    @classmethod
    def from_precomputed(
        cls,
        problem: MQOProblem,
        selected_plans: Iterable[int],
        cost: float,
        is_valid: bool,
    ) -> "MQOSolution":
        """Trusted constructor skipping the per-solution cost recomputation.

        Used by the batched decode paths (sampleset decoding, the
        array-backed heuristics) that already computed cost and validity
        for a whole batch at once; ``cost`` and ``is_valid`` MUST match
        what ``__post_init__`` would derive for ``selected_plans``.
        """
        solution = object.__new__(cls)
        object.__setattr__(solution, "problem", problem)
        object.__setattr__(solution, "selected_plans", frozenset(selected_plans))
        object.__setattr__(solution, "_cost", float(cost))
        object.__setattr__(solution, "_valid", bool(is_valid))
        return solution

    @property
    def is_valid(self) -> bool:
        """Whether exactly one plan is selected per query."""
        return self._valid

    @property
    def cost(self) -> float:
        """Objective value ``C(Pe)`` of the selection."""
        return self._cost

    def require_valid(self) -> "MQOSolution":
        """Return ``self`` or raise :class:`InvalidSolutionError` if invalid."""
        if not self._valid:
            raise InvalidSolutionError(
                f"solution does not select exactly one plan per query: {sorted(self.selected_plans)}"
            )
        return self

    def choices(self) -> List[int]:
        """Per-query plan offsets (requires a valid solution)."""
        self.require_valid()
        _, plan_query, query_offsets = self.problem.plan_columns()
        plans = np.sort(np.fromiter(self.selected_plans, np.int64, len(self.selected_plans)))
        # One plan per query and plans numbered in query order: sorted
        # plans are sorted by query.
        return (plans - query_offsets[plan_query[plans]]).tolist()

    def plan_indicator(self) -> Dict[int, int]:
        """Binary indicator ``X_p`` for every plan (the logical QUBO variables)."""
        return {p: int(p in self.selected_plans) for p in range(self.problem.num_plans)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "valid" if self._valid else "INVALID"
        return f"<MQOSolution {status}, cost={self._cost:.3f}, {len(self.selected_plans)} plans selected>"
