"""JSON-friendly (de)serialization of MQO problems and solutions.

Instances are persisted as plain dictionaries so experiment suites can
save generated workloads to disk and reload them for exact reruns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.exceptions import InvalidProblemError
from repro.mqo.problem import MQOProblem, MQOSolution

__all__ = [
    "problem_to_dict",
    "problem_from_dict",
    "solution_to_dict",
    "solution_from_dict",
    "save_problem",
    "load_problem",
    "canonical_problem_dict",
    "canonical_problem_hash",
    "exact_problem_token",
]

#: Version of the problem form :func:`problem_to_dict` writes.  Format 1
#: (read, no longer written) spells each saving as its own
#: ``{"plans": [p1, p2], "value": v}`` entry.
_PROBLEM_FORMAT_VERSION = 2

#: Version stamped into solution dictionaries and the canonical form;
#: the canonical form is hashed, so changing it changes every digest.
_FORMAT_VERSION = 1


def problem_to_dict(problem: MQOProblem) -> Dict[str, Any]:
    """Convert an :class:`MQOProblem` into a JSON-serialisable dictionary.

    Format 2: the plan costs per query and the savings as three
    columns, sorted by plan pair::

        {"format_version": 2, "name": ..., "plans_per_query": [[...], ...],
         "savings": {"p1": [...], "p2": [...], "value": [...]}}

    Reads the problem's columns instead of the per-plan objects, so
    serialising large workloads (the JSONL emitters, the client) stays
    off the object model.
    """
    plan_cost, _, query_offsets = problem.plan_columns()
    p1, p2, value = problem.savings_columns()
    costs = plan_cost.tolist()
    offsets = query_offsets.tolist()
    order = np.lexsort((p2, p1))
    return {
        "format_version": _PROBLEM_FORMAT_VERSION,
        "name": problem.name,
        "plans_per_query": [costs[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])],
        "savings": {
            "p1": p1[order].tolist(),
            "p2": p2[order].tolist(),
            "value": value[order].tolist(),
        },
    }


def _format1_savings(entries: Any) -> Tuple[Any, Any, Any]:
    """Format-1 ``[{"plans": [p1, p2], "value": v}, ...]`` entries as columns."""
    if not isinstance(entries, list):
        raise InvalidProblemError("'savings' must be a list of {'plans', 'value'} entries")
    if not entries:
        return (), (), ()
    try:
        pairs = np.asarray(list(map(itemgetter("plans"), entries)))
        values = list(map(itemgetter("value"), entries))
    except (KeyError, TypeError) as exc:
        raise InvalidProblemError(
            "every savings entry must be an object with 'plans' and 'value'"
        ) from exc
    except ValueError as exc:  # ragged 'plans' lists
        raise InvalidProblemError("every savings entry must name two plans") from exc
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidProblemError("every savings entry must name two plans")
    return pairs[:, 0], pairs[:, 1], values


def _format2_savings(columns: Any) -> Tuple[Any, Any, Any]:
    """Format-2 ``{"p1": [...], "p2": [...], "value": [...]}`` columns."""
    if not isinstance(columns, dict):
        raise InvalidProblemError("'savings' must be an object with 'p1', 'p2' and 'value' lists")
    try:
        return columns["p1"], columns["p2"], columns["value"]
    except KeyError as exc:
        raise InvalidProblemError(f"missing savings column {exc}") from exc


def problem_from_dict(data: Dict[str, Any]) -> MQOProblem:
    """Rebuild an :class:`MQOProblem` from :func:`problem_to_dict` output.

    Reads format 2 and format 1 (also when ``format_version`` is
    absent); both go through :meth:`MQOProblem.from_columns`.  Malformed
    input raises :class:`~repro.exceptions.InvalidProblemError`.
    """
    if not isinstance(data, dict):
        raise InvalidProblemError(f"MQO problem data must be an object, got {type(data).__name__}")
    version = data.get("format_version", 1)
    if version not in (1, _PROBLEM_FORMAT_VERSION):
        raise InvalidProblemError(f"unsupported MQO problem format version {version}")
    try:
        plans_per_query = data["plans_per_query"]
    except KeyError as exc:
        raise InvalidProblemError(f"missing field in MQO problem data: {exc}") from exc
    if not isinstance(plans_per_query, list):
        raise InvalidProblemError("'plans_per_query' must be a list of plan-cost lists")
    savings = data.get("savings")
    if savings is None:
        p1, p2, value = (), (), ()
    elif version == 1:
        p1, p2, value = _format1_savings(savings)
    else:
        p1, p2, value = _format2_savings(savings)
    return MQOProblem.from_columns(plans_per_query, p1, p2, value, name=data.get("name", ""))


#: Backstop on the individualization search tree; only pathologically
#: symmetric instances ever branch more than a handful of times.
_MAX_CANONICAL_LEAVES = 2048


def _rounded(values: np.ndarray) -> np.ndarray:
    """Python's ``round(v, 12)`` of every value, rounding each distinct value once.

    Not ``np.round``: it scales, rounds and unscales in floating point
    and differs from ``round`` in the last digit on some values, which
    would change digests.  Values are told apart by their bits, so
    ``-0.0`` keeps its sign.
    """
    bits, inverse = np.unique(
        np.ascontiguousarray(values, dtype=np.float64).view(np.int64), return_inverse=True
    )
    rounded = [round(value, 12) for value in bits.view(np.float64).tolist()]
    return np.array(rounded, dtype=np.float64)[inverse]


def _dense_ranks(keys: np.ndarray) -> np.ndarray:
    """Rank of each row of ``keys`` among its distinct rows, in lexicographic order."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.cumsum(new) - 1
    return ranks


@dataclass(frozen=True, eq=False)
class _Structure:
    """One problem's arrays for the canonical search, rounded once.

    ``rows``/``partners`` list both directions of every saving;
    ``saving_rank`` ranks each entry's rounded saving among the distinct
    rounded savings, so ``(partner colour, saving)`` pairs order as the
    integers ``partner colour * num_saving_ranks + saving_rank``.
    """

    plan_query: np.ndarray
    cost: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    saving: np.ndarray
    rows: np.ndarray
    partners: np.ndarray
    saving_rank: np.ndarray
    num_saving_ranks: int
    row_start: np.ndarray
    width: int

    @classmethod
    def of(cls, problem: MQOProblem) -> "_Structure":
        arrays = problem.arrays()
        saving = _rounded(arrays.savings_value)
        rows = np.concatenate([arrays.savings_p1, arrays.savings_p2])
        degree = np.bincount(rows, minlength=arrays.num_plans)
        saving_rank = _dense_ranks(saving[:, None])
        return cls(
            plan_query=arrays.plan_query.astype(np.int64),
            cost=_rounded(arrays.plan_cost),
            p1=arrays.savings_p1,
            p2=arrays.savings_p2,
            saving=saving,
            rows=rows,
            partners=np.concatenate([arrays.savings_p2, arrays.savings_p1]),
            saving_rank=np.concatenate([saving_rank, saving_rank]),
            num_saving_ranks=int(saving_rank.max(initial=-1)) + 1,
            row_start=np.cumsum(degree) - degree,
            width=1 + int(degree.max(initial=0)),
        )

    def refine(self, colors: np.ndarray) -> np.ndarray:
        """Colour refinement (Weisfeiler-Leman style) to the fixpoint.

        Each plan's colour is joined with the sorted multiset of its
        ``(partner colour, saving)`` pairs and the joint signatures are
        re-ranked, until the partition stops refining.  A signature is
        one row: the colour, then the sorted pairs, padded with ``-1``
        (below every pair) so a shorter pair list sorts first, as a
        shorter tuple does.  Ranks are a pure function of problem
        structure, never of the plan enumeration.
        """
        num_colors = np.unique(colors).size
        while True:
            pairs = colors[self.partners] * self.num_saving_ranks + self.saving_rank
            order = np.lexsort((pairs, self.rows))
            rows = self.rows[order]
            signatures = np.full((colors.size, self.width), -1, dtype=np.int64)
            signatures[:, 0] = colors
            signatures[rows, 1 + np.arange(rows.size) - self.row_start[rows]] = pairs[order]
            colors = _dense_ranks(signatures)
            count = int(colors.max(initial=-1)) + 1
            if count == num_colors:
                return colors
            num_colors = count

    def first_tie_class(self, colors: np.ndarray) -> np.ndarray:
        """The lowest colour shared by several plans, as its plans in index order.

        Every colour belongs to one query (colours start from ``(query,
        cost)`` and only split), so this is the lowest-colour group of
        same-query plans sharing a colour, chosen by colour value to keep
        it invariant to the plan enumeration.
        """
        counts = np.bincount(colors)
        tied = np.flatnonzero(counts > 1)
        if not tied.size:
            return tied
        return np.flatnonzero(colors == tied[0])

    def mapping(self, colors: np.ndarray) -> np.ndarray:
        """Canonical global index of every plan: queries in order, plans by colour."""
        mapping = np.empty(colors.size, dtype=np.int64)
        mapping[np.lexsort((colors, self.plan_query))] = np.arange(colors.size)
        return mapping

    def savings_form(self, mapping: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The savings under ``mapping`` as sorted ``(low, high, saving)`` columns."""
        low = np.minimum(mapping[self.p1], mapping[self.p2])
        high = np.maximum(mapping[self.p1], mapping[self.p2])
        order = np.lexsort((self.saving, high, low))
        return low[order], high[order], self.saving[order]


def _form_less(key: np.ndarray, best: np.ndarray) -> bool:
    """Whether one leaf's ``(low, high, saving)`` rows sort before another's.

    The comparison of the two forms as tuples of triples: the first
    differing entry, row by row, decides.
    """
    differs = np.flatnonzero((key != best).reshape(-1))
    return bool(differs.size) and bool(key.reshape(-1)[differs[0]] < best.reshape(-1)[differs[0]])


def _canonical_plan_order(structure: _Structure) -> np.ndarray:
    """Map every global plan index to its canonical global index.

    Canonicalisation via individualization-refinement: colours start
    from ``(query, cost)`` and are refined to the fixpoint; while any
    two same-query plans stay tied, each member of the lowest tie class
    is individualized in turn and the search recurses, keeping the
    lexicographically smallest resulting savings structure.  Branching
    (rather than breaking ties by input order) is what makes the result
    invariant under *correlated* symmetries, where swapping one tied
    pair is only an automorphism together with swapping another.

    The search is exhaustive up to :data:`_MAX_CANONICAL_LEAVES` leaves;
    beyond that (astronomically symmetric instances) the smallest form
    found so far is used, making the hash best-effort there.
    """
    start = _dense_ranks(np.column_stack([structure.plan_query, structure.cost]))
    best: List[Tuple[np.ndarray, np.ndarray]] = []
    leaves = [0]

    def search(colors: np.ndarray) -> None:
        if leaves[0] >= _MAX_CANONICAL_LEAVES:
            return
        colors = structure.refine(colors)
        ties = structure.first_tie_class(colors)
        if not ties.size:
            leaves[0] += 1
            mapping = structure.mapping(colors)
            key = np.column_stack(structure.savings_form(mapping))
            if not best or _form_less(key, best[0][0]):
                best[:] = [(key, mapping)]
            return
        fresh_color = int(colors.max()) + 1
        for plan_index in ties.tolist():
            branched = colors.copy()
            branched[plan_index] = fresh_color
            search(branched)

    search(start)
    assert best, "canonical search always produces at least one leaf"
    return best[0][1]


def canonical_problem_dict(problem: MQOProblem) -> Dict[str, Any]:
    """A canonical, order-independent dictionary form of ``problem``.

    Unlike :func:`problem_to_dict` the result ignores the instance name
    and all labels, and renumbers plans within each query into their
    canonical order, so structurally identical problems produce identical
    dictionaries regardless of how their plans were enumerated.  Costs
    and savings are rounded to 12 decimals.
    """
    structure = _Structure.of(problem)
    mapping = _canonical_plan_order(structure)
    costs = np.empty_like(structure.cost)
    costs[mapping] = structure.cost
    offsets = problem.arrays().query_offsets.tolist()
    costs_list = costs.tolist()
    low, high, saving = structure.savings_form(mapping)
    return {
        "format_version": _FORMAT_VERSION,
        "plans_per_query": [costs_list[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])],
        "savings": [list(entry) for entry in zip(low.tolist(), high.tolist(), saving.tolist())],
    }


def canonical_problem_hash(problem: MQOProblem) -> str:
    """SHA-256 hex digest of :func:`canonical_problem_dict`.

    This is the key used by the service-layer result cache: two problems
    hash equally iff they have the same queries, plan costs and savings
    structure (names, labels and plan enumeration order do not matter).
    """
    payload = json.dumps(canonical_problem_dict(problem), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def exact_problem_token(problem: MQOProblem) -> str:
    """SHA-256 fingerprint of the problem's *concrete* plan layout.

    Unlike :func:`canonical_problem_hash` this is **not** invariant to
    the plan enumeration order: two relabel-equivalent problems whose
    plans are listed differently get different tokens.  Used wherever an
    artefact is tied to concrete plan indices — prepared pipelines, and
    the result-cache key that server coalescing shares — where serving a
    merely isomorphic instance would mis-attribute plan selections.  The
    instance name is ignored.

    Hashes the column bytes, little-endian and of fixed width: the
    counts, query offsets and plan costs, then the savings triplets
    sorted by plan pair.  Tokens compare equal exactly when the plan
    costs per query and the savings do, bit for bit, so a token is
    stable across processes and runs (cache files persist it).
    """
    arrays = problem.arrays()
    order = np.lexsort((arrays.savings_p2, arrays.savings_p1))
    digest = hashlib.sha256()
    for column in (
        np.array([arrays.num_queries, arrays.num_plans, arrays.num_savings], dtype=np.int64),
        arrays.query_offsets,
        arrays.plan_cost,
        arrays.savings_p1[order],
        arrays.savings_p2[order],
        arrays.savings_value[order],
    ):
        digest.update(np.ascontiguousarray(column, dtype=column.dtype.newbyteorder("<")).tobytes())
    return digest.hexdigest()


def solution_to_dict(solution: MQOSolution) -> Dict[str, Any]:
    """Convert a solution into a JSON-serialisable dictionary."""
    return {
        "format_version": _FORMAT_VERSION,
        "selected_plans": sorted(solution.selected_plans),
        "cost": solution.cost,
        "is_valid": solution.is_valid,
    }


def solution_from_dict(problem: MQOProblem, data: Dict[str, Any]) -> MQOSolution:
    """Rebuild a solution (against ``problem``) from its dictionary form."""
    try:
        selected = data["selected_plans"]
    except KeyError as exc:
        raise InvalidProblemError("missing field 'selected_plans' in solution data") from exc
    return problem.solution_from_selection(int(p) for p in selected)


def save_problem(problem: MQOProblem, path: str | Path) -> Path:
    """Write a problem instance to ``path`` as JSON and return the path."""
    path = Path(path)
    path.write_text(json.dumps(problem_to_dict(problem), indent=2))
    return path


def load_problem(path: str | Path) -> MQOProblem:
    """Load a problem instance previously written by :func:`save_problem`."""
    return problem_from_dict(json.loads(Path(path).read_text()))
