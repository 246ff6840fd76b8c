"""Logical mapping: MQO problem -> QUBO energy formula (paper Section 4).

For every plan ``p`` a binary variable ``X_p`` indicates whether the plan
is executed.  The energy formula is

    E = w_L * E_L + w_M * E_M + E_C + E_S

with

* ``E_L = -sum_p X_p``                      (select *at least* one plan per query),
* ``E_M = sum_q sum_{p1<p2 in P_q} X_p1 X_p2``  (select *at most* one plan per query),
* ``E_C = sum_p c_p X_p``                   (execution costs),
* ``E_S = -sum_{p1,p2} s_{p1,p2} X_p1 X_p2``    (sharing savings).

The penalty weights follow the paper's derivation:

* ``w_L > max_p c_p``  ensures selecting a plan is always better than
  selecting none (Lemma 2),
* ``w_M > w_L + max_{p1} sum_{p2} s_{p1,p2}`` ensures selecting a second
  plan for the same query never pays off (Lemma 1).

Both weights are set to their lower bound plus a small ``epsilon``
(0.25 by default) because unnecessarily large weights compress the
usable analog range of the annealer and hurt solution quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Union

import numpy as np

from repro.annealer.sampleset import SampleSet
from repro.exceptions import InvalidProblemError
from repro.mqo.problem import MQOProblem, MQOSolution
from repro.qubo.model import QUBOModel

__all__ = ["LogicalMappingConfig", "LogicalMapping", "map_mqo_to_qubo"]

#: Batch input accepted by :meth:`LogicalMapping.solutions_from_sampleset`:
#: a whole :class:`SampleSet`, a sequence of 0/1 assignment mappings, or a
#: ready ``(num_samples, num_plans)`` indicator matrix.
SampleBatch = Union[SampleSet, Sequence[Mapping[int, int]], np.ndarray]


@dataclass(frozen=True)
class LogicalMappingConfig:
    """Tuning knobs of the logical mapping.

    Attributes
    ----------
    epsilon:
        Slack added on top of the minimal admissible penalty weights
        (paper: "we typically use epsilon = 0.25").
    weight_scale:
        Extra multiplier applied to *both* penalty weights after the
        epsilon slack.  The paper uses 1.0; the penalty-scaling ablation
        benchmark sweeps this factor.
    """

    epsilon: float = 0.25
    weight_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise InvalidProblemError(f"epsilon must be positive, got {self.epsilon}")
        if self.weight_scale < 1.0:
            raise InvalidProblemError(
                f"weight_scale must be >= 1 to keep the mapping correct, "
                f"got {self.weight_scale}"
            )


class LogicalMapping:
    """The QUBO energy formula derived from one MQO problem instance.

    Instances are created through :func:`map_mqo_to_qubo` (or the
    constructor) and expose both directions of the transformation:
    :attr:`qubo` for the forward direction and
    :meth:`solution_from_assignment` for mapping QUBO variable assignments
    back to MQO solutions (``LogicalMapping^-1`` in Algorithm 1).
    """

    def __init__(self, problem: MQOProblem, config: LogicalMappingConfig | None = None) -> None:
        self.problem = problem
        self.config = config or LogicalMappingConfig()
        self._arrays = problem.arrays()
        self.weight_at_least_one = self._derive_weight_at_least_one()
        self.weight_at_most_one = self._derive_weight_at_most_one()
        self.qubo = self._build_qubo()

    # ------------------------------------------------------------------ #
    # Weight derivation
    # ------------------------------------------------------------------ #
    def _derive_weight_at_least_one(self) -> float:
        """``w_L = (max_p c_p + epsilon) * scale``."""
        return (self._arrays.max_plan_cost() + self.config.epsilon) * self.config.weight_scale

    def _derive_weight_at_most_one(self) -> float:
        """``w_M = (w_L + max_p sum s_{p,.} + epsilon) * scale``."""
        base = (
            self._derive_weight_at_least_one() / self.config.weight_scale
            + self._arrays.max_total_savings_per_plan()
            + self.config.epsilon
        )
        return base * self.config.weight_scale

    # ------------------------------------------------------------------ #
    # QUBO construction
    # ------------------------------------------------------------------ #
    def _build_qubo(self) -> QUBOModel:
        """Assemble the energy formula as whole coefficient arrays.

        Variables are the global plan indices; the linear vector is
        ``c - w_L`` in one subtraction, the quadratic terms concatenate
        the same-query penalty pairs (weight ``w_M``) with the sharing
        pairs (weight ``-s``) — no per-coefficient dict inserts.  The
        edge order (penalty pairs by query, then savings in insertion
        order) matches what the legacy per-term construction produced.
        """
        arrays = self._arrays
        linear = arrays.plan_cost - self.weight_at_least_one
        penalty_pairs = arrays.same_query_pairs
        sharing_pairs = np.column_stack((arrays.savings_p1, arrays.savings_p2))
        edges = np.concatenate((penalty_pairs, sharing_pairs), axis=0)
        weights = np.concatenate(
            (
                np.full(len(penalty_pairs), self.weight_at_most_one),
                -arrays.savings_value,
            )
        )
        return QUBOModel.from_arrays(range(arrays.num_plans), linear, edges, weights)

    # ------------------------------------------------------------------ #
    # Inverse mapping and bookkeeping
    # ------------------------------------------------------------------ #
    def solution_from_assignment(self, assignment: Mapping[int, int]) -> MQOSolution:
        """Interpret a 0/1 assignment of the QUBO variables as an MQO solution.

        Variables missing from ``assignment`` are treated as 0.  The
        returned solution may be invalid (the caller decides whether to
        repair or discard it).
        """
        selected = [p for p in range(self.problem.num_plans) if assignment.get(p, 0)]
        return self.problem.solution_from_selection(selected)

    def indicator_matrix(self, samples: SampleBatch) -> np.ndarray:
        """0/1 plan-indicator matrix ``(num_samples, num_plans)`` of ``samples``.

        Accepts a :class:`SampleSet`, a sequence of assignment mappings
        (variables missing from an assignment count as 0), or an
        already-built indicator matrix (validated and passed through).
        """
        num_plans = self.problem.num_plans
        if isinstance(samples, np.ndarray):
            matrix = np.atleast_2d(samples)
            if matrix.shape[1] != num_plans:
                raise InvalidProblemError(
                    f"indicator matrix must have {num_plans} columns, got {matrix.shape[1]}"
                )
            return matrix
        if isinstance(samples, SampleSet):
            assignments: Iterable[Mapping[int, int]] = (
                sample.assignment for sample in samples
            )
            count = len(samples)
        else:
            assignments = samples
            count = len(samples)
        matrix = np.zeros((count, num_plans), dtype=np.int8)
        for row, assignment in enumerate(assignments):
            selected = [plan for plan, bit in assignment.items() if bit]
            if selected:
                if min(selected) < 0 or max(selected) >= num_plans:
                    raise InvalidProblemError(
                        f"assignment references unknown plan indices: {selected[:5]}"
                    )
                matrix[row, selected] = 1
        return matrix

    def solutions_from_sampleset(self, samples: SampleBatch) -> List[MQOSolution]:
        """Decode a whole sampleset into MQO solutions in one batch.

        Equivalent to :meth:`solution_from_assignment` per read, but the
        objective values and validity flags of all reads are computed
        with two matrix products over the columnar problem arrays
        instead of one Python savings scan per read.  Returned solutions
        may be invalid (the caller decides whether to repair them).
        """
        matrix = self.indicator_matrix(samples)
        if not len(matrix):
            return []
        arrays = self._arrays
        costs = arrays.indicator_cost_batch(matrix)
        valid = arrays.indicator_valid_batch(matrix)
        return [
            MQOSolution.from_precomputed(
                self.problem,
                np.flatnonzero(row).tolist(),
                cost,
                is_valid,
            )
            for row, cost, is_valid in zip(matrix, costs.tolist(), valid.tolist())
        ]

    def assignment_from_solution(self, solution: MQOSolution) -> Dict[int, int]:
        """The 0/1 assignment of the QUBO variables describing ``solution``."""
        if solution.problem is not self.problem:
            raise InvalidProblemError(
                "the solution belongs to a different MQO problem instance"
            )
        return solution.plan_indicator()

    def energy_of_solution(self, solution: MQOSolution) -> float:
        """QUBO energy of the assignment representing ``solution``."""
        return self.qubo.energy(self.assignment_from_solution(solution))

    def constant_energy_shift(self) -> float:
        """Energy contributed by the penalty terms for *any valid* solution.

        For every valid solution ``E_L = -|Q|`` and ``E_M = 0``, so the
        QUBO energy equals ``C(Pe) - w_L * |Q|``.  This shift lets tests
        compare QUBO energies directly against MQO costs (Theorem 1).
        """
        return -self.weight_at_least_one * self.problem.num_queries

    def repair(self, assignment: Mapping[int, int]) -> MQOSolution:
        """Greedy repair of an invalid assignment into a valid MQO solution.

        For every query the selected plan with the largest marginal
        benefit is kept (or the cheapest plan is added if none is
        selected).  This is a convenience for comparing annealing
        read-outs to baselines on an equal, always-valid footing; the
        paper's headline numbers use unrepaired read-outs and the
        experiment runner exposes both.
        """
        plan_cost, plan_query, query_offsets = self.problem.plan_columns()
        costs = plan_cost.tolist()
        owner = plan_query.tolist()
        offsets = query_offsets.tolist()
        chosen: List[int] = []
        for query, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            plans = range(lo, hi)
            selected = [p for p in plans if assignment.get(p, 0)]
            if len(selected) == 1:
                chosen.append(selected[0])
            elif not selected:
                chosen.append(min(plans, key=costs.__getitem__))
            else:
                # Keep the selected plan with the lowest cost minus the savings
                # it can realise with plans selected for other queries.
                def marginal(p: int) -> float:
                    partners = self.problem.sharing_partners(p)
                    realizable = sum(
                        saving
                        for partner, saving in partners.items()
                        if assignment.get(partner, 0) and owner[partner] != query
                    )
                    return costs[p] - realizable

                chosen.append(min(selected, key=marginal))
        return self.problem.solution_from_selection(chosen)


def map_mqo_to_qubo(
    problem: MQOProblem, config: LogicalMappingConfig | None = None
) -> LogicalMapping:
    """Convenience wrapper building a :class:`LogicalMapping` for ``problem``."""
    return LogicalMapping(problem, config)
