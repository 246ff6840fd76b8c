"""Integer linear programming on the linearised QUBO (LIN-QUB).

The paper additionally runs the commercial solver on "the energy formula
that the quantum annealer minimizes, too", using "a linear reformulation
of the quadratic energy formula" [Dash 2013].  This module applies the
standard Glover linearisation to the logical QUBO produced by
:class:`repro.core.logical.LogicalMapping`:

* for every quadratic term ``w_ij x_i x_j`` an auxiliary binary ``y_ij``
  replaces the product,
* if ``w_ij < 0`` (the solver wants ``y_ij = 1``):  ``y_ij <= x_i`` and
  ``y_ij <= x_j``,
* if ``w_ij > 0`` (the solver wants ``y_ij = 0``):  ``y_ij >= x_i + x_j - 1``.

Because the QUBO encodes the one-plan-per-query constraint only through
penalties, the search space of this program is exponentially larger than
LIN-MQO's — which is exactly why the paper observes LIN-QUB to be the
slower of the two ILP variants.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.baselines.anytime import AnytimeSolver, SolverTrajectory, TrajectoryRecorder
from repro.baselines.greedy import GreedyConstructiveSolver
from repro.baselines.milp.branch_and_bound import (
    BranchAndBoundSolver,
    MilpResult,
    load_linprog,
)
from repro.baselines.milp.model import BinaryLinearProgram
from repro.core.logical import LogicalMapping, LogicalMappingConfig
from repro.mqo.problem import MQOProblem
from repro.qubo.model import QUBOModel
from repro.utils.rng import SeedLike

__all__ = ["IntegerProgrammingQUBOSolver", "build_qubo_program"]


def build_qubo_program(qubo: QUBOModel) -> BinaryLinearProgram:
    """Glover linearisation of a QUBO into a binary linear program."""
    program = BinaryLinearProgram()
    for var, weight in qubo.linear.items():
        program.add_variable(("x", var), weight)
    for (u, v), weight in qubo.quadratic.items():
        if weight == 0.0:
            continue
        name = ("y", u, v)
        program.add_variable(name, weight)
        if weight < 0.0:
            program.add_less_equal({name: 1.0, ("x", u): -1.0}, 0.0)
            program.add_less_equal({name: 1.0, ("x", v): -1.0}, 0.0)
        else:
            # y >= x_u + x_v - 1   <=>   -y + x_u + x_v <= 1
            program.add_less_equal({name: -1.0, ("x", u): 1.0, ("x", v): 1.0}, 1.0)
    return program


class IntegerProgrammingQUBOSolver(AnytimeSolver):
    """The LIN-QUB baseline: branch-and-bound on the linearised logical QUBO."""

    name = "LIN-QUB"

    def __init__(
        self,
        logical_config: LogicalMappingConfig | None = None,
        warm_start: bool = True,
        max_nodes: int | None = None,
    ) -> None:
        self.logical_config = logical_config or LogicalMappingConfig()
        self.warm_start = warm_start
        self.max_nodes = max_nodes
        # Load the LP solver now: solve() starts the trajectory clock
        # before it builds its BranchAndBoundSolver.
        load_linprog()

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _assignment_to_vector(
        program: BinaryLinearProgram, qubo: QUBOModel, assignment: Dict[int, int]
    ) -> np.ndarray:
        vector = np.zeros(program.num_variables)
        for var in qubo.variables:
            vector[program.index_of(("x", var))] = float(assignment.get(var, 0))
        for (u, v), weight in qubo.quadratic.items():
            if weight == 0.0:
                continue
            value = assignment.get(u, 0) * assignment.get(v, 0)
            vector[program.index_of(("y", u, v))] = float(value)
        return vector

    @staticmethod
    def _vector_to_assignment(
        program: BinaryLinearProgram, qubo: QUBOModel, vector: np.ndarray
    ) -> Dict[int, int]:
        return {
            var: int(vector[program.index_of(("x", var))] > 0.5) for var in qubo.variables
        }

    def _rounding_heuristic(
        self,
        program: BinaryLinearProgram,
        mapping: LogicalMapping,
        fractional: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Per query keep the plan with the largest fractional ``x_p``."""
        problem = mapping.problem
        selected = []
        for query in problem.queries:
            best_plan = max(
                query.plan_indices,
                key=lambda p: fractional[program.index_of(("x", p))],
            )
            selected.append(best_plan)
        assignment = {plan.index: 0 for plan in problem.plans}
        for plan_index in selected:
            assignment[plan_index] = 1
        return self._assignment_to_vector(program, mapping.qubo, assignment)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(
        self,
        problem: MQOProblem,
        time_budget_ms: float,
        seed: SeedLike = None,
    ) -> SolverTrajectory:
        """Run branch-and-bound on the linearised QUBO within the budget."""
        self._check_budget(time_budget_ms)
        recorder = TrajectoryRecorder(self.name)
        mapping = LogicalMapping(problem, self.logical_config)
        program = build_qubo_program(mapping.qubo)

        initial_vector = None
        if self.warm_start:
            warm_solution = GreedyConstructiveSolver().construct(problem)
            initial_vector = self._assignment_to_vector(
                program, mapping.qubo, warm_solution.plan_indicator()
            )

        def on_incumbent(vector: np.ndarray, _objective: float, _elapsed_ms: float) -> None:
            # Timestamps come from the recorder's clock, which started when
            # solve() was entered, so model-building time is included.
            assignment = self._vector_to_assignment(program, mapping.qubo, vector)
            solution = mapping.solution_from_assignment(assignment)
            if not solution.is_valid:
                solution = mapping.repair(assignment)
            recorder.record(solution)

        solver = BranchAndBoundSolver(max_nodes=self.max_nodes)
        result: MilpResult = solver.solve(
            program,
            time_budget_ms=time_budget_ms,
            initial_assignment=initial_vector,
            rounding_heuristic=lambda frac: self._rounding_heuristic(program, mapping, frac),
            on_incumbent=on_incumbent,
        )
        return recorder.finish(proved_optimal=result.proved_optimal)
