"""Integer linear programming directly on the MQO formulation (LIN-MQO).

The formulation follows Dokeroglu et al.: binary variables ``x_p`` select
plans and auxiliary variables ``y_{p1,p2}`` linearise the savings terms:

    minimise   sum_p c_p x_p  -  sum_{(p1,p2)} s_{p1,p2} y_{p1,p2}
    subject to sum_{p in P_q} x_p = 1                    for every query q
               y_{p1,p2} <= x_p1,   y_{p1,p2} <= x_p2    for every savings pair

Because the savings coefficients are positive and the objective is
minimised, the relaxation drives every ``y`` to ``min(x_p1, x_p2)``, so
no lower-bounding constraints are needed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.anytime import AnytimeSolver, SolverTrajectory, TrajectoryRecorder
from repro.baselines.greedy import GreedyConstructiveSolver
from repro.baselines.milp.branch_and_bound import (
    BranchAndBoundSolver,
    MilpResult,
    load_linprog,
)
from repro.baselines.milp.model import BinaryLinearProgram
from repro.mqo.problem import MQOProblem, MQOSolution
from repro.utils.rng import SeedLike

__all__ = ["IntegerProgrammingMQOSolver", "build_mqo_program"]


def build_mqo_program(problem: MQOProblem) -> Tuple[BinaryLinearProgram, Dict[int, int]]:
    """Build the LIN-MQO program; returns it plus the plan -> column map."""
    program = BinaryLinearProgram()
    plan_column: Dict[int, int] = {}
    for plan in problem.plans:
        plan_column[plan.index] = program.add_variable(("x", plan.index), plan.cost)
    for (p1, p2), saving in problem.interaction_pairs():
        name = ("y", p1, p2)
        program.add_variable(name, -saving)
        program.add_less_equal({name: 1.0, ("x", p1): -1.0}, 0.0)
        program.add_less_equal({name: 1.0, ("x", p2): -1.0}, 0.0)
    for query in problem.queries:
        program.add_equality({("x", p): 1.0 for p in query.plan_indices}, 1.0)
    return program, plan_column


class IntegerProgrammingMQOSolver(AnytimeSolver):
    """The LIN-MQO baseline: branch-and-bound on the MQO integer program."""

    name = "LIN-MQO"

    def __init__(
        self,
        warm_start: bool = True,
        max_nodes: int | None = None,
    ) -> None:
        self.warm_start = warm_start
        self.max_nodes = max_nodes
        # Load the LP solver now: solve() starts the trajectory clock
        # before it builds its BranchAndBoundSolver.
        load_linprog()

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _selection_to_vector(
        program: BinaryLinearProgram,
        problem: MQOProblem,
        solution: MQOSolution,
    ) -> np.ndarray:
        vector = np.zeros(program.num_variables)
        selected = solution.selected_plans
        for plan_index in selected:
            vector[program.index_of(("x", plan_index))] = 1.0
        for (p1, p2), _saving in problem.interaction_pairs():
            if p1 in selected and p2 in selected:
                vector[program.index_of(("y", p1, p2))] = 1.0
        return vector

    @staticmethod
    def _vector_to_solution(
        program: BinaryLinearProgram,
        problem: MQOProblem,
        vector: np.ndarray,
    ) -> MQOSolution:
        selected = [
            plan.index
            for plan in problem.plans
            if vector[program.index_of(("x", plan.index))] > 0.5
        ]
        return problem.solution_from_selection(selected)

    @staticmethod
    def _rounding_heuristic(
        program: BinaryLinearProgram,
        problem: MQOProblem,
        fractional: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Round a fractional relaxation: per query keep the largest ``x_p``."""
        selected: List[int] = []
        for query in problem.queries:
            best_plan = max(
                query.plan_indices,
                key=lambda p: fractional[program.index_of(("x", p))],
            )
            selected.append(best_plan)
        solution = problem.solution_from_selection(selected)
        return IntegerProgrammingMQOSolver._selection_to_vector(program, problem, solution)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(
        self,
        problem: MQOProblem,
        time_budget_ms: float,
        seed: SeedLike = None,
    ) -> SolverTrajectory:
        """Run branch-and-bound on the MQO integer program within the budget."""
        self._check_budget(time_budget_ms)
        recorder = TrajectoryRecorder(self.name)
        program, _plan_column = build_mqo_program(problem)

        initial_vector = None
        if self.warm_start:
            warm_solution = GreedyConstructiveSolver().construct(problem)
            initial_vector = self._selection_to_vector(program, problem, warm_solution)

        def on_incumbent(vector: np.ndarray, _objective: float, _elapsed_ms: float) -> None:
            # Timestamps come from the recorder's clock, which started when
            # solve() was entered, so model-building time is included.
            solution = self._vector_to_solution(program, problem, vector)
            recorder.record(solution)

        solver = BranchAndBoundSolver(max_nodes=self.max_nodes)
        result: MilpResult = solver.solve(
            program,
            time_budget_ms=time_budget_ms,
            initial_assignment=initial_vector,
            rounding_heuristic=lambda frac: self._rounding_heuristic(program, problem, frac),
            on_incumbent=on_incumbent,
        )
        return recorder.finish(proved_optimal=result.proved_optimal)
