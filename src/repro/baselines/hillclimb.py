"""Iterated hill climbing (the CLIMB baseline of the paper).

"Our hill climbing algorithm iteratively generates plan selections
randomly and improves them via hill climbing until a local optimum is
reached" (Section 7.1).  A move changes the plan selected for a single
query; the best improving move is applied until no move improves, then a
fresh random restart begins.  The global best over all restarts is the
incumbent.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.anytime import AnytimeSolver, SolverTrajectory, TrajectoryRecorder
from repro.baselines.selection_state import SelectionState
from repro.exceptions import SolverError
from repro.mqo.problem import MQOProblem
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["IteratedHillClimbing"]


class IteratedHillClimbing(AnytimeSolver):
    """Random-restart steepest-descent hill climbing over plan selections."""

    name = "CLIMB"

    def __init__(self, max_restarts: int | None = None, budget_check_interval: int = 16) -> None:
        if max_restarts is not None and max_restarts <= 0:
            raise SolverError("max_restarts must be positive when given")
        if budget_check_interval <= 0:
            raise SolverError("budget_check_interval must be positive")
        self.max_restarts = max_restarts
        self.budget_check_interval = budget_check_interval

    def solve(
        self,
        problem: MQOProblem,
        time_budget_ms: float,
        seed: SeedLike = None,
    ) -> SolverTrajectory:
        """Run random-restart steepest descent until the budget expires."""
        self._check_budget(time_budget_ms)
        rng = ensure_rng(seed)
        recorder = TrajectoryRecorder(self.name)

        plans_per_query = problem.arrays().plans_per_query.tolist()
        restarts = 0
        while recorder.elapsed_ms() < time_budget_ms:
            if self.max_restarts is not None and restarts >= self.max_restarts:
                break
            restarts += 1
            choices = [int(rng.integers(0, num_plans)) for num_plans in plans_per_query]
            state = SelectionState(problem, choices)
            recorder.record(state.to_solution())
            self._climb(state, recorder, time_budget_ms)
        return recorder.finish()

    def _climb(
        self,
        state: SelectionState,
        recorder: TrajectoryRecorder,
        time_budget_ms: float,
    ) -> None:
        """Steepest-descent until a local optimum or the budget is reached.

        Every sweep evaluates all candidate moves of all queries in one
        vectorised :meth:`SelectionState.all_swap_deltas` call; plans
        are laid out in (query, choice) order, so on exact ties the
        first minimum of the delta vector is the move the per-candidate
        scan of the legacy implementation picked.  (Candidates whose
        deltas differ by less than the 1e-12 improvement threshold may
        resolve to a different — equally improving — move.)
        """
        arrays = state.problem.arrays()
        query_offsets = arrays.query_offsets
        plan_query = arrays.plan_query
        moves_since_check = 0
        while True:
            deltas = state.all_swap_deltas()
            moves_since_check += arrays.num_queries
            if moves_since_check >= self.budget_check_interval:
                moves_since_check = 0
                if recorder.elapsed_ms() >= time_budget_ms:
                    return
            best_plan = int(np.argmin(deltas))
            if not deltas[best_plan] < -1e-12:
                return
            query_index = int(plan_query[best_plan])
            state.apply_swap(query_index, best_plan - int(query_offsets[query_index]))
            recorder.record(state.to_solution())
