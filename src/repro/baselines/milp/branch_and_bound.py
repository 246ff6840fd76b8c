"""Branch-and-bound over LP relaxations for binary linear programs.

The solver explores a best-first search tree.  At every node the LP
relaxation (variables in ``[0, 1]`` with branching fixings applied) is
solved with ``scipy.optimize.linprog`` (HiGHS).  Nodes are pruned when
the relaxation is infeasible or its bound cannot beat the incumbent;
otherwise the most fractional variable is branched on.  A caller-supplied
rounding heuristic turns fractional relaxation solutions into feasible
incumbents early, which is what produces the anytime behaviour of the
LIN-MQO / LIN-QUB baselines in Figures 4 and 5.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.milp.model import BinaryLinearProgram
from repro.exceptions import SolverError
from repro.utils.stopwatch import Stopwatch

__all__ = ["MilpResult", "BranchAndBoundSolver", "load_linprog"]

#: Callback invoked whenever a new incumbent is found: (assignment, objective, elapsed_ms).
IncumbentCallback = Callable[[np.ndarray, float, float], None]
#: Heuristic turning a fractional relaxation solution into a feasible integer one.
RoundingHeuristic = Callable[[np.ndarray], Optional[np.ndarray]]


def load_linprog() -> Callable[..., Any]:
    """Import and return ``scipy.optimize.linprog``.

    ``scipy.optimize`` is not imported with this module: only an LP
    relaxation needs it, and it costs a process tens of megabytes and
    about a quarter of a second, so the server, its shards and the CLI
    import :mod:`repro` without it.  The LP-based solvers call this when
    they are constructed, so the import happens before any solve clock
    starts, never inside a solve's time budget or trajectory.
    """
    from scipy.optimize import linprog

    return linprog


@dataclass
class MilpResult:
    """Outcome of a branch-and-bound run."""

    assignment: Optional[np.ndarray]
    objective: float
    proved_optimal: bool
    nodes_explored: int
    lp_relaxations_solved: int
    elapsed_ms: float
    incumbent_times_ms: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        """Whether any feasible assignment was found."""
        return self.assignment is not None

    def time_to_optimal_ms(self) -> Optional[float]:
        """Time at which the final incumbent was first found (requires optimality)."""
        if not self.proved_optimal or not self.incumbent_times_ms:
            return None
        return self.incumbent_times_ms[-1][0]


@dataclass(order=True)
class _Node:
    bound: float
    sequence: int
    fixings: Dict[int, int] = field(compare=False)


class BranchAndBoundSolver:
    """Best-first branch-and-bound with LP relaxations."""

    def __init__(
        self,
        integrality_tolerance: float = 1e-6,
        gap_tolerance: float = 1e-9,
        max_nodes: int | None = None,
    ) -> None:
        if integrality_tolerance <= 0 or gap_tolerance < 0:
            raise SolverError("tolerances must be positive")
        if max_nodes is not None and max_nodes <= 0:
            raise SolverError("max_nodes must be positive when given")
        self.integrality_tolerance = integrality_tolerance
        self.gap_tolerance = gap_tolerance
        self.max_nodes = max_nodes
        self._linprog = load_linprog()

    # ------------------------------------------------------------------ #
    # LP relaxation
    # ------------------------------------------------------------------ #
    def _solve_relaxation(
        self,
        program: BinaryLinearProgram,
        fixings: Dict[int, int],
    ) -> Tuple[Optional[np.ndarray], Optional[float]]:
        c = program.objective_vector()
        a_eq, b_eq = program.equality_matrix()
        a_ub, b_ub = program.inequality_matrix()
        bounds = [(0.0, 1.0)] * program.num_variables
        for index, value in fixings.items():
            bounds[index] = (float(value), float(value))
        result = self._linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
        )
        if not result.success:
            return None, None
        return np.asarray(result.x), float(result.fun)

    # ------------------------------------------------------------------ #
    # Main search
    # ------------------------------------------------------------------ #
    def solve(
        self,
        program: BinaryLinearProgram,
        time_budget_ms: float = float("inf"),
        initial_assignment: Optional[np.ndarray] = None,
        rounding_heuristic: Optional[RoundingHeuristic] = None,
        on_incumbent: Optional[IncumbentCallback] = None,
    ) -> MilpResult:
        """Run branch-and-bound on ``program``.

        ``initial_assignment`` (if feasible) provides a warm-start
        incumbent; ``rounding_heuristic`` is applied to every fractional
        relaxation solution to generate further incumbents.
        """
        if time_budget_ms <= 0:
            raise SolverError(f"time_budget_ms must be positive, got {time_budget_ms}")
        stopwatch = Stopwatch().start()
        counter = itertools.count()
        incumbent: Optional[np.ndarray] = None
        incumbent_objective = float("inf")
        incumbent_times: List[Tuple[float, float]] = []
        nodes_explored = 0
        relaxations_solved = 0

        def accept_incumbent(candidate: np.ndarray, objective: float) -> None:
            nonlocal incumbent, incumbent_objective
            if objective < incumbent_objective - self.gap_tolerance:
                incumbent = candidate.copy()
                incumbent_objective = objective
                elapsed = stopwatch.elapsed_ms()
                incumbent_times.append((elapsed, objective))
                if on_incumbent is not None:
                    on_incumbent(incumbent, objective, elapsed)

        if initial_assignment is not None:
            candidate = np.asarray(initial_assignment, dtype=float)
            if program.is_feasible(candidate):
                accept_incumbent(candidate, program.objective_value(candidate))

        root_solution, root_bound = self._solve_relaxation(program, {})
        relaxations_solved += 1
        if root_solution is None:
            return MilpResult(
                assignment=incumbent,
                objective=incumbent_objective,
                proved_optimal=incumbent is not None,
                nodes_explored=0,
                lp_relaxations_solved=relaxations_solved,
                elapsed_ms=stopwatch.elapsed_ms(),
                incumbent_times_ms=incumbent_times,
            )

        heap: List[_Node] = [_Node(bound=root_bound, sequence=next(counter), fixings={})]
        proved_optimal = False

        while heap:
            if stopwatch.elapsed_ms() >= time_budget_ms:
                break
            if self.max_nodes is not None and nodes_explored >= self.max_nodes:
                break
            node = heapq.heappop(heap)
            if node.bound >= incumbent_objective - self.gap_tolerance:
                # Best-first order: every remaining node is at least as bad.
                proved_optimal = incumbent is not None
                break
            solution, bound = self._solve_relaxation(program, node.fixings)
            relaxations_solved += 1
            nodes_explored += 1
            if solution is None or bound is None:
                continue
            if bound >= incumbent_objective - self.gap_tolerance:
                continue

            fractional = self._most_fractional_variable(solution, node.fixings)
            if fractional is None:
                accept_incumbent(np.round(solution), bound)
                continue

            if rounding_heuristic is not None:
                rounded = rounding_heuristic(solution)
                if rounded is not None:
                    rounded = np.asarray(rounded, dtype=float)
                    if program.is_feasible(rounded):
                        accept_incumbent(rounded, program.objective_value(rounded))

            for value in (1, 0):
                child_fixings = dict(node.fixings)
                child_fixings[fractional] = value
                heapq.heappush(
                    heap,
                    _Node(bound=bound, sequence=next(counter), fixings=child_fixings),
                )
        else:
            # Heap exhausted: the search tree is fully explored.
            proved_optimal = incumbent is not None

        return MilpResult(
            assignment=incumbent,
            objective=incumbent_objective,
            proved_optimal=proved_optimal,
            nodes_explored=nodes_explored,
            lp_relaxations_solved=relaxations_solved,
            elapsed_ms=stopwatch.elapsed_ms(),
            incumbent_times_ms=incumbent_times,
        )

    def _most_fractional_variable(
        self, solution: np.ndarray, fixings: Dict[int, int]
    ) -> Optional[int]:
        """Index of the variable whose value is closest to 0.5 (None if integral)."""
        distances = np.abs(solution - 0.5)
        order = np.argsort(distances)
        for index in order:
            index = int(index)
            if index in fixings:
                continue
            if distances[index] <= 0.5 - self.integrality_tolerance:
                return index
            break
        return None
