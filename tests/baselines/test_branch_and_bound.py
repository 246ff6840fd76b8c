"""Tests for the LP-relaxation branch-and-bound solver."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.baselines.milp.branch_and_bound import BranchAndBoundSolver
from repro.baselines.milp.model import BinaryLinearProgram
from repro.exceptions import SolverError


def knapsack_program(values, weights, capacity):
    """Maximise value under a weight budget (as a minimisation program)."""
    program = BinaryLinearProgram()
    for i, value in enumerate(values):
        program.add_variable(("item", i), -float(value))
    program.add_less_equal(
        {("item", i): float(w) for i, w in enumerate(weights)}, float(capacity)
    )
    return program


def exhaustive_knapsack_optimum(values, weights, capacity):
    best = 0.0
    n = len(values)
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        if sum(weights[i] for i in chosen) <= capacity:
            best = max(best, sum(values[i] for i in chosen))
    return -best


class TestBranchAndBound:
    def test_solves_small_knapsack_optimally(self):
        values = [10, 13, 7, 8, 4]
        weights = [3, 4, 2, 3, 1]
        capacity = 7
        program = knapsack_program(values, weights, capacity)
        result = BranchAndBoundSolver().solve(program)
        assert result.feasible
        assert result.proved_optimal
        assert result.objective == pytest.approx(
            exhaustive_knapsack_optimum(values, weights, capacity)
        )

    def test_assignment_is_binary_and_feasible(self):
        program = knapsack_program([5, 6, 3], [2, 3, 1], 4)
        result = BranchAndBoundSolver().solve(program)
        assert set(np.round(result.assignment)) <= {0.0, 1.0}
        assert program.is_feasible(result.assignment)

    def test_equality_constrained_assignment_problem(self):
        """One-of-each selection (same structure as the MQO constraints)."""
        program = BinaryLinearProgram()
        costs = {("q0", 0): 4.0, ("q0", 1): 1.0, ("q1", 0): 2.0, ("q1", 1): 3.0}
        for name, cost in costs.items():
            program.add_variable(name, cost)
        program.add_equality({("q0", 0): 1.0, ("q0", 1): 1.0}, 1.0)
        program.add_equality({("q1", 0): 1.0, ("q1", 1): 1.0}, 1.0)
        result = BranchAndBoundSolver().solve(program)
        assert result.proved_optimal
        assert result.objective == pytest.approx(3.0)
        named = program.assignment_by_name(result.assignment)
        assert named[("q0", 1)] == 1.0 and named[("q1", 0)] == 1.0

    def test_infeasible_program(self):
        program = BinaryLinearProgram()
        program.add_variable("x", 1.0)
        program.add_equality({"x": 1.0}, 0.5)  # x must be 0.5: infeasible for binary
        result = BranchAndBoundSolver().solve(program)
        assert not result.feasible or not result.proved_optimal

    def test_warm_start_incumbent_recorded(self):
        program = knapsack_program([4, 5], [1, 1], 1)
        warm = np.array([1.0, 0.0])
        result = BranchAndBoundSolver().solve(program, initial_assignment=warm)
        assert result.incumbent_times_ms
        assert result.incumbent_times_ms[0][1] == pytest.approx(-4.0)
        assert result.objective == pytest.approx(-5.0)

    def test_incumbent_callback_invoked(self):
        program = knapsack_program([3, 4, 5], [2, 3, 4], 5)
        seen = []
        BranchAndBoundSolver().solve(
            program, on_incumbent=lambda x, obj, t: seen.append(obj)
        )
        assert seen
        assert seen == sorted(seen, reverse=True)

    def test_rounding_heuristic_used(self):
        program = knapsack_program([10, 10, 10], [1, 1, 1], 2)

        def heuristic(fractional):
            rounded = np.zeros_like(fractional)
            rounded[0] = 1.0
            return rounded

        result = BranchAndBoundSolver().solve(program, rounding_heuristic=heuristic)
        assert result.proved_optimal
        assert result.objective == pytest.approx(-20.0)

    def test_node_limit_terminates_early(self):
        program = knapsack_program(list(range(1, 12)), [1] * 11, 5)
        result = BranchAndBoundSolver(max_nodes=1).solve(program)
        assert result.nodes_explored <= 1

    def test_time_budget_respected(self):
        program = knapsack_program(list(range(1, 15)), [1] * 14, 7)
        result = BranchAndBoundSolver().solve(program, time_budget_ms=1.0)
        assert result.elapsed_ms < 5_000

    def test_invalid_budget(self):
        with pytest.raises(SolverError):
            BranchAndBoundSolver().solve(BinaryLinearProgram(), time_budget_ms=0.0)

    def test_invalid_parameters(self):
        with pytest.raises(SolverError):
            BranchAndBoundSolver(integrality_tolerance=0.0)
        with pytest.raises(SolverError):
            BranchAndBoundSolver(max_nodes=0)

    def test_time_to_optimal_reported(self):
        program = knapsack_program([2, 3], [1, 1], 2)
        result = BranchAndBoundSolver().solve(program)
        assert result.proved_optimal
        assert result.time_to_optimal_ms() is not None
        assert result.time_to_optimal_ms() <= result.elapsed_ms


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


class TestDeferredScipyImport:
    def test_scipy_optimize_loads_only_for_lp_relaxations(self):
        """A fresh interpreter: the server, CLI and library imports leave
        ``scipy.optimize`` unloaded, and a LIN-MQO solve still succeeds."""
        _run_fresh(
            """
            import sys

            import repro
            import repro.cli
            import repro.server.app

            assert "scipy.optimize" not in sys.modules, "scipy.optimize loaded at import"
            from repro.mqo.generator import generate_paper_testcase
            from repro.service.frontend import ServiceFrontend
            from repro.service.jobs import SolveRequest

            request = SolveRequest(
                problem=generate_paper_testcase(4, 2, seed=1),
                solver="LIN-MQO",
                time_budget_ms=5000.0,
                seed=1,
            )
            result = ServiceFrontend().submit(request)
            assert result.ok and result.is_valid and result.proved_optimal, result.error
            assert "scipy.optimize" in sys.modules
            """
        )

    @pytest.mark.parametrize("solver", ["LIN-MQO", "LIN-QUB"])
    def test_first_solve_clock_starts_after_the_import(self, solver):
        """Building an LP-based solver loads ``scipy.optimize``, so every
        clock of a fresh process's first solve — the trajectory's, which
        times the incumbents and the budget, and branch-and-bound's —
        starts after the import and never measures it."""
        _run_fresh(
            f"""
            import sys

            from repro.mqo.generator import generate_paper_testcase
            from repro.service.registry import default_registry
            from repro.utils.stopwatch import Stopwatch

            loaded_when_clocks_started = []
            start = Stopwatch.start

            def recording_start(self):
                loaded_when_clocks_started.append("scipy.optimize" in sys.modules)
                return start(self)

            Stopwatch.start = recording_start
            problem = generate_paper_testcase(4, 2, seed=1)
            assert "scipy.optimize" not in sys.modules
            solver = default_registry().create({solver!r})
            assert "scipy.optimize" in sys.modules, "construction left it unloaded"
            trajectory = solver.solve(problem, 5000.0, seed=1)
            assert trajectory.proved_optimal
            assert len(loaded_when_clocks_started) >= 2, loaded_when_clocks_started
            assert all(loaded_when_clocks_started), loaded_when_clocks_started
            """
        )
