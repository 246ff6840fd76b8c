"""Tests for the anytime-solver framework."""

import pytest

from repro.baselines.anytime import SolverTrajectory, TrajectoryRecorder
from repro.exceptions import SolverError
from repro.utils.stopwatch import Stopwatch


class TestSolverTrajectory:
    def test_empty_trajectory(self):
        trajectory = SolverTrajectory(solver_name="X")
        assert trajectory.best_cost == float("inf")
        assert trajectory.cost_at_time(1000) == float("inf")
        assert trajectory.time_to_reach(0.0) is None

    def test_cost_at_time(self):
        trajectory = SolverTrajectory(
            solver_name="X", points=[(1.0, 10.0), (5.0, 7.0), (20.0, 3.0)]
        )
        assert trajectory.cost_at_time(0.5) == float("inf")
        assert trajectory.cost_at_time(1.0) == 10.0
        assert trajectory.cost_at_time(6.0) == 7.0
        assert trajectory.cost_at_time(100.0) == 3.0
        assert trajectory.best_cost == 3.0

    def test_time_to_reach(self):
        trajectory = SolverTrajectory(
            solver_name="X", points=[(1.0, 10.0), (5.0, 7.0), (20.0, 3.0)]
        )
        assert trajectory.time_to_reach(10.0) == 1.0
        assert trajectory.time_to_reach(8.0) == 5.0
        assert trajectory.time_to_reach(3.0) == 20.0
        assert trajectory.time_to_reach(1.0) is None

    def test_sampled(self):
        trajectory = SolverTrajectory(solver_name="X", points=[(1.0, 10.0), (5.0, 7.0)])
        sampled = trajectory.sampled([0.5, 2.0, 10.0])
        assert sampled == [(0.5, float("inf")), (2.0, 10.0), (10.0, 7.0)]

    def test_envelope_merges_best_so_far(self):
        a = SolverTrajectory(solver_name="A", points=[(1.0, 10.0), (4.0, 6.0)])
        b = SolverTrajectory(solver_name="B", points=[(2.0, 8.0), (3.0, 7.0), (9.0, 1.0)])
        merged = SolverTrajectory.envelope([a, b], solver_name="M")
        assert merged.solver_name == "M"
        assert merged.points == [(1.0, 10.0), (2.0, 8.0), (3.0, 7.0), (4.0, 6.0), (9.0, 1.0)]


class TestTrajectoryRecorder:
    def test_records_only_improvements(self, small_problem):
        recorder = TrajectoryRecorder("TEST")
        good = small_problem.solution_from_choices([0, 1, 1, 0])
        worse = small_problem.solution_from_choices([1, 0, 0, 0])
        assert recorder.record(good)
        improved = recorder.record(worse) if worse.cost < good.cost else not recorder.record(worse)
        assert improved
        trajectory = recorder.finish()
        assert trajectory.best_cost == min(good.cost, worse.cost)
        assert trajectory.best_solution is not None

    def test_rejects_invalid_solutions(self, small_problem):
        recorder = TrajectoryRecorder("TEST")
        invalid = small_problem.solution_from_selection({0})
        with pytest.raises(SolverError):
            recorder.record(invalid)

    def test_explicit_timestamps_used(self, small_problem):
        recorder = TrajectoryRecorder("TEST")
        solution = small_problem.solution_from_choices([0, 0, 0, 0])
        recorder.record(solution, elapsed_ms=42.0)
        trajectory = recorder.finish()
        assert trajectory.points[0][0] == 42.0

    def test_finish_marks_optimality(self, small_problem):
        recorder = TrajectoryRecorder("TEST")
        recorder.record(small_problem.solution_from_choices([0, 0, 0, 0]))
        assert recorder.finish(proved_optimal=True).proved_optimal

    def test_monotone_costs(self, small_problem):
        recorder = TrajectoryRecorder("TEST", clock=Stopwatch().start())
        for choices in ([1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 0, 0], [1, 1, 1, 1]):
            recorder.record(small_problem.solution_from_choices(choices))
        costs = [cost for _, cost in recorder.finish().points]
        assert costs == sorted(costs, reverse=True)
