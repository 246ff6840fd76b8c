"""Portfolio racing must survive members that raise mid-race.

A portfolio's whole point is robustness: one crashing solver must not
take the race down.  These tests register scripted solvers — one that
records an improvement and then explodes, plus deterministic recorders
of different final quality — and assert the scheduler still returns the
best *surviving* member's result in both racing modes, reports the
failure in ``errors``, and that the service frontend keeps working on
top of such a line-up.
"""

from itertools import product

import pytest

from repro.baselines.anytime import AnytimeSolver, TrajectoryRecorder
from repro.exceptions import SolverError
from repro.mqo.problem import MQOProblem, MQOSolution
from repro.service.batch import execute_request
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest
from repro.service.portfolio import PortfolioScheduler
from repro.service.registry import SolverRegistry


def _problem() -> MQOProblem:
    """The paper's worked example (optimum: plans {1, 2}, cost 2)."""
    return MQOProblem(
        plans_per_query=[[2.0, 4.0], [3.0, 1.0]],
        savings={(1, 2): 5.0},
        name="portfolio-errors",
    )


def _solutions_worst_to_best(problem: MQOProblem):
    """Every valid selection, ordered by strictly decreasing cost."""
    combos = product(*[query.plan_indices for query in problem.queries])
    solutions = [
        MQOSolution(problem=problem, selected_plans=frozenset(combo)) for combo in combos
    ]
    solutions.sort(key=lambda solution: -solution.cost)
    unique = []
    for solution in solutions:
        if not unique or solution.cost < unique[-1].cost - 1e-12:
            unique.append(solution)
    return unique


class ExplodingSolver(AnytimeSolver):
    """Records one improvement, then raises mid-race."""

    name = "BOOM"

    def solve(self, problem, time_budget_ms, seed=None):
        """Fail after doing some work (the partial work must be discarded)."""
        recorder = TrajectoryRecorder(self.name)
        recorder.record(_solutions_worst_to_best(problem)[0])
        raise SolverError("BOOM lost its marbles mid-race")


class RecordingSolver(AnytimeSolver):
    """Deterministically walks the solution ranking up to a cutoff."""

    name = "GOOD"

    def __init__(self, name="GOOD", skip_last=0):
        self.name = name
        self.skip_last = skip_last

    def solve(self, problem, time_budget_ms, seed=None):
        """Record the ranking (optionally stopping short of the optimum)."""
        recorder = TrajectoryRecorder(self.name)
        ranking = _solutions_worst_to_best(problem)
        if self.skip_last:
            ranking = ranking[: -self.skip_last]
        for solution in ranking:
            recorder.record(solution)
        return recorder.finish()


@pytest.fixture()
def registry() -> SolverRegistry:
    """MEDIOCRE (registered first), BOOM (raises), GOOD (reaches optimum)."""
    reg = SolverRegistry()
    reg.register("MEDIOCRE", lambda: RecordingSolver(name="MEDIOCRE", skip_last=1))
    reg.register("BOOM", ExplodingSolver)
    reg.register("GOOD", lambda: RecordingSolver(name="GOOD"))
    return reg


class TestRaceSurvivesFailures:
    def test_best_surviving_member_wins(self, registry):
        scheduler = PortfolioScheduler(registry=registry)
        outcome = scheduler.solve(_problem(), time_budget_ms=200.0, seed=1)
        assert outcome.winner == "GOOD"
        assert outcome.best_cost == pytest.approx(2.0)
        assert outcome.best_solution is not None
        assert outcome.best_solution.is_valid

    def test_failure_is_reported_not_raised(self, registry):
        scheduler = PortfolioScheduler(registry=registry)
        outcome = scheduler.solve(_problem(), time_budget_ms=200.0, seed=1)
        assert set(outcome.errors) == {"BOOM"}
        assert "SolverError" in outcome.errors["BOOM"]
        # The exploding member contributes nothing: only survivors appear.
        assert set(outcome.trajectories) == {"MEDIOCRE", "GOOD"}
        assert outcome.merged_trajectory.points

    def test_all_members_failing_yields_no_winner(self):
        reg = SolverRegistry()
        reg.register("BOOM-A", ExplodingSolver)
        reg.register("BOOM-B", ExplodingSolver)
        scheduler = PortfolioScheduler(registry=reg)
        outcome = scheduler.solve(_problem(), time_budget_ms=100.0, seed=1)
        assert outcome.winner == ""
        assert set(outcome.errors) == {"BOOM-A", "BOOM-B"}
        assert outcome.best_solution is None


class TestFrontendWithFailingMember:
    def test_solve_produces_ok_result(self, registry):
        frontend = ServiceFrontend(registry=registry)
        result = frontend.solve(_problem(), time_budget_ms=200.0, seed=1)
        assert result.ok
        assert result.error is None
        assert result.winner == "GOOD"
        assert result.best_cost == pytest.approx(2.0)

    def test_total_failure_becomes_error_result(self):
        reg = SolverRegistry()
        reg.register("BOOM", ExplodingSolver)
        request = SolveRequest(problem=_problem(), time_budget_ms=100.0, seed=1)
        result = execute_request(request, registry=reg)
        assert not result.ok
        assert result.error is not None
        assert "BOOM" in result.error
