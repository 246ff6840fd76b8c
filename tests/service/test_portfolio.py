"""Tests for the portfolio scheduler."""

import pytest

from repro.exceptions import ServiceError, UnknownSolverError
from repro.mqo.generator import generate_paper_testcase
from repro.mqo.problem import MQOProblem
from repro.service.portfolio import (
    MERGED_TRAJECTORY_NAME,
    PortfolioScheduler,
    _member_seed,
)
from repro.service.registry import SolverCapabilities, SolverRegistry, default_registry


@pytest.fixture()
def problem() -> MQOProblem:
    return generate_paper_testcase(6, 2, seed=11)


@pytest.fixture()
def scheduler() -> PortfolioScheduler:
    return PortfolioScheduler(solvers=("LIN-MQO", "CLIMB", "GA(50)"))


class TestLineup:
    def test_default_lineup_is_capability_filtered(self, problem):
        registry = SolverRegistry()
        registry.register("ANY", lambda: None)
        registry.register("TINY", lambda: None, SolverCapabilities(max_plans=1))
        raced, skipped = PortfolioScheduler(registry=registry).lineup(problem)
        assert raced == ["ANY"]
        assert skipped == ("TINY",)

    def test_unknown_member_raises(self, problem):
        with pytest.raises(UnknownSolverError):
            PortfolioScheduler(solvers=("NOPE",)).lineup(problem)

    def test_all_members_skipped_raises(self, problem):
        registry = SolverRegistry()
        registry.register("TINY", lambda: None, SolverCapabilities(max_plans=1))
        with pytest.raises(ServiceError):
            PortfolioScheduler(registry=registry).lineup(problem)


class TestRacing:
    def test_winner_is_deterministic_under_fixed_seed(self, problem, scheduler):
        first = scheduler.solve(problem, time_budget_ms=200.0, seed=5)
        second = scheduler.solve(problem, time_budget_ms=200.0, seed=5)
        assert first.winner == second.winner
        assert first.best_cost == second.best_cost
        assert sorted(first.best_solution.selected_plans) == sorted(
            second.best_solution.selected_plans
        )

    def test_exact_member_wins_on_tiny_instance(self, problem, scheduler):
        # LIN-MQO proves optimality well inside the budget, so no member
        # can beat it and the deterministic tie-break keeps it in front.
        result = scheduler.solve(problem, time_budget_ms=300.0, seed=0)
        assert result.winner == "LIN-MQO"
        assert result.merged_trajectory.proved_optimal
        assert result.errors == {}

    def test_result_carries_every_member_trajectory(self, problem, scheduler):
        result = scheduler.solve(problem, time_budget_ms=150.0, seed=1)
        assert sorted(result.trajectories) == ["CLIMB", "GA(50)", "LIN-MQO"]
        for trajectory in result.trajectories.values():
            assert trajectory.best_solution is not None
            assert trajectory.best_solution.is_valid

    def test_merged_trajectory_is_monotone_envelope(self, problem, scheduler):
        result = scheduler.solve(problem, time_budget_ms=150.0, seed=2)
        merged = result.merged_trajectory
        assert merged.solver_name == MERGED_TRAJECTORY_NAME
        costs = [cost for _, cost in merged.points]
        assert costs == sorted(costs, reverse=True)
        assert merged.best_cost == result.best_cost
        assert merged.best_cost <= min(
            t.best_cost for t in result.trajectories.values()
        )
        times = [t for t, _ in merged.points]
        assert times == sorted(times)

    def test_one_member_race_keeps_the_member_time_axis(self):
        # A one-member race runs its member inline; its merged trajectory
        # must read on the member's own axis (QA's device time), as the
        # members of a multi-member race do, not on the race clock.
        problem = generate_paper_testcase(5, 2, seed=1)
        result = PortfolioScheduler().solve(
            problem, time_budget_ms=40.0, seed=1, solvers=("QA",)
        )
        member = result.trajectories["QA"]
        assert member.points
        assert result.merged_trajectory.points == member.points

    @pytest.mark.parametrize("error", [ServiceError("kaboom"), ValueError("kaboom")])
    def test_member_failure_is_tolerated(self, problem, error):
        registry = SolverRegistry()

        class Exploding:
            name = "BOOM"

            def solve(self, problem, time_budget_ms, seed=None):
                raise error

        registry.register("BOOM", Exploding)
        registry.register("CLIMB", default_registry().get("CLIMB").factory)
        scheduler = PortfolioScheduler(registry=registry)
        result = scheduler.solve(problem, time_budget_ms=100.0, seed=0)
        assert result.winner == "CLIMB"
        assert "BOOM" in result.errors
        assert "kaboom" in result.errors["BOOM"]

    def test_non_positive_budget_rejected(self, problem, scheduler):
        with pytest.raises(ServiceError):
            scheduler.solve(problem, time_budget_ms=0.0)

    def test_per_call_lineup_override(self, problem, scheduler):
        result = scheduler.solve(
            problem, time_budget_ms=100.0, seed=0, solvers=("CLIMB",)
        )
        assert list(result.trajectories) == ["CLIMB"]
        assert result.winner == "CLIMB"


class TestMemberSeeds:
    def test_member_seeds_are_stable_and_distinct(self):
        seeds = [_member_seed(42, i) for i in range(4)]
        assert seeds == [_member_seed(42, i) for i in range(4)]
        assert len(set(seeds)) == 4
        assert seeds != [_member_seed(43, i) for i in range(4)]
