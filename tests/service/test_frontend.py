"""Tests for the ServiceFrontend facade and its experiment-runner hookup."""

import pytest

from repro.baselines.hillclimb import IteratedHillClimbing
from repro.baselines.ilp_mqo import IntegerProgrammingMQOSolver
from repro.chimera.topology import ChimeraGraph
from repro.experiments.profiles import ExperimentProfile
from repro.experiments.runner import QA_SOLVER_NAME, ExperimentRunner
from repro.mqo.generator import generate_paper_testcase
from repro.mqo.problem import MQOProblem
from repro.service.cache import ResultCache
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest


@pytest.fixture()
def problem():
    return generate_paper_testcase(5, 2, seed=2)


@pytest.fixture()
def frontend():
    return ServiceFrontend(
        cache=ResultCache(), portfolio_solvers=("LIN-MQO", "CLIMB")
    )


class TestSolve:
    def test_portfolio_solve(self, frontend, problem):
        result = frontend.solve(problem, time_budget_ms=150.0, seed=0)
        assert result.ok
        assert result.winner in ("LIN-MQO", "CLIMB")
        assert result.is_valid

    def test_named_solver_solve(self, frontend, problem):
        result = frontend.solve(problem, solver="CLIMB", time_budget_ms=80.0, seed=0)
        assert result.winner == "CLIMB"

    def test_cache_round_trip(self, frontend, problem):
        cold = frontend.solve(problem, time_budget_ms=100.0, seed=3)
        warm = frontend.solve(problem, time_budget_ms=100.0, seed=3)
        assert not cold.from_cache
        assert warm.from_cache
        assert warm.best_cost == cold.best_cost
        assert warm.selected_plans == cold.selected_plans

    def test_race_bypasses_cache(self, frontend, problem):
        frontend.solve(problem, time_budget_ms=100.0, seed=3)
        race = frontend.race(problem, time_budget_ms=100.0, seed=3)
        assert sorted(race.trajectories) == ["CLIMB", "LIN-MQO"]

    def test_submit_honours_default_lineup(self, frontend, problem):
        result = frontend.submit(SolveRequest(problem=problem, time_budget_ms=100.0, seed=3))
        # The frontend was built with portfolio_solvers=(LIN-MQO, CLIMB),
        # so the request must race only those members...
        assert result.winner in ("LIN-MQO", "CLIMB")
        # ...and share cache entries with solve() for the same work.
        via_solve = frontend.solve(problem, time_budget_ms=100.0, seed=3)
        assert via_solve.from_cache
        assert via_solve.cache_key == result.cache_key


def _exact_request(problem, seed=1, **fields):
    # LIN-MQO proves these tiny instances optimal within a few ms, so
    # answers do not depend on host speed.
    return SolveRequest(
        problem=problem, solver="LIN-MQO", time_budget_ms=500.0, seed=seed, **fields
    )


class TestSubmitCache:
    def test_failures_are_never_cached(self, problem):
        cache = ResultCache()
        frontend = ServiceFrontend(cache=cache)
        first = frontend.submit(SolveRequest(problem=problem, solver="NOPE", seed=0))
        again = frontend.submit(SolveRequest(problem=problem, solver="NOPE", seed=0))
        assert not first.ok and not again.ok
        assert not again.from_cache
        assert len(cache) == 0

    def test_hit_echoes_the_current_request_with_zero_time(self, problem):
        frontend = ServiceFrontend(cache=ResultCache())
        cold = frontend.submit(_exact_request(problem, job_id="a", metadata={"ticket": 1}))
        warm = frontend.submit(_exact_request(problem, job_id="b", metadata={"ticket": 2}))
        assert not cold.from_cache and cold.total_time_ms > 0.0
        assert warm.from_cache and warm.total_time_ms == 0.0
        assert (warm.job_id, warm.metadata) == ("b", {"ticket": 2})
        assert (warm.best_cost, warm.selected_plans) == (cold.best_cost, cold.selected_plans)

    def test_another_seed_misses(self, problem):
        frontend = ServiceFrontend(cache=ResultCache())
        frontend.submit(_exact_request(problem, seed=1))
        assert not frontend.submit(_exact_request(problem, seed=2)).from_cache
        assert frontend.submit(_exact_request(problem, seed=1)).from_cache

    def test_persisted_cache_warms_a_new_frontend(self, problem, tmp_path):
        path = tmp_path / "cache.json"
        first = ServiceFrontend(cache=ResultCache(path=path))
        cold = first.submit(_exact_request(problem))
        first.cache.save()
        warm = ServiceFrontend(cache=ResultCache(path=path)).submit(_exact_request(problem))
        assert warm.from_cache
        assert (warm.best_cost, warm.selected_plans) == (cold.best_cost, cold.selected_plans)

    def test_renamed_problem_hits_and_reordered_plans_miss(self):
        # Two listings of one problem, query 0's plans swapped: they share
        # a canonical hash, but plan 0 costs 1.0 in one and 5.0 in the
        # other, so the optimum is [0, 2] in one and [1, 2] in the other.
        original = MQOProblem([[1.0, 5.0], [2.0, 3.0]], {(0, 2): 0.5, (1, 3): 4.5})
        reordered = MQOProblem([[5.0, 1.0], [2.0, 3.0]], {(1, 2): 0.5, (0, 3): 4.5})
        assert original.canonical_hash() == reordered.canonical_hash()
        frontend = ServiceFrontend(cache=ResultCache())
        first = frontend.submit(_exact_request(original))
        assert (first.selected_plans, first.best_cost) == ([0, 2], 2.5)
        # The cached [0, 2] would cost 7.0 here: the plan indices name
        # other plans, so the reordered listing must be solved afresh.
        second = frontend.submit(_exact_request(reordered))
        assert (second.selected_plans, second.best_cost, second.from_cache) == ([1, 2], 2.5, False)
        renamed = MQOProblem([[1.0, 5.0], [2.0, 3.0]], {(0, 2): 0.5, (1, 3): 4.5}, name="other")
        assert frontend.submit(_exact_request(renamed)).from_cache


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def mini_profile(self):
        return ExperimentProfile(
            name="mini-service",
            query_scale=0.25,
            num_instances=1,
            classical_budget_ms=150.0,
            checkpoints_ms=(1.0, 10.0, 150.0),
            num_reads=30,
            num_gauges=3,
            sa_sweeps=40,
            chimera_rows=4,
            chimera_cols=4,
            include_slow_solvers=False,
        )

    def test_runner_sweep_through_portfolio(self, mini_profile):
        runner = ExperimentRunner(
            profile=mini_profile,
            topology=ChimeraGraph(4, 4),
            solvers=[IntegerProgrammingMQOSolver(), IteratedHillClimbing()],
            frontend=ServiceFrontend(),
            seed=7,
        )
        test_class = runner.test_classes((2,))[0]
        (result,) = runner.run_class(test_class)
        assert sorted(result.trajectories) == ["CLIMB", "LIN-MQO", QA_SOLVER_NAME]
        for name, trajectory in result.trajectories.items():
            assert trajectory.best_solution is not None, name
            assert trajectory.best_solution.is_valid
        assert result.best_known_cost <= result.quantum_trajectory().best_cost
