"""Tests of ``execute_request``, ``derive_job_seed`` and ``repro-mqo batch``.

The batch command runs on a private solver server (thread tier for
``--workers 0``, shards beyond one worker); these tests pin its
determinism, job identity and result-cache behaviour end to end.
"""

import json

from repro.mqo.generator import generate_paper_testcase
from repro.service.batch import derive_job_seed, execute_request
from repro.service.jobs import SolveRequest
from repro.service.registry import SolverRegistry


def _requests(count: int, solver: str = "LIN-MQO", budget_ms: float = 500.0):
    # Tiny instances + a generous budget: the exact solver proves
    # optimality in a few ms, so runs replay identically even when CI
    # load or worker contention eats most of the wall clock.
    return [
        SolveRequest(
            problem=generate_paper_testcase(4, 2, seed=index),
            solver=solver,
            time_budget_ms=budget_ms,
        )
        for index in range(count)
    ]


def _specs(count: int, **fields):
    # The batch-command twin of _requests: LIN-MQO on tiny instances.
    spec = {"queries": 4, "plans": 2, "solver": "LIN-MQO", "budget_ms": 500.0}
    return [dict(spec, generator_seed=index, **fields) for index in range(count)]


def _fingerprint(results):
    return [(r["job_id"], r["best_cost"], tuple(r["selected_plans"])) for r in results]


class TestExecuteRequest:
    def test_named_solver(self):
        request = _requests(1)[0]
        result = execute_request(request)
        assert result.ok
        assert result.winner == "LIN-MQO"
        assert result.proved_optimal
        assert result.is_valid
        assert result.cache_key == request.cache_key()

    def test_portfolio_request(self):
        problem = generate_paper_testcase(5, 2, seed=0)
        request = SolveRequest(
            problem=problem,
            time_budget_ms=150.0,
            seed=4,
            solvers=("LIN-MQO", "CLIMB"),
        )
        result = execute_request(request)
        assert result.ok
        assert result.winner in ("LIN-MQO", "CLIMB")
        assert result.solver == "portfolio"

    def test_solver_failure_is_captured(self):
        request = _requests(1)[0]
        request.solver = "NOPE"
        result = execute_request(request)
        assert not result.ok
        assert "UnknownSolverError" in result.error

    def test_non_repro_exception_is_captured_too(self):
        registry = SolverRegistry()

        class Buggy:
            name = "BUGGY"

            def solve(self, problem, time_budget_ms, seed=None):
                raise ValueError("not a ReproError")

        registry.register("BUGGY", Buggy)
        request = _requests(1, solver="BUGGY")[0]
        result = execute_request(request, registry=registry)
        assert not result.ok
        assert "ValueError: not a ReproError" in result.error


class TestDeterminism:
    def test_same_base_seed_same_results(self, run_batch):
        first_code, first = run_batch(_specs(4), "--seed", 9)
        second_code, second = run_batch(_specs(4), "--seed", 9)
        assert first_code == second_code == 0
        assert all(r["proved_optimal"] for r in first + second)  # converged
        assert _fingerprint(first) == _fingerprint(second)
        assert [r["seed"] for r in first] == [derive_job_seed(9, i) for i in range(4)]
        assert [r["seed"] for r in first] == [r["seed"] for r in second]

    def test_worker_count_does_not_change_results(self, run_batch):
        _, threaded = run_batch(_specs(4), "--seed", 9, "--workers", 0)
        _, sharded = run_batch(_specs(4), "--seed", 9, "--workers", 2)
        # Seeds derive from (base_seed, position) only, never from the
        # tier or the worker count.
        assert [r["seed"] for r in threaded] == [r["seed"] for r in sharded]
        assert all(r["proved_optimal"] for r in threaded + sharded)  # converged
        assert _fingerprint(threaded) == _fingerprint(sharded)

    def test_explicit_request_seed_wins_over_derived(self, run_batch):
        _, (result,) = run_batch(_specs(1, seed=1234), "--seed", 9)
        assert result["seed"] == 1234

    def test_derive_job_seed_properties(self):
        seeds = [derive_job_seed(7, index) for index in range(8)]
        assert seeds == [derive_job_seed(7, index) for index in range(8)]
        assert len(set(seeds)) == 8
        assert derive_job_seed(8, 0) != derive_job_seed(7, 0)

    def test_negative_base_seed_accepted(self):
        assert derive_job_seed(-1, 0) == derive_job_seed(-1, 0)
        assert derive_job_seed(-1, 0) != derive_job_seed(-2, 0)


class TestCacheIntegration:
    def test_second_run_hits_without_resolving(self, run_batch, tmp_path):
        flags = ("--seed", 1, "--cache-file", tmp_path / "cache.json")
        _, cold = run_batch(_specs(3), *flags)
        assert all(not r["from_cache"] for r in cold)
        _, warm = run_batch(_specs(3), *flags)
        assert all(r["from_cache"] for r in warm)
        assert _fingerprint(cold) == _fingerprint(warm)
        assert all(r["total_time_ms"] == 0.0 for r in warm)

    def test_cache_hit_echoes_current_request_metadata(self, run_batch, tmp_path):
        cache = ("--cache-file", tmp_path / "cache.json")
        run_batch(_specs(1, seed=1, metadata={"ticket": 1}), *cache)
        _, (hit,) = run_batch(_specs(1, seed=1, metadata={"ticket": 2}), *cache)
        assert hit["from_cache"]
        assert hit["metadata"] == {"ticket": 2}

    def test_different_base_seed_misses(self, run_batch, tmp_path):
        cache = ("--cache-file", tmp_path / "cache.json")
        run_batch(_specs(2), "--seed", 1, *cache)
        _, rerun = run_batch(_specs(2), "--seed", 2, *cache)
        assert all(not r["from_cache"] for r in rerun)

    def test_cache_persisted_after_batch(self, run_batch, tmp_path):
        path = tmp_path / "cache.json"
        run_batch(_specs(2), "--seed", 1, "--cache-file", path)
        assert path.exists()
        # A sharded run warms its shards from the same file.
        _, results = run_batch(_specs(2), "--seed", 1, "--cache-file", path, "--workers", 2)
        assert all(r["from_cache"] for r in results)

    def test_failures_are_not_cached(self, run_batch, tmp_path):
        path = tmp_path / "cache.json"
        failing = _specs(1, solver="NOPE", seed=0)
        exit_code, results = run_batch(failing * 2, "--cache-file", path)
        assert exit_code == 1
        assert all(not r["from_cache"] and "UnknownSolverError" in r["error"] for r in results)
        assert json.loads(path.read_text())["entries"] == []
        # A repeat of a failed line runs again instead of echoing the failure.
        _, (again,) = run_batch(failing, "--cache-file", path)
        assert not again["from_cache"] and "UnknownSolverError" in again["error"]


class TestConfiguration:
    def test_negative_workers_rejected(self, run_batch, capsys):
        assert run_batch(_specs(1), "--workers", -1) == (2, [])
        assert "workers must be non-negative" in capsys.readouterr().err

    def test_job_ids_default_to_position(self, run_batch):
        _, results = run_batch(_specs(2), "--seed", 0)
        assert [r["job_id"] for r in results] == ["job-0", "job-1"]
