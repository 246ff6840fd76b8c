"""Whole-workload deduplication of identical ``repro-mqo batch`` lines.

A repeated line is coalesced onto its twin while that one is in flight,
or answered by the private server's result cache once it has finished;
either way it comes back as an echo marked ``from_cache``.
"""


def _spec(job_id, seed=3, solver="CLIMB", budget=80.0, metadata=None, problem_seed=1):
    spec = {
        "queries": 4,
        "plans": 2,
        "generator_seed": problem_seed,
        "solver": solver,
        "budget_ms": budget,
        "job_id": job_id,
        "metadata": metadata or {},
    }
    if seed is not None:
        spec["seed"] = seed
    return spec


class TestBatchDedupe:
    def test_identical_jobs_solved_once(self, run_batch):
        specs = [
            _spec("first", metadata={"k": 1}),
            _spec("twin", metadata={"k": 2}),
            _spec("third"),
        ]
        exit_code, results = run_batch(specs)
        assert exit_code == 0
        assert all(result["error"] is None for result in results)
        assert [result["job_id"] for result in results] == ["first", "twin", "third"]
        # The representative actually solved; the twins are echoes.
        assert [result["from_cache"] for result in results] == [False, True, True]
        assert results[1]["best_cost"] == results[0]["best_cost"]
        assert results[1]["selected_plans"] == results[0]["selected_plans"]
        # Identity fields echo each line, not the representative.
        assert results[1]["metadata"] == {"k": 2}
        assert results[1]["total_time_ms"] == 0.0

    def test_different_seeds_not_deduplicated(self, run_batch):
        _, results = run_batch([_spec("a", seed=1), _spec("b", seed=2)])
        assert all(result["from_cache"] is False for result in results)

    def test_deduped_equals_solo_result(self, run_batch):
        """An echoed twin must carry exactly the representative's answer."""
        _, (solo,) = run_batch([_spec("solo", problem_seed=2)])
        _, paired = run_batch([_spec("rep", problem_seed=2), _spec("twin", problem_seed=2)])
        assert paired[1]["from_cache"]
        assert paired[1]["best_cost"] == solo["best_cost"]
        assert paired[1]["selected_plans"] == solo["selected_plans"]

    def test_derived_seeds_keep_jobs_distinct(self, run_batch):
        """Without explicit seeds, per-position derivation prevents dedupe."""
        _, results = run_batch([_spec("x", seed=None), _spec("y", seed=None)], "--seed", 9)
        assert results[0]["seed"] != results[1]["seed"]
        assert all(result["from_cache"] is False for result in results)
