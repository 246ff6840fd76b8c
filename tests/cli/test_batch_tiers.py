"""``repro-mqo batch`` on the server's thread tier and on shard processes.

``--workers 0`` runs the private server's thread tier and ``--workers 2``
two shards.  Both must return the same answers, job ids, seeds and
cache provenance for every line, and no shard process may outlive the
command.
"""

import multiprocessing

import pytest

from repro.server.protocol import MAX_FRAME_BYTES

#: Fields that must agree line by line across the tiers.
COMPARED = ("job_id", "seed", "best_cost", "selected_plans", "from_cache")


def _generator_specs(count: int):
    return [{"queries": 4, "plans": 2, "seed": index + 1} for index in range(count)]


def _compared(results):
    return [tuple(result[field] for field in COMPARED) for result in results]


@pytest.fixture()
def no_new_children():
    """Fail when a child process started during the test is still alive."""
    before = set(multiprocessing.active_children())
    yield
    assert not set(multiprocessing.active_children()) - before


class TestTiersAgree:
    @pytest.mark.parametrize("solver", ["QA", "GREEDY"])
    def test_thread_and_shard_runs_agree(self, run_batch, solver, no_new_children):
        # QA's answers depend on read counts, not on host speed, and
        # GREEDY is deterministic, so the comparison is exact.
        specs = _generator_specs(5)
        specs.append(specs[0])
        threaded_code, threaded = run_batch(specs, "--solver", solver, "--seed", 3)
        sharded_code, sharded = run_batch(
            specs, "--solver", solver, "--seed", 3, "--workers", 2
        )
        assert threaded_code == sharded_code == 0
        assert _compared(threaded) == _compared(sharded)
        assert [result["job_id"] for result in threaded] == [f"job-{i}" for i in range(6)]
        assert [result["from_cache"] for result in threaded] == [False] * 5 + [True]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_repeat_beyond_the_submit_window_hits_the_cache(self, run_batch, workers):
        # The first line is collected before its repeat, 34 lines later,
        # is sent (the submit window is 32), so only the result cache can
        # answer the repeat.
        specs = _generator_specs(34)
        specs.append(specs[0])
        exit_code, results = run_batch(specs, "--solver", "GREEDY", "--workers", workers)
        assert exit_code == 0
        first, repeat = results[0], results[-1]
        assert not first["from_cache"] and repeat["from_cache"]
        assert (repeat["best_cost"], repeat["selected_plans"]) == (
            first["best_cost"],
            first["selected_plans"],
        )
        assert sum(result["from_cache"] for result in results) == 1


class TestShardLifecycle:
    def test_no_shard_outlives_a_clean_run(self, run_batch, no_new_children):
        exit_code, results = run_batch(_generator_specs(2), "--solver", "GREEDY", "--workers", 2)
        assert exit_code == 0 and len(results) == 2

    def test_no_shard_outlives_an_aborted_run(self, run_batch, capsys, no_new_children):
        specs = _generator_specs(3) + ["THIS LINE IS NOT JSON"] + _generator_specs(2)
        exit_code, _ = run_batch(specs, "--solver", "GREEDY", "--workers", 2)
        assert exit_code == 2
        assert "workload line 4 is not valid JSON" in capsys.readouterr().err


class TestLineSize:
    def test_lines_beyond_the_wire_limit_are_solved(self, run_batch):
        # Batch reads lines of any size: neither its private server nor
        # its client may refuse one for the wire limit.
        pad = "x" * (MAX_FRAME_BYTES + 1024)
        spec = {"queries": 4, "plans": 2, "seed": 1, "metadata": {"pad": pad}}
        exit_code, (result,) = run_batch([spec], "--solver", "GREEDY")
        assert exit_code == 0
        assert result["error"] is None
        assert result["metadata"]["pad"] == pad
