"""Tests for the repro-mqo command-line interface."""

import json

import pytest

from repro.cli import _iter_workload, _submit_spec_and_seed, build_parser, main
from repro.exceptions import ReproError
from repro.mqo.generator import generate_paper_testcase
from repro.mqo.serialization import save_problem
from repro.service.batch import derive_job_seed


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.queries == 20
        assert args.plans == 2
        assert not args.baselines

    def test_capacity_defaults(self):
        args = build_parser().parse_args(["capacity"])
        assert args.qubits == [1152, 2304, 4608]
        assert args.pattern == "clustered"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7337
        assert args.workers == 2
        assert args.queue_capacity == 128
        assert args.cache_file is None

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "workload.jsonl"])
        assert args.port == 7337
        assert args.solver is None
        assert not args.stream
        assert args.priority is None


class TestInfoCommand:
    def test_prints_device_json(self, capsys):
        assert main(["info"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["device"]["total_qubits"] == 1152
        assert payload["device"]["functional_qubits"] == 1097


class TestCapacityCommand:
    def test_prints_frontier(self, capsys):
        assert main(["capacity", "--qubits", "1152"]) == 0
        output = capsys.readouterr().out
        assert "Figure 7" in output
        assert "1152 qubits" in output

    def test_native_pattern(self, capsys):
        assert main(["capacity", "--qubits", "1097", "--pattern", "native"]) == 0
        assert "native" in capsys.readouterr().out


class TestSolveCommand:
    def test_solve_generated_instance(self, capsys):
        exit_code = main(["solve", "--queries", "6", "--plans", "2", "--reads", "30", "--seed", "1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "QA" in output
        assert "best cost" in output

    def test_solve_with_baselines(self, capsys):
        exit_code = main(
            [
                "solve",
                "--queries",
                "5",
                "--plans",
                "2",
                "--reads",
                "20",
                "--baselines",
                "--budget-ms",
                "200",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "LIN-MQO" in output
        assert "CLIMB" in output

    def test_solve_problem_file(self, tmp_path, capsys):
        problem = generate_paper_testcase(5, 2, seed=3)
        path = save_problem(problem, tmp_path / "problem.json")
        exit_code = main(["solve", "--problem-file", str(path), "--reads", "20"])
        assert exit_code == 0
        assert problem.name in capsys.readouterr().out

    def test_solve_json_output(self, capsys):
        exit_code = main(
            [
                "solve",
                "--queries",
                "5",
                "--plans",
                "2",
                "--reads",
                "20",
                "--baselines",
                "--budget-ms",
                "100",
                "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"]["num_queries"] == 5
        assert len(payload["problem"]["canonical_hash"]) == 64
        winners = [result["winner"] for result in payload["results"]]
        assert winners[0] == "QA"
        assert "LIN-MQO" in winners
        for result in payload["results"]:
            assert result["is_valid"]
            assert result["trajectory"]

    def test_solve_decomposed(self, capsys):
        exit_code = main(
            [
                "solve",
                "--queries",
                "12",
                "--plans",
                "2",
                "--seed",
                "3",
                "--decompose",
                "--max-cluster-size",
                "4",
                "--budget-ms",
                "400",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "decomposed into" in output
        assert "decomposed_qa" in output

    def test_solve_decomposed_json(self, capsys):
        exit_code = main(
            [
                "solve",
                "--queries",
                "10",
                "--plans",
                "2",
                "--seed",
                "3",
                "--decompose",
                "--budget-ms",
                "400",
                "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["qubits_per_variable"] is None  # no QUBO embedding
        [result] = payload["results"]
        assert result["winner"] == "decomposed_qa"
        assert result["is_valid"]


class TestBatchCommand:
    @staticmethod
    def _write_workload(path, count, budget_ms=60.0):
        with open(path, "w") as handle:
            for index in range(count):
                spec = {"queries": 4, "plans": 2, "seed": index, "budget_ms": budget_ms}
                handle.write(json.dumps(spec) + "\n")
        return path

    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch", "workload.jsonl"])
        assert args.solver == "portfolio"
        assert args.workers == 0
        assert args.cache_file is None

    def test_batch_streams_portfolio_results(self, tmp_path, capsys):
        workload = self._write_workload(tmp_path / "workload.jsonl", 3)
        exit_code = main(
            ["batch", str(workload), "--solvers", "LIN-MQO", "CLIMB", "--seed", "1"]
        )
        assert exit_code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert len(lines) == 3
        assert {line["job_id"] for line in lines} == {"job-0", "job-1", "job-2"}
        for line in lines:
            assert line["solver"] == "portfolio"
            assert line["winner"] in ("LIN-MQO", "CLIMB")
            assert line["is_valid"]

    def test_batch_warm_cache_reports_hits(self, tmp_path, capsys):
        workload = self._write_workload(tmp_path / "workload.jsonl", 2)
        cache_file = tmp_path / "cache.json"
        common = [
            "batch",
            str(workload),
            "--solver",
            "CLIMB",
            "--seed",
            "5",
            "--cache-file",
            str(cache_file),
        ]
        assert main(common) == 0
        cold = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(not line["from_cache"] for line in cold)

        assert main(common) == 0
        warm = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(line["from_cache"] for line in warm)
        def by_job(lines):
            return sorted((line["job_id"], line["best_cost"]) for line in lines)

        assert by_job(cold) == by_job(warm)

    def test_batch_output_file(self, tmp_path):
        workload = self._write_workload(tmp_path / "workload.jsonl", 2)
        out = tmp_path / "results.jsonl"
        exit_code = main(
            ["batch", str(workload), "--solver", "CLIMB", "--output", str(out)]
        )
        assert exit_code == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 2

    def test_batch_empty_workload_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("# only a comment\n")
        assert main(["batch", str(empty)]) == 1

    def test_bad_input_does_not_truncate_output_file(self, tmp_path):
        out = tmp_path / "results.jsonl"
        out.write_text("precious prior results\n")
        missing = tmp_path / "missing.jsonl"
        assert main(["batch", str(missing), "--output", str(out)]) == 2
        assert out.read_text() == "precious prior results\n"
        # Same guarantee for submit against an unreachable server.
        workload = tmp_path / "w.jsonl"
        workload.write_text(json.dumps({"queries": 4, "plans": 2, "seed": 1}) + "\n")
        assert main(["submit", str(workload), "--port", "1", "--output", str(out)]) == 2
        assert out.read_text() == "precious prior results\n"

    def test_batch_unknown_solver_reports_failure_exit(self, tmp_path, capsys):
        workload = self._write_workload(tmp_path / "workload.jsonl", 1)
        assert main(["batch", str(workload), "--solver", "NOPE"]) == 1
        (line,) = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert "UnknownSolverError" in line["error"]


class TestWorkloadStreaming:
    """Regression coverage: the JSONL workload is parsed lazily."""

    def test_iter_workload_parses_on_demand(self, tmp_path):
        path = tmp_path / "workload.jsonl"
        path.write_text(
            '{"queries": 4}\n'
            "# a comment\n"
            "\n"
            '{"queries": 5}\n'
            "THIS LINE IS NOT JSON\n"
        )
        iterator = _iter_workload(str(path))
        # Early lines stream out before the malformed tail is ever read —
        # a whole-file parse would raise up front.
        assert next(iterator)["queries"] == 4
        assert next(iterator)["queries"] == 5
        with pytest.raises(ReproError, match="line 5"):
            next(iterator)

    def test_iter_workload_missing_file_raises_lazily(self, tmp_path):
        iterator = _iter_workload(str(tmp_path / "missing.jsonl"))
        with pytest.raises(ReproError, match="cannot read workload file"):
            next(iterator)

    def test_large_workload_head_is_cheap(self, tmp_path):
        path = tmp_path / "huge.jsonl"
        with open(path, "w") as handle:
            for index in range(20000):
                handle.write(json.dumps({"queries": 4, "seed": index}) + "\n")
        iterator = _iter_workload(str(path))
        # Consuming the head of a 20k-line workload must not materialise
        # the rest (this returns immediately; loading would be visible).
        head = [next(iterator) for _ in range(3)]
        assert [spec["seed"] for spec in head] == [0, 1, 2]
        iterator.close()

    def test_chunked_batch_matches_whole_file_semantics(self, tmp_path, capsys):
        # Job ids and derived seeds come from each line's position in the
        # whole file, and results come back in input order.
        path = tmp_path / "workload.jsonl"
        with open(path, "w") as handle:
            for index in range(5):
                spec = {"queries": 4, "plans": 2, "generator_seed": index, "budget_ms": 40.0}
                handle.write(json.dumps(spec) + "\n")
        assert main(["batch", str(path), "--solver", "CLIMB", "--seed", "3"]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert [line["job_id"] for line in lines] == [f"job-{i}" for i in range(5)]
        assert [line["seed"] for line in lines] == [
            derive_job_seed(3, index) for index in range(5)
        ]
        assert all(line["winner"] == "CLIMB" for line in lines)

    def test_duplicates_deduped_across_chunks(self, tmp_path, capsys):
        # Five identical jobs must solve once; the twins are echoed with
        # from_cache=true, whether coalesced in flight or served by the
        # private server's result cache.
        path = tmp_path / "dupes.jsonl"
        spec = {"queries": 4, "plans": 2, "generator_seed": 9, "seed": 5, "budget_ms": 40.0}
        with open(path, "w") as handle:
            for _ in range(5):
                handle.write(json.dumps(spec) + "\n")
        assert main(["batch", str(path), "--solver", "CLIMB"]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert len(lines) == 5
        assert sum(not line["from_cache"] for line in lines) == 1
        assert len({line["best_cost"] for line in lines}) == 1


class TestSubmitCommand:
    @pytest.fixture()
    def server(self):
        """A default-registry solver server on an ephemeral port."""
        from repro.server.app import ServerConfig, run_server_in_thread

        handle = run_server_in_thread(ServerConfig(port=0, workers=2))
        yield handle
        handle.stop()

    @staticmethod
    def _write_workload(path, count):
        with open(path, "w") as handle:
            for index in range(count):
                handle.write(json.dumps({"queries": 4, "plans": 2, "seed": index}) + "\n")
        return path

    def test_submit_pipelines_results(self, server, tmp_path, capsys):
        workload = self._write_workload(tmp_path / "workload.jsonl", 3)
        exit_code = main(
            [
                "submit",
                str(workload),
                "--port",
                str(server.port),
                "--solver",
                "CLIMB",
                "--budget-ms",
                "60",
            ]
        )
        assert exit_code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert len(lines) == 3
        assert all(line["winner"] == "CLIMB" for line in lines)
        assert all(line["is_valid"] for line in lines)
        # Result ids are stable per input line, matching `batch` output.
        assert [line["job_id"] for line in lines] == ["job-0", "job-1", "job-2"]

    def test_submit_flags_are_defaults_not_overrides(self, server, tmp_path, capsys):
        path = tmp_path / "mixed.jsonl"
        with open(path, "w") as handle:
            handle.write(
                json.dumps(
                    {"queries": 4, "plans": 2, "seed": 1, "solver": "GREEDY"}
                )
                + "\n"
            )
            handle.write(json.dumps({"queries": 4, "plans": 2, "seed": 2}) + "\n")
        exit_code = main(
            [
                "submit",
                str(path),
                "--port",
                str(server.port),
                "--solver",
                "CLIMB",
                "--budget-ms",
                "60",
            ]
        )
        assert exit_code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        # A spec-named solver wins over --solver (batch semantics).
        assert [line["winner"] for line in lines] == ["GREEDY", "CLIMB"]

    def test_submit_stream_mode_emits_update_lines(self, server, tmp_path, capsys):
        workload = self._write_workload(tmp_path / "workload.jsonl", 1)
        exit_code = main(
            [
                "submit",
                str(workload),
                "--port",
                str(server.port),
                "--solver",
                "CLIMB",
                "--budget-ms",
                "80",
                "--stream",
            ]
        )
        assert exit_code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        updates = [line for line in lines if line.get("type") == "update"]
        results = [line for line in lines if "winner" in line]
        assert updates, "streaming mode must emit anytime update lines"
        assert len(results) == 1
        # Updates precede the result on the stream.
        assert lines.index(updates[0]) < lines.index(results[0])

    def test_submit_empty_workload_fails(self, server, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("# nothing here\n")
        assert main(["submit", str(empty), "--port", str(server.port)]) == 1

    def test_submit_unreachable_server_reports_error(self, tmp_path, capsys):
        workload = self._write_workload(tmp_path / "workload.jsonl", 1)
        # Port 1 is never listening; the CLI must fail cleanly (exit 2).
        assert main(["submit", str(workload), "--port", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_submit_fails_fast_on_non_retryable_rejection(self, tmp_path, capsys):
        from repro.server.app import ServerConfig, run_server_in_thread

        handle = run_server_in_thread(ServerConfig(port=0, workers=1, max_budget_ms=100.0))
        try:
            path = tmp_path / "capped.jsonl"
            with open(path, "w") as handle_file:
                handle_file.write(json.dumps({"queries": 4, "plans": 2, "seed": 0}) + "\n")
                handle_file.write(
                    json.dumps(
                        {"queries": 4, "plans": 2, "seed": 1, "budget_ms": 5000.0}
                    )
                    + "\n"
                )
            # The second line exceeds the server's budget cap — a permanent
            # rejection that must abort instead of retrying forever.
            exit_code = main(
                [
                    "submit",
                    str(path),
                    "--port",
                    str(handle.port),
                    "--solver",
                    "CLIMB",
                    "--budget-ms",
                    "50",
                ]
            )
            assert exit_code == 2
            assert "budget" in capsys.readouterr().err
        finally:
            handle.stop()

    def test_submit_survives_workloads_beyond_queue_capacity(self, tmp_path, capsys):
        from repro.server.app import ServerConfig, run_server_in_thread

        handle = run_server_in_thread(
            ServerConfig(port=0, workers=1, queue_capacity=3)
        )
        try:
            path = tmp_path / "big.jsonl"
            with open(path, "w") as handle_file:
                for index in range(12):
                    handle_file.write(
                        json.dumps({"queries": 4, "plans": 2, "seed": index}) + "\n"
                    )
            # 12 jobs against capacity 3: the windowed pipeline must
            # self-throttle instead of dying on backpressure.
            exit_code = main(
                [
                    "submit",
                    str(path),
                    "--port",
                    str(handle.port),
                    "--solver",
                    "CLIMB",
                    "--budget-ms",
                    "30",
                ]
            )
            assert exit_code == 0
            lines = [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
                if line.strip()
            ]
            assert len(lines) == 12
            assert all(line["winner"] == "CLIMB" for line in lines)
        finally:
            handle.stop()


class TestSubmitSeedDerivation:
    def test_generator_spec_keeps_unseeded_generation(self):
        spec, seed = _submit_spec_and_seed({"queries": 4, "plans": 2}, 3, 0)
        # The derived seed drives *solving*; generation stays unseeded
        # exactly like `repro-mqo batch` (which builds the problem before
        # assigning the solve seed).
        assert spec["generator_seed"] is None
        assert seed == derive_job_seed(3, 0)

    def test_explicit_seed_is_untouched(self):
        original = {"queries": 4, "plans": 2, "seed": 11}
        spec, seed = _submit_spec_and_seed(original, 3, 0)
        assert spec is original
        assert seed is None

    def test_explicit_generator_seed_preserved(self):
        spec, seed = _submit_spec_and_seed(
            {"queries": 4, "plans": 2, "generator_seed": 9}, 3, 1
        )
        assert spec["generator_seed"] == 9
        assert seed == derive_job_seed(3, 1)

    def test_problem_specs_get_only_the_solve_seed(self):
        spec, seed = _submit_spec_and_seed({"plans_per_query": [[1.0, 2.0]]}, 3, 2)
        assert "generator_seed" not in spec
        assert seed == derive_job_seed(3, 2)
