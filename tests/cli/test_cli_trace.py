"""CLI tests of ``--trace`` NDJSON export and tracer state restoration."""

import json
import socket
import threading

from repro.cli import build_parser, main
from repro.obs.trace import get_tracer
from repro.server.client import SolverClient
from repro.server.readiness import wait_for_server


class TestTraceFlagParsing:
    def test_solve_bench_and_batch_accept_trace(self):
        parser = build_parser()
        assert parser.parse_args(["solve", "--trace", "t.ndjson"]).trace == "t.ndjson"
        assert parser.parse_args(["batch", "-", "--trace", "t.ndjson"]).trace == "t.ndjson"
        assert parser.parse_args(["bench", "--trace", "t.ndjson"]).trace == "t.ndjson"
        assert parser.parse_args(["solve"]).trace is None

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.host == "127.0.0.1"
        assert args.port == 7337
        assert args.timeout_s == 10.0


class TestSolveTrace:
    def test_solve_writes_pipeline_spans(self, tmp_path, capsys):
        path = tmp_path / "trace.ndjson"
        exit_code = main(
            ["solve", "--queries", "4", "--reads", "20", "--trace", str(path)]
        )
        assert exit_code == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        names = {record["name"] for record in records}
        assert {"mqo.prepare", "mqo.qubo_build", "mqo.anneal", "mqo.decode"} <= names
        # One trace: the child stages share the prepare/solve trace ids.
        assert all("span_id" in record and "trace_id" in record for record in records)
        assert f"wrote {len(records)} spans to {path}" in capsys.readouterr().err

    def test_tracer_disabled_again_after_the_command(self, tmp_path):
        main(["solve", "--queries", "4", "--reads", "20", "--trace", str(tmp_path / "t.ndjson")])
        tracer = get_tracer()
        assert not tracer.enabled
        assert len(tracer) == 0


class TestBatchTrace:
    def test_batch_traces_every_job(self, tmp_path, capsys):
        workload = tmp_path / "jobs.jsonl"
        workload.write_text(
            "\n".join(
                json.dumps({"queries": 4, "plans": 2, "seed": seed, "solver": "CLIMB"})
                for seed in range(2)
            )
            + "\n"
        )
        path = tmp_path / "trace.ndjson"
        exit_code = main(
            [
                "batch",
                str(workload),
                "--budget-ms",
                "50",
                "--output",
                str(tmp_path / "results.jsonl"),
                "--trace",
                str(path),
            ]
        )
        assert exit_code == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        executes = [r for r in records if r["name"] == "service.execute"]
        assert len(executes) == 2
        assert all(r["status"] == "ok" for r in executes)


def _free_port() -> int:
    """An OS-assigned port, released for immediate reuse by ``serve``."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestServeTrace:
    def test_serve_writes_spans_on_shutdown(self, tmp_path):
        """``serve --trace`` dumps the server's spans when it stops.

        The server runs ``main()`` on a thread against a real socket; a
        client solves one job and issues a draining shutdown, after
        which the NDJSON file must hold the solve's pipeline spans —
        proof the tracer stayed enabled for the server's lifetime and
        was exported on the way out.
        """
        path = tmp_path / "serve-trace.ndjson"
        port = _free_port()
        exit_codes = []
        thread = threading.Thread(
            target=lambda: exit_codes.append(
                main(
                    [
                        "serve",
                        "--port",
                        str(port),
                        "--workers",
                        "1",
                        "--trace",
                        str(path),
                    ]
                )
            ),
            daemon=True,
        )
        thread.start()
        try:
            wait_for_server(port=port, timeout_s=20.0)
            with SolverClient(port=port) as client:
                result = client.solve(
                    {"queries": 4, "plans": 2, "seed": 1}, solver="CLIMB", budget_ms=60.0
                )
                assert result.ok
                client.shutdown(drain=True)
        finally:
            thread.join(timeout=20.0)
        assert not thread.is_alive()
        assert exit_codes == [0]
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(record["name"] == "service.execute" for record in records)
        # The command restored the tracer it found (disabled, empty).
        tracer = get_tracer()
        assert not tracer.enabled
        assert len(tracer) == 0
