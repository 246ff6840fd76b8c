"""Command-line interface: ``repro-mqo``.

Nine subcommands cover the common workflows:

* ``solve``    — generate (or load) an instance and solve it on the
  simulated annealer plus selected classical baselines (``--json`` for
  machine-readable output),
* ``batch``    — solve a JSONL workload of instance specs on a private
  solver server (portfolio racing, shard processes, result cache),
* ``serve``    — run the async solver server (see ``docs/server.md``),
* ``submit``   — send a JSONL workload to a running server and stream
  the results back as JSONL,
* ``bench``    — run a registered workload suite through the benchmark
  orchestrator and write a schema-validated ``BENCH_<suite>.json``
  (see ``docs/benchmarks.md`` and ``docs/workloads.md``),
* ``metrics``  — fetch the Prometheus exposition text from a running
  server (see ``docs/observability.md``),
* ``top``      — live per-shard view of a running server (throughput,
  latency percentiles, queue depths, restarts), refreshing in place on
  a terminal and degrading to a one-shot dump when piped,
* ``capacity`` — print the Figure 7 capacity frontier for a qubit budget,
* ``info``     — print the device model and profile configuration.

``solve``, ``batch``, ``bench`` and ``serve`` accept ``--trace PATH`` to
record pipeline spans and write them as NDJSON (one span per line);
``serve`` writes its buffer — including spans adopted from shard
processes — when the server stops.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
import time
from collections import deque
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.baselines.genetic import GeneticAlgorithmSolver
from repro.baselines.hillclimb import IteratedHillClimbing
from repro.baselines.ilp_mqo import IntegerProgrammingMQOSolver
from repro.chimera.hardware import DWAVE_2X
from repro.core.pipeline import QuantumMQO
from repro.exceptions import AdmissionError, ReproError, ServiceError
from repro.experiments.figures import figure7_table
from repro.experiments.profiles import get_profile
from repro.mqo.generator import generate_paper_testcase
from repro.mqo.serialization import load_problem
from repro.obs import configure_tracer, get_tracer, write_ndjson
from repro.server.app import ServerConfig, SolverServer, run_server_in_thread
from repro.server.client import SolverClient
from repro.service.batch import derive_job_seed
from repro.service.cache import ResultCache
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import PORTFOLIO_SOLVER, SolveRequest, SolveResult
from repro.utils.stopwatch import Stopwatch
from repro.utils.tables import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro-mqo`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-mqo",
        description="Multiple query optimization on a simulated adiabatic quantum annealer",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="solve one MQO instance")
    solve.add_argument("--queries", type=int, default=20, help="number of queries to generate")
    solve.add_argument("--plans", type=int, default=2, help="plans per query")
    solve.add_argument("--seed", type=int, default=0, help="random seed")
    solve.add_argument("--reads", type=int, default=200, help="annealing reads")
    solve.add_argument(
        "--problem-file", type=str, default=None, help="load a JSON problem instead of generating"
    )
    solve.add_argument(
        "--baselines",
        action="store_true",
        help="also run the classical baselines (LIN-MQO, CLIMB, GA(50))",
    )
    solve.add_argument(
        "--decompose",
        action="store_true",
        help=(
            "solve via the parallel partition-solve-stitch decomposition "
            "instead of one monolithic QUBO (the path for instances beyond "
            "device capacity)"
        ),
    )
    solve.add_argument(
        "--max-cluster-size",
        type=int,
        default=32,
        metavar="N",
        help="queries per decomposition cluster (with --decompose; default 32)",
    )
    solve.add_argument(
        "--budget-ms", type=float, default=1000.0, help="classical time budget in milliseconds"
    )
    solve.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document instead of tables",
    )
    solve.add_argument(
        "--trace",
        type=str,
        metavar="PATH",
        default=None,
        help="record pipeline spans and write them as NDJSON here",
    )

    batch = subparsers.add_parser(
        "batch",
        help="solve a JSONL workload through the solver service",
        description=(
            "Read one instance spec per line (a full request with a 'problem' "
            "dict, a bare problem dict, or a generator spec like "
            '{"queries": 8, "plans": 2, "seed": 3}), solve it on a solver '
            "server hosted for the length of the command, and stream one "
            "JSON result per line, in input order."
        ),
    )
    batch.add_argument(
        "input", type=str, help="JSONL workload file, or '-' to read stdin"
    )
    batch.add_argument(
        "--solver",
        type=str,
        default=PORTFOLIO_SOLVER,
        help="registered solver name, or 'portfolio' to race (default)",
    )
    batch.add_argument(
        "--solvers",
        type=str,
        nargs="+",
        default=None,
        help="restrict the portfolio to these registered solvers",
    )
    batch.add_argument(
        "--budget-ms", type=float, default=1000.0, help="per-job time budget in milliseconds"
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard processes (0 or 1 = one solver thread in this process)",
    )
    batch.add_argument(
        "--seed", type=int, default=0, help="base seed for deterministic per-job seeds"
    )
    batch.add_argument(
        "--cache-file",
        type=str,
        default=None,
        help="JSON result cache; warm entries are served without re-solving",
    )
    batch.add_argument(
        "--output", type=str, default=None, help="write result JSONL here instead of stdout"
    )
    batch.add_argument(
        "--trace",
        type=str,
        metavar="PATH",
        default=None,
        help="record pipeline spans and write them as NDJSON here",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the async solver server",
        description=(
            "Start a long-running solver server speaking the newline-"
            "delimited JSON protocol (docs/server.md). Stop it with "
            "SIGINT/SIGTERM (graceful drain) or a client 'shutdown' op."
        ),
    )
    serve.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7337, help="bind port (0 = OS-assigned)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help=(
            "concurrent solver jobs per process: threads of this server, "
            "or threads in each shard process with --shards"
        ),
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help=(
            "shard solving across this many worker processes "
            "(0 = in-process threads, -1 = one shard per CPU core)"
        ),
    )
    serve.add_argument(
        "--shard-heartbeat-s",
        type=float,
        default=1.0,
        help="shard metrics/health heartbeat period in seconds",
    )
    serve.add_argument(
        "--fusion-window-ms",
        type=float,
        default=0.0,
        help=(
            "fuse annealing jobs admitted within this window into one "
            "block-diagonal anneal (0 = off; see docs/fusion.md)"
        ),
    )
    serve.add_argument(
        "--fusion-max-jobs",
        type=int,
        default=8,
        help="flush a fusion window early once it holds this many jobs",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=128, help="admission-control queue bound"
    )
    serve.add_argument(
        "--max-jobs-per-client",
        type=int,
        default=None,
        help="per-client queued-job quota (default: unbounded)",
    )
    serve.add_argument(
        "--budget-cap-ms",
        type=float,
        default=None,
        help="reject jobs requesting more than this time budget",
    )
    serve.add_argument(
        "--solvers",
        type=str,
        nargs="+",
        default=None,
        help="restrict the portfolio line-up to these registered solvers",
    )
    serve.add_argument(
        "--cache-file",
        type=str,
        default=None,
        help="persistent JSON result cache shared by all clients",
    )
    serve.add_argument(
        "--cache-ttl-s",
        type=float,
        default=None,
        help="expire cached results older than this many seconds",
    )
    serve.add_argument(
        "--trace",
        type=str,
        metavar="PATH",
        default=None,
        help=(
            "record pipeline spans (including spans adopted from shard "
            "processes) and write them as NDJSON here on shutdown"
        ),
    )

    submit = subparsers.add_parser(
        "submit",
        help="send a JSONL workload to a running server",
        description=(
            "Read one instance spec per line (same shapes as 'batch'), "
            "submit everything to a running repro-mqo server, and stream "
            "one JSON result per line as jobs finish."
        ),
    )
    submit.add_argument(
        "input", type=str, help="JSONL workload file, or '-' to read stdin"
    )
    submit.add_argument("--host", type=str, default="127.0.0.1", help="server address")
    submit.add_argument("--port", type=int, default=7337, help="server port")
    submit.add_argument(
        "--solver",
        type=str,
        default=None,
        help="solver applied to specs that do not name one",
    )
    submit.add_argument(
        "--budget-ms",
        type=float,
        default=None,
        help="time budget applied to specs that do not carry one",
    )
    submit.add_argument(
        "--seed", type=int, default=0, help="base seed for deterministic per-job seeds"
    )
    submit.add_argument(
        "--priority",
        choices=["high", "normal", "low"],
        default=None,
        help="queue priority of the submitted jobs",
    )
    submit.add_argument(
        "--client",
        type=str,
        default="",
        help="client name used for per-client queue fairness",
    )
    submit.add_argument(
        "--stream",
        action="store_true",
        help="solve jobs one at a time and print anytime updates as JSONL too",
    )
    submit.add_argument(
        "--timeout-s", type=float, default=120.0, help="socket timeout per reply"
    )
    submit.add_argument(
        "--output", type=str, default=None, help="write result JSONL here instead of stdout"
    )

    bench = subparsers.add_parser(
        "bench",
        help="run a workload suite through the benchmark orchestrator",
        description=(
            "Run every scenario of a registered workload suite against a "
            "solver (in-process service or a real server on an ephemeral "
            "port) and write one schema-validated BENCH_<suite>.json with "
            "per-scenario latency, throughput and solution quality. "
            "See docs/benchmarks.md."
        ),
    )
    bench.add_argument(
        "--suite", type=str, default="smoke", help="registered workload suite name"
    )
    bench.add_argument(
        "--list",
        action="store_true",
        help="list registered suites and scenario families, then exit",
    )
    bench.add_argument(
        "--mode",
        choices=["service", "server"],
        default="service",
        help="run through the in-process service or a real TCP server",
    )
    bench.add_argument(
        "--solver",
        type=str,
        default="CLIMB",
        help="registered solver name, or 'portfolio' to race",
    )
    bench.add_argument(
        "--budget-ms",
        type=float,
        default=None,
        help="per-job budget override (default: the suite's)",
    )
    bench.add_argument(
        "--instances",
        type=int,
        default=None,
        help="instances per scenario override (default: the suite's)",
    )
    bench.add_argument(
        "--seed", type=int, default=0, help="base seed for per-job solve seeds"
    )
    bench.add_argument(
        "--workers", type=int, default=0, help="server worker slots (server mode)"
    )
    bench.add_argument(
        "--quality-reference",
        type=str,
        default="GREEDY",
        help="reference solver for the quality gap ('' disables)",
    )
    bench.add_argument(
        "--output-dir",
        type=str,
        default="benchmark_results",
        help="directory receiving BENCH_<suite>.json",
    )
    bench.add_argument(
        "--no-save",
        action="store_true",
        help="print the summary without writing the BENCH document",
    )
    bench.add_argument(
        "--emit-workload",
        type=str,
        metavar="PATH",
        default=None,
        help="write the suite as a JSONL workload for batch/submit, then exit",
    )
    bench.add_argument(
        "--trace",
        type=str,
        metavar="PATH",
        default=None,
        help="write the spans recorded during the run as NDJSON here",
    )

    metrics = subparsers.add_parser(
        "metrics",
        help="fetch Prometheus metrics from a running server",
        description=(
            "Connect to a running repro-mqo server, issue the 'metrics' "
            "protocol op, and print the Prometheus text exposition to "
            "stdout (suitable for piping into promtool or a file scrape)."
        ),
    )
    metrics.add_argument("--host", type=str, default="127.0.0.1", help="server address")
    metrics.add_argument("--port", type=int, default=7337, help="server port")
    metrics.add_argument(
        "--timeout-s", type=float, default=10.0, help="socket timeout for the reply"
    )

    top = subparsers.add_parser(
        "top",
        help="live per-shard view of a running server",
        description=(
            "Poll a running repro-mqo server's stats op and render a "
            "per-shard table (throughput, latency percentiles, queue "
            "depths, restarts). On a terminal the view "
            "refreshes in place until interrupted; when stdout is piped it "
            "degrades to a single snapshot."
        ),
    )
    top.add_argument("--host", type=str, default="127.0.0.1", help="server address")
    top.add_argument("--port", type=int, default=7337, help="server port")
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between refreshes"
    )
    top.add_argument(
        "--count",
        type=int,
        default=0,
        help="stop after this many refreshes (0 = until interrupted)",
    )
    top.add_argument(
        "--timeout-s", type=float, default=10.0, help="socket timeout per poll"
    )

    capacity = subparsers.add_parser(
        "capacity", help="print the Figure 7 capacity frontier for qubit budgets"
    )
    capacity.add_argument(
        "--qubits",
        type=int,
        nargs="+",
        default=[1152, 2304, 4608],
        help="qubit budgets to project",
    )
    capacity.add_argument(
        "--pattern",
        choices=["clustered", "native"],
        default="clustered",
        help="embedding pattern used for the projection",
    )

    subparsers.add_parser("info", help="print device and profile information")
    return parser


class _TraceRecorder:
    """Enable tracing for a CLI command and write the spans on exit.

    A no-op when ``path`` is None, so commands pay nothing unless
    ``--trace`` was given.  Spans already buffered before the command
    started are discarded rather than attributed to this run.
    """

    def __init__(self, path: Optional[str]) -> None:
        self.path = path

    def __enter__(self) -> "_TraceRecorder":
        if self.path is not None:
            self._was_enabled = get_tracer().enabled
            configure_tracer(True).drain()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.path is not None:
            spans = get_tracer().drain()
            configure_tracer(self._was_enabled)
            write_ndjson(spans, self.path)
            print(f"wrote {len(spans)} spans to {self.path}", file=sys.stderr)


def _run_solve(args: argparse.Namespace) -> int:
    with _TraceRecorder(args.trace):
        return _run_solve_traced(args)


def _run_solve_traced(args: argparse.Namespace) -> int:
    if args.problem_file:
        problem = load_problem(args.problem_file)
    else:
        problem = generate_paper_testcase(args.queries, args.plans, seed=args.seed)
    if not args.json:
        print(problem.describe())

    solver_payloads = []
    qubits_per_variable = None  # no QUBO embedding on the decomposed path
    if args.decompose:
        from repro.core.decomposition import ParallelDecomposition

        decomposition = ParallelDecomposition(max_cluster_size=args.max_cluster_size)
        outcome = decomposition.decompose(
            problem, time_budget_ms=args.budget_ms, seed=args.seed
        )
        trajectory = outcome.trajectory
        if not args.json:
            print(
                f"decomposed into {outcome.num_clusters} clusters over "
                f"{outcome.num_waves} waves"
                + (f" ({len(outcome.errors)} cluster solves failed)" if outcome.errors else "")
            )
        rows = [
            (
                trajectory.solver_name,
                trajectory.best_cost,
                trajectory.total_time_ms,
                float("nan"),
            )
        ]
        if args.json:
            request = SolveRequest(
                problem=problem,
                solver=trajectory.solver_name,
                time_budget_ms=args.budget_ms,
                seed=args.seed,
                job_id=problem.name,
            )
            solver_payloads.append(SolveResult.from_trajectory(request, trajectory))
    else:
        pipeline = QuantumMQO(seed=args.seed)
        result = pipeline.solve(problem, num_reads=args.reads)
        qubits_per_variable = result.qubits_per_variable
        rows = [
            (
                "QA",
                result.best_solution.cost,
                result.device_time_ms,
                result.qubits_per_variable,
            )
        ]
        if args.json:
            solver_payloads.append(
                SolveResult(
                    job_id=problem.name,
                    solver="QA",
                    winner="QA",
                    best_cost=result.best_solution.cost,
                    selected_plans=sorted(result.best_solution.selected_plans),
                    is_valid=result.best_solution.is_valid,
                    trajectory=list(result.trajectory),
                    total_time_ms=result.device_time_ms,
                    seed=args.seed,
                )
            )

    if args.baselines:
        for solver in (
            IntegerProgrammingMQOSolver(),
            IteratedHillClimbing(),
            GeneticAlgorithmSolver(population_size=50),
        ):
            trajectory = solver.solve(problem, time_budget_ms=args.budget_ms, seed=args.seed)
            rows.append((solver.name, trajectory.best_cost, trajectory.total_time_ms, float("nan")))
            if args.json:
                request = SolveRequest(
                    problem=problem,
                    solver=solver.name,
                    time_budget_ms=args.budget_ms,
                    seed=args.seed,
                    job_id=problem.name,
                )
                solver_payloads.append(SolveResult.from_trajectory(request, trajectory))

    if args.json:
        document = {
            "problem": {
                "name": problem.name,
                "num_queries": problem.num_queries,
                "num_plans": problem.num_plans,
                "num_savings": problem.num_savings,
                "canonical_hash": problem.canonical_hash(),
            },
            "qubits_per_variable": qubits_per_variable,
            "results": [payload.to_dict() for payload in solver_payloads],
        }
        print(json.dumps(document, indent=2))
        return 0

    print()
    print(
        format_table(
            ["solver", "best cost", "time (ms)", "qubits/var"],
            rows,
            float_fmt=".3f",
        )
    )
    return 0


#: Result-cache entries of batch's private server: the window of
#: whole-workload dedupe.
_BATCH_CACHE_CAPACITY = 1024

#: Frame limit of batch's private server and client.  Batch reads lines
#: of any size, so nothing on its loopback connection may refuse one.
_BATCH_FRAME_BYTES = 1 << 62


def _iter_workload(source: str) -> Iterator[dict]:
    """Lazily parse a JSONL workload from a file path or stdin (``-``).

    Lines are read and parsed one at a time, so arbitrarily large
    workload files never spike the resident set; a malformed line only
    raises when the stream reaches it.
    """
    if source == "-":
        handle = sys.stdin
        owns_handle = False
    else:
        try:
            handle = open(source, "r", encoding="utf-8")
        except OSError as exc:
            raise ReproError(f"cannot read workload file {source}: {exc}") from exc
        owns_handle = True
    try:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"workload line {line_number} is not valid JSON: {exc}"
                ) from exc
    finally:
        if owns_handle:
            handle.close()


@contextlib.contextmanager
def _result_sink(path: Optional[str]) -> Iterator[Callable[[dict], None]]:
    """An ``emit(document)`` that writes one JSON line to ``path`` or stdout.

    The file is opened on the first document, so a bad or empty input
    never truncates an existing output file.
    """
    handle = None

    def emit(document: dict) -> None:
        nonlocal handle
        if handle is None:
            handle = open(path, "w") if path else sys.stdout
        handle.write(json.dumps(document) + "\n")
        handle.flush()

    try:
        yield emit
    finally:
        if handle is not None and handle is not sys.stdout:
            handle.close()


def _run_batch(args: argparse.Namespace) -> int:
    if args.workers < 0:
        raise ServiceError(f"workers must be non-negative, got {args.workers}")
    with _TraceRecorder(args.trace):
        return _run_batch_traced(args)


def _batch_frontend(
    solvers: Optional[Sequence[str]], cache_file: Optional[str]
) -> ServiceFrontend:
    """The frontend of batch's private server, on either tier.

    It holds the server's only result cache, the ``--cache-file`` one or
    an in-memory LRU, so a repeated line comes back ``from_cache``
    whether it is coalesced in flight or arrives after its twin
    finished.  ``--solvers`` is the portfolio line-up, so a spec's own
    line-up still wins.
    """
    cache = ResultCache(capacity=_BATCH_CACHE_CAPACITY, path=cache_file)
    return ServiceFrontend(cache=cache, portfolio_solvers=solvers)


def _run_batch_traced(args: argparse.Namespace) -> int:
    """Host a solver server on a loopback port and feed it the workload.

    ``--workers 0`` or ``1`` runs the thread tier with one worker, and
    ``--workers N`` runs N shard processes.  Results come back in input
    order.  A file-backed cache is saved once, at the end.
    """
    frontend = _batch_frontend(args.solvers, args.cache_file)
    config = ServerConfig(
        port=0,
        workers=1,
        shards=args.workers if args.workers > 1 else 0,
        max_frame_bytes=_BATCH_FRAME_BYTES,
    )
    stopwatch = Stopwatch().start()
    handle = run_server_in_thread(config, frontend=frontend)
    try:
        with _result_sink(args.output) as emit, SolverClient(
            port=handle.port, timeout_s=None, max_frame_bytes=_BATCH_FRAME_BYTES
        ) as client:
            total, hits, failures = _send_workload(client, args, emit)
    except BaseException:
        # Aborted (bad line, ^C): stop without draining, so the jobs still
        # in flight are dropped, then wait for the server thread to end.
        try:
            with SolverClient(port=handle.port) as client:
                client.shutdown(drain=False)
        except ReproError:
            handle.stop()
        handle.thread.join()
        raise
    else:
        handle.stop()
    finally:
        if args.cache_file:
            frontend.cache.save()
    if total == 0:
        print("workload is empty; nothing to solve", file=sys.stderr)
        return 1
    print(
        f"solved {total} jobs in {stopwatch.elapsed_ms() / 1000.0:.2f}s "
        f"({hits} cache hits, {failures} failures, workers={args.workers})",
        file=sys.stderr,
    )
    return 1 if failures else 0


#: How often a serving process checkpoints its --cache-file to disk.
_SERVE_CACHE_SAVE_INTERVAL_S = 30.0


def _run_serve(args: argparse.Namespace) -> int:
    """Run the solver server until SIGINT/SIGTERM or a client shutdown.

    With ``--trace`` the process tracer is enabled for the server's
    lifetime; shard processes see the enablement through the per-job
    ``collect_spans`` flag, so their spans are adopted into this buffer
    and written alongside the parent's own on shutdown.
    """
    with _TraceRecorder(args.trace):
        return _run_serve_traced(args)


def _run_serve_traced(args: argparse.Namespace) -> int:
    """The ``serve`` body, run inside the optional trace recorder."""
    cache = (
        ResultCache(path=args.cache_file, ttl_seconds=args.cache_ttl_s)
        if args.cache_file
        else None
    )
    frontend = ServiceFrontend(cache=cache, portfolio_solvers=args.solvers)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        max_jobs_per_client=args.max_jobs_per_client,
        max_budget_ms=args.budget_cap_ms,
        shards=args.shards,
        shard_heartbeat_s=args.shard_heartbeat_s,
        fusion_window_ms=args.fusion_window_ms,
        fusion_max_jobs=args.fusion_max_jobs,
    )
    server = SolverServer(config=config, frontend=frontend)

    def save_cache() -> None:
        """Checkpoint the shared result cache (atomic; errors reported)."""
        if cache is None or cache.path is None:
            return
        try:
            cache.save()
        except (ReproError, OSError) as exc:
            print(f"repro-mqo serve: cache save failed: {exc}", file=sys.stderr)

    async def periodic_cache_save() -> None:
        """Checkpoint the cache while serving, so a crash loses little.

        The JSON dump + disk write runs on the executor — checkpointing
        must not stall the event loop that serves every connection.
        """
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(_SERVE_CACHE_SAVE_INTERVAL_S)
            await loop.run_in_executor(None, save_cache)

    async def main() -> None:
        """Serve until stopped, draining gracefully on signals."""
        await server.start()
        loop = asyncio.get_running_loop()
        try:
            import signal

            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(server.stop())
                )
        except (ImportError, NotImplementedError, RuntimeError):
            pass  # platforms without signal handler support still serve
        saver = (
            loop.create_task(periodic_cache_save())
            if cache is not None and cache.path is not None
            else None
        )
        print(
            f"repro-mqo serve: listening on {server.host}:{server.port} "
            f"(workers={config.workers}, shards={config.shards}, "
            f"fusion_window_ms={config.fusion_window_ms}, "
            f"queue={config.queue_capacity})",
            file=sys.stderr,
            flush=True,
        )
        try:
            await server.wait_stopped()
        finally:
            if saver is not None:
                saver.cancel()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass  # signal handler unavailable; exiting without drain
    finally:
        # Persist on every exit path, including a bare KeyboardInterrupt.
        save_cache()
    print("repro-mqo serve: stopped", file=sys.stderr)
    return 0


#: Outstanding pipelined jobs per ``submit`` or ``batch`` connection.  Kept
#: well below the server's default queue capacity so a long workload
#: self-throttles instead of tripping admission control.
_SUBMIT_WINDOW = 32


def _submit_spec_and_seed(
    spec: object, base_seed: int, index: int
) -> Tuple[object, Optional[int]]:
    """Derive the per-job solve seed without disturbing problem generation.

    ``request_from_spec`` falls back to a spec's ``seed`` as the
    *generator* seed for generator specs, so injecting the derived solve
    seed naively would change which problem is built.  So a generator
    spec without an explicit ``generator_seed`` keeps generating as if no
    seed were given, and the derived seed applies to solving only.
    """
    if not isinstance(spec, dict) or spec.get("seed") is not None:
        return spec, None
    if "queries" in spec and "problem" not in spec and "generator_seed" not in spec:
        spec = dict(spec, generator_seed=None)
    return spec, derive_job_seed(base_seed, index)


def _submit_budget(spec: object, default_budget_ms: Optional[float]) -> Optional[float]:
    """--budget-ms is a *default*: a spec's own budget wins."""
    if isinstance(spec, dict) and ("budget_ms" in spec or "time_budget_ms" in spec):
        return None
    return default_budget_ms


def _submit_job_id(spec: object, index: int) -> Optional[str]:
    """Stable per-line result ids (``job-N``) unless a spec names its own."""
    if isinstance(spec, dict) and spec.get("job_id"):
        return None
    return f"job-{index}"


def _submit_solver(spec: object, default_solver: Optional[str]) -> Optional[str]:
    """--solver is a *default*: a spec's own solver wins."""
    if isinstance(spec, dict) and spec.get("solver"):
        return None
    return default_solver


def _send_workload(
    client: SolverClient,
    args: argparse.Namespace,
    emit: Callable[[dict], None],
    stream: bool = False,
    priority: Optional[str] = None,
) -> Tuple[int, int, int]:
    """Send the workload ``args.input`` to a server; emit results in input order.

    The loop ``submit`` and ``batch`` share.  ``--solver``,
    ``--budget-ms`` and ``--seed`` fill in what a spec leaves out, and
    every line gets a ``job-N`` id unless it names its own.  Jobs are
    pipelined with a bounded window: the oldest result is collected
    whenever the window fills (or the server pushes back), so long
    workloads neither overrun admission control nor hold every job id in
    flight.  With ``stream`` one job runs at a time and its anytime
    updates are emitted too.  Returns ``(jobs, cache hits, failures)``.
    """
    total = hits = failures = 0

    def record(result: SolveResult) -> None:
        nonlocal total, hits, failures
        total += 1
        hits += int(result.from_cache)
        failures += int(not result.ok)
        emit(result.to_dict())

    pending: "deque[str]" = deque()
    for index, spec in enumerate(_iter_workload(args.input)):
        spec, seed = _submit_spec_and_seed(spec, args.seed, index)
        fields = {
            "solver": _submit_solver(spec, args.solver),
            "budget_ms": _submit_budget(spec, args.budget_ms),
            "seed": seed,
            "job_id": _submit_job_id(spec, index),
            "priority": priority,
        }
        if stream:
            record(client.solve(spec, on_update=emit, **fields))
            continue
        while True:
            try:
                pending.append(client.submit(spec, **fields))
                break
            except AdmissionError as exc:
                # Only transient backpressure is retryable;
                # 'budget'/'draining' rejections repeat forever.
                if exc.code not in ("queue_full", "client_quota") or not pending:
                    raise
                record(client.wait(pending.popleft()))
        if len(pending) >= _SUBMIT_WINDOW:
            record(client.wait(pending.popleft()))
    while pending:
        record(client.wait(pending.popleft()))
    return total, hits, failures


def _run_submit(args: argparse.Namespace) -> int:
    """Submit a workload to a running server and stream results back."""
    stopwatch = Stopwatch().start()
    with _result_sink(args.output) as emit, SolverClient(
        host=args.host,
        port=args.port,
        client_name=args.client,
        timeout_s=args.timeout_s,
    ) as client:
        total, _hits, failures = _send_workload(
            client, args, emit, stream=args.stream, priority=args.priority
        )
    if total == 0:
        print("workload is empty; nothing to submit", file=sys.stderr)
        return 1
    print(
        f"submitted {total} jobs to {args.host}:{args.port} in "
        f"{stopwatch.elapsed_ms() / 1000.0:.2f}s ({failures} failures)",
        file=sys.stderr,
    )
    return 1 if failures else 0


def _run_bench(args: argparse.Namespace) -> int:
    """Run a workload suite through the benchmark orchestrator."""
    from repro.bench import BenchOrchestrator, BenchRunConfig, emit_workload_jsonl, render_summary
    from repro.workloads import list_families, list_suites

    if args.list:
        print("Workload suites:")
        for suite in list_suites():
            arrival = f", {suite.arrival.kind} arrivals" if suite.arrival else ""
            print(
                f"  {suite.name:16s} {len(suite.scenarios):2d} scenarios, "
                f"budget {suite.default_budget_ms:g} ms{arrival} — {suite.description}"
            )
            for spec in suite.scenarios:
                print(f"      {spec.name:22s} [{spec.family}] seed={spec.seed}")
        print("\nScenario families:")
        for family in list_families():
            print(f"  {family.name:16s} {family.description}")
        return 0

    if args.emit_workload:
        path = emit_workload_jsonl(
            args.suite,
            args.emit_workload,
            solver=args.solver,
            budget_ms=args.budget_ms,
            instances=args.instances,
        )
        print(f"wrote workload JSONL to {path}", file=sys.stderr)
        return 0

    config = BenchRunConfig(
        suite=args.suite,
        mode=args.mode,
        solver=args.solver,
        budget_ms=args.budget_ms,
        instances=args.instances,
        seed=args.seed,
        workers=args.workers,
        quality_reference=args.quality_reference,
    )
    orchestrator = BenchOrchestrator(config)
    if args.no_save:
        document = orchestrator.run()
    else:
        document, path = orchestrator.run_and_save(args.output_dir)
        print(f"wrote {path}", file=sys.stderr)
    if args.trace:
        # The orchestrator records spans on every run; export its buffer.
        write_ndjson(orchestrator.last_spans, args.trace)
        print(
            f"wrote {len(orchestrator.last_spans)} spans to {args.trace}",
            file=sys.stderr,
        )
    print(render_summary(document))
    failures = document["totals"]["failures"]
    if failures:
        print(f"error: {failures} job(s) failed", file=sys.stderr)
        return 1
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    """Print a running server's Prometheus exposition text."""
    with SolverClient(host=args.host, port=args.port, timeout_s=args.timeout_s) as client:
        text = client.metrics_text()
    sys.stdout.write(text)
    if text and not text.endswith("\n"):
        sys.stdout.write("\n")
    return 0


def _render_top(host: str, port: int, stats: dict) -> str:
    """Render one ``top`` frame from a ``stats`` payload (pure).

    The payload carries throughput and latency percentiles, and under
    ``health`` the pool's state: verdict, tier, the jobs staged in the
    fusion window when fusion is on and, with shards, one entry per
    shard with its liveness, load and job counts.
    """
    health = stats.get("health", {})
    counters = stats.get("counters", {})
    queue_wait = stats.get("queue_wait", {})
    job_run = stats.get("job_run", {})
    lines = [
        f"repro-mqo top — {host}:{port} — verdict {health.get('verdict', '?')} "
        f"(tier {health.get('tier', '?')}), uptime {stats.get('uptime_s', 0.0):.1f}s",
        f"jobs: {counters.get('jobs_finished', 0)} finished, "
        f"{counters.get('jobs_failed', 0)} failed, "
        f"{stats.get('jobs_finished_per_second', 0.0):.2f}/s | "
        f"queue: {stats.get('queue_depth', 0)} queued, "
        f"{stats.get('inflight', 0)} running | "
        f"streams: {stats.get('stream_channels', 0)}",
        f"queue wait p50/p99: {queue_wait.get('p50_ms', 0.0):.1f}/"
        f"{queue_wait.get('p99_ms', 0.0):.1f} ms | "
        f"run p50/p99: {job_run.get('p50_ms', 0.0):.1f}/"
        f"{job_run.get('p99_ms', 0.0):.1f} ms",
    ]
    staged = f" | fusion window staged: {health['staged']}" if "staged" in health else ""
    shards = health.get("shards")
    if not shards:
        lines.append(
            f"workers active: {health.get('active', stats.get('inflight', 0))}{staged}"
        )
        return "\n".join(lines) + "\n"
    lines.append(
        f"shards: {health.get('alive', 0)}/{health.get('count', 0)} alive, "
        f"{health.get('restarts', 0)} restarts{staged}"
    )
    lines.append("")
    rows = []
    for index in sorted(shards, key=int):
        state = shards[index]
        if state.get("dead"):
            verdict = "dead"
        elif not state.get("ready"):
            verdict = "boot"
        elif state.get("stale"):
            verdict = "stale"
        else:
            verdict = "up"
        rows.append(
            (
                index,
                state.get("pid") or "-",
                verdict,
                state.get("jobs", 0),
                state.get("failures", 0),
                state.get("retries", 0),
                state.get("restarts", 0),
                state.get("assigned", 0),
                f"{state.get('heartbeat_age_s', 0.0):.1f}s",
            )
        )
    lines.append(
        format_table(
            [
                "shard", "pid", "state", "jobs", "fail", "retry",
                "restarts", "assigned", "hb age",
            ],
            rows,
        )
    )
    return "\n".join(lines) + "\n"


def _run_top(args: argparse.Namespace) -> int:
    """Poll a running server and render the live per-shard view.

    Each frame is one ``stats`` call.  On a terminal the frame redraws
    in place (ANSI clear) every ``--interval`` seconds until ``--count``
    frames were shown or the user interrupts; with stdout piped and no
    explicit ``--count`` it prints a single frame and exits, so scripts
    get one parseable dump.
    """
    interactive = sys.stdout.isatty()
    limit: Optional[int] = args.count if args.count > 0 else (None if interactive else 1)
    rendered = 0
    try:
        while True:
            with SolverClient(
                host=args.host, port=args.port, timeout_s=args.timeout_s
            ) as client:
                stats = client.stats()
            frame = _render_top(args.host, args.port, stats)
            if interactive:
                sys.stdout.write("\x1b[2J\x1b[H")  # clear screen, home cursor
            sys.stdout.write(frame)
            sys.stdout.flush()
            rendered += 1
            if limit is not None and rendered >= limit:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _run_capacity(args: argparse.Namespace) -> int:
    print(figure7_table(qubit_budgets=tuple(args.qubits), pattern=args.pattern))
    return 0


def _run_info() -> int:
    profile = get_profile()
    info = {
        "device": {
            "name": DWAVE_2X.name,
            "total_qubits": DWAVE_2X.total_qubits,
            "functional_qubits": DWAVE_2X.functional_qubits,
            "time_per_read_us": DWAVE_2X.time_per_read_us,
        },
        "profile": {
            "name": profile.name,
            "num_instances": profile.num_instances,
            "classical_budget_ms": profile.classical_budget_ms,
            "num_reads": profile.num_reads,
        },
    }
    print(json.dumps(info, indent=2))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-mqo`` command."""
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    try:
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "batch":
            return _run_batch(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "submit":
            return _run_submit(args)
        if args.command == "bench":
            return _run_bench(args)
        if args.command == "metrics":
            return _run_metrics(args)
        if args.command == "top":
            return _run_top(args)
        if args.command == "capacity":
            return _run_capacity(args)
        if args.command == "info":
            return _run_info()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
