"""Solver-server throughput: closed-loop multi-client load generation.

Boots a real :class:`SolverServer` (in-process, ephemeral port), then
hammers it with ``REPRO_BENCH_SERVER_CLIENTS`` concurrent closed-loop
clients — each on its own thread and TCP connection, submitting the
next job the moment the previous result arrives — for
``REPRO_BENCH_SERVER_SECONDS`` of wall clock.  Every job runs the CLIMB
heuristic under a small fixed budget with a unique seed, so the
workload is budget-bound, coalescing-free and measures the server
stack: protocol, queue, worker tier, executor.

Two scenarios run back to back against the same workload:

* ``closed-loop-climb``         — the thread tier: the worker pool's
  slots are ``REPRO_BENCH_SERVER_WORKERS`` executor threads,
* ``closed-loop-climb-sharded`` — the shard tier: the same number of
  slots in each of ``REPRO_BENCH_SERVER_SHARDS`` shard processes
  (default ``max(2, cpu_count)``), every slot pulling its next job from
  the one queue, with problems crossing the pipes zero-copy.

The BENCH document's ``totals`` aggregate both scenarios (the schema
requires jobs to sum), so the regression gate
(``tools/check_bench_regression.py``) holds the *combined* throughput
and tail latency to the committed baseline — a regression in either
tier trips it.  On a multicore runner the sharded tier is expected to
multiply throughput (solves no longer serialise on one GIL); on a
single-core machine the two are roughly equal minus pipe overhead.
"""

import os
import threading
import time
from pathlib import Path

from repro.bench.schema import build_bench_document, save_bench_document
from repro.bench.stats import summarize_latencies
from repro.server.app import ServerConfig, run_server_in_thread
from repro.server.client import SolverClient
from repro.server.readiness import wait_for_server

DURATION_S = float(os.environ.get("REPRO_BENCH_SERVER_SECONDS", "5"))
NUM_CLIENTS = max(4, int(os.environ.get("REPRO_BENCH_SERVER_CLIENTS", "4")))
SERVER_WORKERS = int(os.environ.get("REPRO_BENCH_SERVER_WORKERS", "4"))
SERVER_SHARDS = int(
    os.environ.get("REPRO_BENCH_SERVER_SHARDS", str(max(2, os.cpu_count() or 1)))
)
BUDGET_MS = 40.0
SOLVER = "CLIMB"


def _client_loop(port, client_index, deadline, latencies_ms, failures):
    """One closed-loop client: solve, record latency, repeat."""
    with SolverClient(
        port=port, client_name=f"bench-{client_index}", timeout_s=60.0
    ) as client:
        iteration = 0
        while time.perf_counter() < deadline:
            seed = client_index * 1_000_000 + iteration
            spec = {"queries": 5, "plans": 2, "generator_seed": seed % 64}
            start = time.perf_counter()
            result = client.solve(
                spec, solver=SOLVER, budget_ms=BUDGET_MS, seed=seed
            )
            latencies_ms.append((time.perf_counter() - start) * 1000.0)
            if not result.ok:
                failures.append(result.error)
            iteration += 1


def _run_scenario(name, config):
    """Boot a server with ``config``, run the closed loop, summarise."""
    handle = run_server_in_thread(config)
    per_client_latencies = [[] for _ in range(NUM_CLIENTS)]
    failures = []
    try:
        if config.shards > 0:
            wait_for_server(
                port=handle.port, timeout_s=30.0, min_shards=config.shards
            )
        deadline = time.perf_counter() + DURATION_S
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(handle.port, index, deadline, per_client_latencies[index], failures),
                name=f"bench-client-{index}",
            )
            for index in range(NUM_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed_s = time.perf_counter() - start
        with SolverClient(port=handle.port) as observer:
            server_stats = observer.stats()
    finally:
        handle.stop()

    latencies = [sample for bucket in per_client_latencies for sample in bucket]
    assert not failures, f"{name}: server returned failures: {failures[:3]}"
    assert latencies, f"{name}: no jobs completed during the load window"
    assert all(bucket for bucket in per_client_latencies), (
        f"{name}: every client must complete jobs — per-client fairness is "
        "broken otherwise"
    )
    jobs_per_s = len(latencies) / elapsed_s
    scenario = {
        "name": name,
        "family": "paper",
        "jobs": len(latencies),
        "failures": 0,
        "duration_s": round(elapsed_s, 3),
        "throughput_jobs_per_s": round(jobs_per_s, 3),
        "latency_ms": summarize_latencies(latencies),
        "min_jobs_per_client": min(len(bucket) for bucket in per_client_latencies),
        "server_stats": server_stats,
    }
    return scenario, latencies


def bench_server_throughput(benchmark, save_exhibit):
    assert NUM_CLIENTS >= 4, "the load test must run at least 4 concurrent clients"
    scenarios = []
    all_latencies = []

    def run_load():
        for name, config in (
            (
                "closed-loop-climb",
                ServerConfig(port=0, workers=SERVER_WORKERS, queue_capacity=256),
            ),
            (
                "closed-loop-climb-sharded",
                ServerConfig(
                    port=0,
                    workers=SERVER_WORKERS,
                    queue_capacity=256,
                    shards=SERVER_SHARDS,
                ),
            ),
        ):
            scenario, latencies = _run_scenario(name, config)
            scenarios.append(scenario)
            all_latencies.extend(latencies)

    benchmark.pedantic(run_load, rounds=1, iterations=1)
    threaded, sharded = scenarios

    total_duration_s = threaded["duration_s"] + sharded["duration_s"]
    totals = {
        "jobs": len(all_latencies),
        "failures": 0,
        "duration_s": round(total_duration_s, 3),
        "throughput_jobs_per_s": round(len(all_latencies) / total_duration_s, 3),
        "latency_ms": summarize_latencies(all_latencies),
    }
    document = build_bench_document(
        suite="server",
        mode="server",
        scenarios=scenarios,
        totals=totals,
        config={
            "clients": NUM_CLIENTS,
            "server_workers": SERVER_WORKERS,
            "server_shards": SERVER_SHARDS,
            "window_s": DURATION_S,
            "budget_ms": BUDGET_MS,
            "solver": SOLVER,
        },
    )
    results_dir = Path(__file__).resolve().parent.parent / "benchmark_results"
    save_bench_document(document, results_dir / "BENCH_server.json")

    speedup = sharded["throughput_jobs_per_s"] / threaded["throughput_jobs_per_s"]
    lines = [
        f"Server throughput: {NUM_CLIENTS} closed-loop clients, "
        f"{DURATION_S:.0f}s window per scenario",
        "",
    ]
    for scenario in scenarios:
        tier = (
            f"{SERVER_SHARDS} shard processes"
            if scenario is sharded
            else f"{SERVER_WORKERS} worker threads"
        )
        lines.append(f"  {scenario['name']} ({tier}):")
        lines.append(f"  {'jobs_completed':>20}: {scenario['jobs']}")
        lines.append(f"  {'jobs_per_second':>20}: {scenario['throughput_jobs_per_s']}")
        for key in ("p50", "p99", "max"):
            lines.append(f"  {'latency_' + key + '_ms':>20}: {scenario['latency_ms'][key]}")
        lines.append(
            f"  {'min_jobs_per_client':>20}: {scenario['min_jobs_per_client']}"
        )
        queue_wait = scenario["server_stats"]["queue_wait"]
        lines.append(
            f"  {'server queue_wait':>20}: p50={queue_wait['p50_ms']} ms, "
            f"p99={queue_wait['p99_ms']} ms"
        )
        lines.append("")
    lines.append(
        f"  sharded/threaded throughput: {speedup:.2f}x "
        f"(cpu_count={os.cpu_count()}; the multiplier needs real cores)"
    )
    save_exhibit("server_throughput", "\n".join(lines))

    # Sanity floors, not a race: both tiers must sustain real concurrent
    # traffic.  The >= 4x multicore speedup target is enforced by the
    # regression gate against a multicore baseline, not asserted here —
    # on a single-core runner the sharded tier cannot exceed 1x.
    for scenario in scenarios:
        assert scenario["throughput_jobs_per_s"] > NUM_CLIENTS / 2.0, (
            f"server too slow: {scenario['name']}: {scenario['throughput_jobs_per_s']}"
        )
        assert scenario["latency_ms"]["p99"] >= scenario["latency_ms"]["p50"]
        stats = scenario["server_stats"]
        assert stats["counters"]["jobs_completed"] >= scenario["jobs"]
    assert sharded["server_stats"]["health"]["alive"] == SERVER_SHARDS
    assert sharded["server_stats"]["health"]["restarts"] == 0
