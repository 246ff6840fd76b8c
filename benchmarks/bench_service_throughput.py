"""Service-layer throughput: ``repro-mqo batch`` on one thread versus shards.

Solves the same 32-instance workload twice through ``repro-mqo batch``:
once with ``--workers 0`` (the thread tier with one worker, one
instance at a time on one core) and once with ``--workers 4`` (four
shard processes), and records the wall-clock speedup.  Both times
include hosting the private server, shard start-up included.  Each job
runs the CLIMB heuristic under a fixed per-job budget, so the workload
is budget-bound and the comparison measures the tiers' concurrency, not
solver luck.

Both passes are persisted as one schema-validated BENCH document
(``benchmark_results/BENCH_service.json``; scenario ``sequential``
versus ``batch-pool``), so the speedup is machine-checkable with the
same tooling as every other benchmark.
"""

import json
import time
from pathlib import Path

from repro.bench.schema import build_bench_document, save_bench_document
from repro.bench.stats import summarize_latencies
from repro.cli import main
from repro.service.jobs import SolveResult

NUM_INSTANCES = 32
WORKERS = 4
BUDGET_MS = 150.0
BASE_SEED = 20160909


def _write_workload(path):
    """Generator specs of ``generate_paper_testcase(6, 2, seed=index)``."""
    with open(path, "w") as handle:
        for index in range(NUM_INSTANCES):
            spec = {"queries": 6, "plans": 2, "generator_seed": index, "job_id": f"bench-{index}"}
            handle.write(json.dumps(spec) + "\n")
    return path


def _batch(workload, workers, output):
    """Run ``repro-mqo batch`` over the workload; return its results."""
    exit_code = main(
        [
            "batch",
            str(workload),
            "--solver",
            "CLIMB",
            "--budget-ms",
            str(BUDGET_MS),
            "--seed",
            str(BASE_SEED),
            "--workers",
            str(workers),
            "--output",
            str(output),
        ]
    )
    assert exit_code == 0
    return [SolveResult.from_dict(json.loads(line)) for line in output.read_text().splitlines()]


def _scenario(name, results, elapsed_s):
    """One BENCH scenario block from a pass over the workload."""
    latencies_ms = [result.total_time_ms for result in results]
    return {
        "name": name,
        "family": "paper",
        "jobs": len(results),
        "failures": sum(1 for result in results if not result.ok),
        "duration_s": round(elapsed_s, 3),
        "throughput_jobs_per_s": round(len(results) / elapsed_s, 3),
        "latency_ms": summarize_latencies(latencies_ms),
    }


def bench_service_batch_throughput(benchmark, save_exhibit, tmp_path):
    workload = _write_workload(tmp_path / "workload.jsonl")

    start = time.perf_counter()
    sequential = _batch(workload, 0, tmp_path / "sequential.jsonl")
    sequential_s = time.perf_counter() - start

    def run_batch():
        return _batch(workload, WORKERS, tmp_path / "sharded.jsonl")

    start = time.perf_counter()
    batched = benchmark.pedantic(run_batch, rounds=1, iterations=1)
    batched_s = time.perf_counter() - start

    assert len(sequential) == len(batched) == NUM_INSTANCES
    assert all(result.ok for result in sequential + batched)
    # Per-job seeds derive from (base_seed, position) only, so both runs
    # hand every solver the same stream.  (Exact cost equality is not
    # asserted: CLIMB is wall-clock-budgeted, so worker contention can
    # truncate restarts differently.)
    assert [r.seed for r in sequential] == [r.seed for r in batched]

    speedup = sequential_s / batched_s
    scenarios = [
        _scenario("sequential", sequential, sequential_s),
        _scenario("batch-pool", batched, batched_s),
    ]
    totals = {
        "jobs": 2 * NUM_INSTANCES,
        "failures": 0,
        "duration_s": round(sequential_s + batched_s, 3),
        "throughput_jobs_per_s": round(
            2 * NUM_INSTANCES / (sequential_s + batched_s), 3
        ),
        "latency_ms": summarize_latencies(
            [r.total_time_ms for r in sequential + batched]
        ),
    }
    document = build_bench_document(
        suite="service",
        mode="service",
        scenarios=scenarios,
        totals=totals,
        config={
            "instances": NUM_INSTANCES,
            "workers": WORKERS,
            "budget_ms": BUDGET_MS,
            "base_seed": BASE_SEED,
            "speedup": round(speedup, 3),
        },
    )
    results_dir = Path(__file__).resolve().parent.parent / "benchmark_results"
    save_bench_document(document, results_dir / "BENCH_service.json")

    lines = ["Service throughput: repro-mqo batch on one thread vs shards", ""]
    lines += [
        f"  {'instances':>18}: {NUM_INSTANCES}",
        f"  {'workers':>18}: {WORKERS}",
        f"  {'budget_ms_per_job':>18}: {BUDGET_MS}",
        f"  {'sequential_s':>18}: {round(sequential_s, 3)}",
        f"  {'batch_s':>18}: {round(batched_s, 3)}",
        f"  {'speedup':>18}: {round(speedup, 3)}",
    ]
    save_exhibit("service_throughput", "\n".join(lines))

    # Shards must beat the one-thread run on a budget-bound workload;
    # 4 shards leave comfortable margin over their start-up.
    assert speedup > 1.2, f"sharded batch too slow: {document['config']}"
