"""Partition–solve–stitch decomposition at giant-instance scale.

Measures the two claims behind the decomposition fast path on the
``warehouse`` family (dense subject areas, sparse conformed links):

* **parallel vs sequential** — the same partition, wave schedule and
  per-cluster solver run twice at 10k plans: once with a thread pool,
  once on one worker, so both lanes solve the same sub-problems.  The
  speedup is recorded per scenario (advisory on a single-core
  container, where the win comes from overlapping per-cluster overhead
  rather than real cores).  CLIMB clusters stop at a wall-clock budget,
  so workers that share too few cores return worse cluster picks and
  the two lanes' costs can differ.
* **quality vs GREEDY** — at 10k and 50k plans the stitched cost is
  compared against the one-pass constructive greedy, the only other
  path that completes at this scale (the direct QA pipeline stops at
  device capacity, ~1.2k plans).

Each whole-instance solve is one "job"; its wall-clock is the latency
sample.  Scale knobs (environment): ``REPRO_BENCH_DECOMP_Q10`` /
``REPRO_BENCH_DECOMP_Q50`` (queries at 3 plans each, defaults 3400 /
16700 → ~10k / ~50k plans), ``REPRO_BENCH_DECOMP_CLUSTER_MS``
(per-cluster budget, default 5), ``REPRO_BENCH_DECOMP_WORKERS``
(parallel dispatch width, default 8) and
``REPRO_BENCH_DECOMP_CLUSTER_SIZE`` (queries per cluster, default 8).
"""

import os
import time
from pathlib import Path

from repro.bench.schema import build_bench_document, save_bench_document
from repro.bench.stats import summarize_latencies
from repro.core.decomposition import ParallelDecomposition
from repro.service.cache import ResultCache
from repro.service.frontend import ServiceFrontend
from repro.service.registry import default_registry
from repro.workloads.families import build_warehouse

Q10 = int(os.environ.get("REPRO_BENCH_DECOMP_Q10", "3400"))
Q50 = int(os.environ.get("REPRO_BENCH_DECOMP_Q50", "16700"))
CLUSTER_MS = float(os.environ.get("REPRO_BENCH_DECOMP_CLUSTER_MS", "5"))
WORKERS = int(os.environ.get("REPRO_BENCH_DECOMP_WORKERS", "8"))
CLUSTER_SIZE = int(os.environ.get("REPRO_BENCH_DECOMP_CLUSTER_SIZE", "8"))
CLUSTER_SOLVERS = ("CLIMB",)
SEED = 20160909


def _decomposed_solve(problem, workers):
    """One timed whole-instance solve; returns (outcome, wall_ms)."""
    # A fresh frontend per run: the result cache must not leak cluster
    # solves from the parallel run into the sequential one.
    pipeline = ParallelDecomposition(
        frontend=ServiceFrontend(cache=ResultCache(capacity=16)),
        max_cluster_size=CLUSTER_SIZE,
        cluster_solvers=CLUSTER_SOLVERS,
        max_workers=workers,
        cluster_budget_ms=CLUSTER_MS,
    )
    start = time.perf_counter()
    outcome = pipeline.decompose(problem, time_budget_ms=3_600_000.0, seed=SEED)
    wall_ms = (time.perf_counter() - start) * 1000.0
    assert not outcome.errors, f"cluster solves failed: {outcome.errors}"
    assert outcome.solution.is_valid
    return outcome, wall_ms


def _greedy_cost(problem):
    """Cost and wall-ms of the GREEDY reference on the same instance."""
    solver = default_registry().create("GREEDY")
    start = time.perf_counter()
    trajectory = solver.solve(problem, time_budget_ms=60_000.0, seed=SEED)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return trajectory.best_cost, wall_ms


def _scenario(name, outcome, wall_ms, extra_params):
    """One schema-shaped scenario record for a single decomposed solve."""
    return {
        "name": name,
        "family": "warehouse",
        "jobs": 1,
        "failures": 0,
        "duration_s": round(wall_ms / 1000.0, 3),
        "throughput_jobs_per_s": round(1000.0 / wall_ms, 3) if wall_ms else 0.0,
        "latency_ms": summarize_latencies([wall_ms]),
        "params": {
            "plans": outcome.problem.num_plans,
            "clusters": outcome.num_clusters,
            "waves": outcome.num_waves,
            "cost": outcome.best_cost,
            "cluster_budget_ms": CLUSTER_MS,
            **extra_params,
        },
        "seed": SEED,
    }


def bench_decomposition(benchmark, save_exhibit):
    problem_10k = build_warehouse(seed=3, num_queries=Q10, plans_per_query=3)
    problem_50k = build_warehouse(seed=3, num_queries=Q50, plans_per_query=3)
    results = {}

    def run_all():
        for label, problem in (("10k", problem_10k), ("50k", problem_50k)):
            problem.arrays()  # warm the columnar view outside the timing
            par, par_ms = _decomposed_solve(problem, workers=WORKERS)
            entry = {"parallel": (par, par_ms)}
            if label == "10k":  # the A/B only needs one scale
                entry["sequential"] = _decomposed_solve(problem, workers=1)
            entry["greedy"] = _greedy_cost(problem)
            results[label] = entry

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    scenarios = []
    latencies = []
    par10, par10_ms = results["10k"]["parallel"]
    seq10, seq10_ms = results["10k"]["sequential"]
    par50, par50_ms = results["50k"]["parallel"]
    greedy10_cost, _ = results["10k"]["greedy"]
    greedy50_cost, greedy50_ms = results["50k"]["greedy"]
    speedup = seq10_ms / par10_ms if par10_ms else 0.0

    # Quality must beat the only other path that completes at this scale.
    assert par10.best_cost < greedy10_cost, (
        f"10k: decomposition ({par10.best_cost}) did not beat GREEDY ({greedy10_cost})"
    )
    assert par50.best_cost < greedy50_cost, (
        f"50k: decomposition ({par50.best_cost}) did not beat GREEDY ({greedy50_cost})"
    )
    # The wave schedule must expose real parallelism at 10k plans.
    assert par10.num_waves < par10.num_clusters / 4, (
        f"wave schedule too deep: {par10.num_waves} waves for {par10.num_clusters} clusters"
    )

    for name, outcome, wall_ms, params in (
        ("warehouse-10k-parallel", par10, par10_ms,
         {"workers": WORKERS, "speedup_vs_sequential": round(speedup, 3),
          "greedy_cost": greedy10_cost}),
        ("warehouse-10k-sequential", seq10, seq10_ms, {"workers": 1}),
        ("warehouse-50k-parallel", par50, par50_ms,
         {"workers": WORKERS, "greedy_cost": greedy50_cost,
          "greedy_wall_ms": round(greedy50_ms, 3)}),
    ):
        scenarios.append(_scenario(name, outcome, wall_ms, params))
        latencies.append(wall_ms)

    duration_s = sum(s["duration_s"] for s in scenarios)
    totals = {
        "jobs": len(scenarios),
        "failures": 0,
        "duration_s": round(duration_s, 3),
        "throughput_jobs_per_s": round(len(scenarios) / duration_s, 3) if duration_s else 0.0,
        "latency_ms": summarize_latencies(latencies),
    }
    document = build_bench_document(
        suite="decomposition",
        mode="service",
        scenarios=scenarios,
        totals=totals,
        config={
            "family": "warehouse",
            "queries": {"10k": Q10, "50k": Q50},
            "plans_per_query": 3,
            "cluster_solvers": list(CLUSTER_SOLVERS),
            "cluster_budget_ms": CLUSTER_MS,
            "max_cluster_size": CLUSTER_SIZE,
            "workers": WORKERS,
            "cpu_note": "speedup is advisory on single-core containers",
        },
    )
    results_dir = Path(__file__).resolve().parent.parent / "benchmark_results"
    save_bench_document(document, results_dir / "BENCH_decomposition.json")

    gap10 = (greedy10_cost - par10.best_cost) / abs(greedy10_cost) if greedy10_cost else 0.0
    gap50 = (greedy50_cost - par50.best_cost) / abs(greedy50_cost) if greedy50_cost else 0.0
    save_exhibit(
        "BENCH_decomposition",
        "\n".join(
            [
                "Partition-solve-stitch decomposition (warehouse family, "
                f"CLIMB @ {CLUSTER_MS:.0f} ms per cluster)",
                "",
                f"  10k plans: {par10.num_clusters} clusters / {par10.num_waves} waves; "
                f"parallel {par10_ms / 1000.0:.2f} s vs sequential {seq10_ms / 1000.0:.2f} s "
                f"({speedup:.2f}x); cost {par10.best_cost:.0f} (sequential "
                f"{seq10.best_cost:.0f}) vs GREEDY {greedy10_cost:.0f} ({gap10:+.1%})",
                f"  50k plans: {par50.num_clusters} clusters / {par50.num_waves} waves; "
                f"parallel {par50_ms / 1000.0:.2f} s; cost {par50.best_cost:.0f} vs GREEDY "
                f"{greedy50_cost:.0f} ({gap50:+.1%})",
            ]
        ),
    )
