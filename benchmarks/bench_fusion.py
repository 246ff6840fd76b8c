"""Cross-request anneal fusion: open-loop streaming A/B measurement.

Takes the built-in ``stream-poisson`` / ``stream-bursty`` suites as the
measuring stick, but re-registers their scenarios under hot arrival
schedules (``stream-poisson-hot`` / ``stream-bursty-hot``) sized to
push the thread tier's :class:`~repro.server.workers.WorkerPool` past
saturation: at the bench's small QA budget one solve costs ~20 ms of
single-core time, so the default 50 jobs/s Poisson rate and 16-job
bursts make solo jobs queue while the same pool with its fusion window
on drains the same schedule by annealing whole windows as one fused
block-diagonal problem (see ``docs/fusion.md``).

Each suite runs twice against a real server on an ephemeral port —
fusion off, then fusion on — submitting on the *same* deterministic
arrival schedule.  Open-loop latency is measured from each job's
scheduled arrival, so queueing delay is part of the number; that is
exactly the delay fusion attacks, and where its p99 win shows up.  The
bench asserts the fused run actually coalesced windows and did not
lose on tail latency; the committed ``BENCH_fusion.json`` baseline plus
``tools/check_bench_regression.py`` then hold the numbers over time.

Scale knobs (environment): ``REPRO_BENCH_FUSION_BUDGET_MS`` (default
15 — small budgets amortise per-job dispatch best),
``REPRO_BENCH_FUSION_RATE`` (Poisson jobs/s, default 50),
``REPRO_BENCH_FUSION_SECONDS`` (default 3),
``REPRO_BENCH_FUSION_WINDOW_MS`` (default 5) and
``REPRO_BENCH_FUSION_WORKERS`` (default 2).

Caveat: on a single-core container the fused win comes from amortised
per-job dispatch overhead (one fused sweep loop instead of one loop per
job), not parallel sweep arithmetic — the same caveat the sharded-tier
numbers in ``BENCH_server.json`` carry.  Expect larger wins on real
cores.
"""

import os
from pathlib import Path

from repro.bench.orchestrator import BenchOrchestrator, BenchRunConfig
from repro.bench.schema import build_bench_document, save_bench_document
from repro.bench.stats import summarize_latencies
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.suites import WorkloadSuite, get_suite, register_suite

BUDGET_MS = float(os.environ.get("REPRO_BENCH_FUSION_BUDGET_MS", "15"))
RATE_PER_S = float(os.environ.get("REPRO_BENCH_FUSION_RATE", "50"))
DURATION_S = float(os.environ.get("REPRO_BENCH_FUSION_SECONDS", "3"))
WINDOW_MS = float(os.environ.get("REPRO_BENCH_FUSION_WINDOW_MS", "5"))
WORKERS = int(os.environ.get("REPRO_BENCH_FUSION_WORKERS", "2"))
MAX_JOBS_PER_WINDOW = 16
SOLVER = "QA"

#: A fused run may exceed the solo p99 by at most this factor before the
#: bench fails outright — sized so an unsaturated fast runner (where the
#: admission window is pure overhead) does not flake; the regression
#: gate holds the actual committed numbers.
_P99_NOISE_FACTOR = 1.25


def _register_hot_suites():
    """Re-register the stream scenarios under fusion-stressing arrivals."""
    hot = []
    for base_name, arrival in (
        (
            "stream-poisson",
            ArrivalProcess(
                kind="poisson", rate_per_s=RATE_PER_S, duration_s=DURATION_S
            ),
        ),
        (
            "stream-bursty",
            ArrivalProcess(
                kind="bursty",
                rate_per_s=RATE_PER_S / 3.0,
                duration_s=DURATION_S,
                burst_every_s=0.5,
                burst_size=16,
            ),
        ),
    ):
        base = get_suite(base_name)
        name = f"{base_name}-hot"
        register_suite(
            WorkloadSuite(
                name=name,
                description=f"{base_name} at a fusion-stressing arrival rate",
                scenarios=base.scenarios,
                default_budget_ms=BUDGET_MS,
                instances_per_scenario=1,
                arrival=arrival,
            ),
            replace=True,
        )
        hot.append(name)
    return hot


def _run_variant(suite, fusion_window_ms):
    """One orchestrator run; returns (scenario, totals, latencies, stats)."""
    orchestrator = BenchOrchestrator(
        BenchRunConfig(
            suite=suite,
            mode="server",
            solver=SOLVER,
            budget_ms=BUDGET_MS,
            seed=20160909,
            workers=WORKERS,
            fusion_window_ms=fusion_window_ms,
            fusion_max_jobs=MAX_JOBS_PER_WINDOW,
            quality_reference="",  # latency A/B; quality is covered elsewhere
        )
    )
    document = orchestrator.run()
    totals = document["totals"]
    label = "fused" if fusion_window_ms > 0 else "solo"
    scenario = {
        "name": f"{suite}-{label}",
        "family": "paper",
        "jobs": totals["jobs"],
        "failures": totals["failures"],
        "duration_s": totals["duration_s"],
        "throughput_jobs_per_s": totals["throughput_jobs_per_s"],
        "latency_ms": totals["latency_ms"],
        "params": {"suite": suite, "fusion_window_ms": fusion_window_ms},
        "seed": 20160909,
    }
    stats = orchestrator._server_stats or {}
    return scenario, totals, orchestrator.last_latencies, stats


def bench_fusion(benchmark, save_exhibit):
    suites = _register_hot_suites()
    scenarios = []
    comparisons = []
    all_latencies = []

    def run_variants():
        for suite in suites:
            solo_scenario, solo_totals, solo_latencies, _ = _run_variant(suite, 0.0)
            fused_scenario, fused_totals, fused_latencies, fused_stats = _run_variant(
                suite, WINDOW_MS
            )
            scenarios.extend([solo_scenario, fused_scenario])
            all_latencies.extend(solo_latencies)
            all_latencies.extend(fused_latencies)
            comparisons.append((suite, solo_totals, fused_totals, fused_stats))

    benchmark.pedantic(run_variants, rounds=1, iterations=1)

    for suite, solo_totals, fused_totals, fused_stats in comparisons:
        assert solo_totals["failures"] == 0, f"{suite}: solo run had failures"
        assert fused_totals["failures"] == 0, f"{suite}: fused run had failures"
        counters = fused_stats.get("counters", {})
        windows = counters.get("fusion_windows", 0)
        fused_jobs = counters.get("fusion_jobs", 0)
        assert windows > 0, (
            f"{suite}: the fused run never coalesced a window — the "
            "measurement compared two identical solo runs"
        )
        assert fused_jobs / windows > 1.2, (
            f"{suite}: windows averaged {fused_jobs / windows:.2f} jobs — the "
            "arrival schedule never made fusion coalesce; raise the rate"
        )
        assert (
            fused_totals["latency_ms"]["p99"]
            <= solo_totals["latency_ms"]["p99"] * _P99_NOISE_FACTOR
        ), f"{suite}: fusion made tail latency worse beyond noise"

    jobs = sum(s["jobs"] for s in scenarios)
    duration_s = sum(s["duration_s"] for s in scenarios)
    # Totals aggregate every scenario (schema: jobs sum up); the
    # per-suite solo-vs-fused comparison lives in the scenario records.
    totals = {
        "jobs": jobs,
        "failures": 0,
        "duration_s": round(duration_s, 3),
        "throughput_jobs_per_s": round(jobs / duration_s if duration_s else 0.0, 3),
        "latency_ms": summarize_latencies(all_latencies),
    }
    document = build_bench_document(
        suite="fusion",
        mode="server",
        scenarios=scenarios,
        totals=totals,
        config={
            "suites": suites,
            "solver": SOLVER,
            "budget_ms": BUDGET_MS,
            "rate_per_s": RATE_PER_S,
            "duration_s": DURATION_S,
            "fusion_window_ms": WINDOW_MS,
            "fusion_max_jobs": MAX_JOBS_PER_WINDOW,
            "workers": WORKERS,
        },
    )
    results_dir = Path(__file__).resolve().parent.parent / "benchmark_results"
    save_bench_document(document, results_dir / "BENCH_fusion.json")

    lines = [
        f"Anneal fusion A/B: QA @ {BUDGET_MS:.0f} ms budget, "
        f"{RATE_PER_S:.0f} jobs/s for {DURATION_S:.0f} s, "
        f"{WORKERS} workers, {WINDOW_MS:.0f} ms window",
        "",
    ]
    for suite, solo_totals, fused_totals, fused_stats in comparisons:
        solo_p99 = solo_totals["latency_ms"]["p99"]
        fused_p99 = fused_totals["latency_ms"]["p99"]
        counters = fused_stats.get("counters", {})
        windows = counters.get("fusion_windows", 0)
        fused_jobs = counters.get("fusion_jobs", 0)
        mean_batch = fused_jobs / windows if windows else 0.0
        lines.append(
            f"  {suite}: p99 {solo_p99:.1f} ms solo -> {fused_p99:.1f} ms fused "
            f"({solo_p99 / fused_p99 if fused_p99 else 0.0:.2f}x), "
            f"{windows} windows, {mean_batch:.1f} jobs/window"
        )
    save_exhibit("BENCH_fusion", "\n".join(lines))
