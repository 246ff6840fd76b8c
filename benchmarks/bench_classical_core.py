"""Array-backed classical core vs the legacy object-loop paths.

The PR's claim: threading the columnar ``ProblemArrays`` view through
QUBO construction and the heuristic baselines makes the classical
pre/post-processing around the anneal ≥5x faster on QUBO construction
and ≥3x faster on GA/hill-climbing solve wall-clock at 512-plan scale
(the ``tpch_mix``/``oversubscribed`` workload families), with identical
semantics (same coefficients, same moves, same RNG draws).

Three exhibits, each racing the new code against a faithful
reimplementation of the pre-PR path (kept here, not in the library, so
the benchmark always measures against the true baseline):

* QUBO construction: whole-array ``LogicalMapping`` -> flat arrays vs
  the per-coefficient ``add_linear``/``add_quadratic`` dict build,
* GA solve: batched population evaluation vs a per-chromosome loop
  over the savings dict (identical RNG stream),
* hill climbing: one vectorised swap-delta sweep per move vs the
  per-candidate ``swap_delta`` scan (identical move sequences).

Results land in a schema-valid ``benchmark_results/BENCH_classical.json``
gated by ``tools/check_bench_regression.py`` against the committed
baseline.  The totals are dominated by the fixed-budget anytime
scenario, so the gated numbers track the time budget rather than raw
machine speed; the speedup *ratios* are asserted right here.
"""

import time
from pathlib import Path

import numpy as np

from repro.baselines.genetic import GeneticAlgorithmSolver
from repro.baselines.hillclimb import IteratedHillClimbing
from repro.bench.schema import build_bench_document, save_bench_document
from repro.bench.stats import summarize_latencies
from repro.core.logical import LogicalMapping
from repro.qubo.model import QUBOModel
from repro.workloads import get_family

SEED = 20160909
QUBO_REPEATS = 15
SOLVE_REPEATS = 3
GA_GENERATIONS = 8
HC_RESTARTS = 2
ANYTIME_BUDGET_MS = 120.0
HUGE_BUDGET_MS = 1e9


# --------------------------------------------------------------------- #
# Faithful legacy reimplementations (the pre-PR hot paths)
# --------------------------------------------------------------------- #
def legacy_build_qubo(problem):
    """The pre-PR logical mapping: per-coefficient dict accumulation."""
    epsilon = 0.25
    w_l = problem.max_plan_cost() + epsilon
    w_m = w_l + problem.max_total_savings_per_plan() + epsilon
    qubo = QUBOModel()
    for plan in problem.plans:
        qubo.add_linear(plan.index, plan.cost - w_l)
    for query in problem.queries:
        indices = query.plan_indices
        for i in range(len(indices)):
            for j in range(i + 1, len(indices)):
                qubo.add_quadratic(indices[i], indices[j], w_m)
    for (p1, p2), saving in problem.interaction_pairs():
        qubo.add_quadratic(p1, p2, -saving)
    return qubo


def legacy_selection_cost(problem, selected):
    """The pre-PR ``MQOProblem.selection_cost``: a loop over the savings dict."""
    chosen = set(int(p) for p in selected)
    total = 0.0
    for p in chosen:
        total += problem.plan(p).cost
    for (p1, p2), value in problem.savings.items():
        if p1 in chosen and p2 in chosen:
            total -= value
    return total


class LegacyEvalGA(GeneticAlgorithmSolver):
    """The new GA loop with the pre-PR per-chromosome fitness evaluation.

    Only the evaluation differs, so the RNG stream and the evolutionary
    trajectory are identical to the array-backed solver — the race
    isolates exactly the claimed win.  Each chromosome is costed by
    :func:`legacy_selection_cost` (without the pre-PR ``MQOSolution``
    round-trip, so this reference is if anything faster than the old
    path).
    """

    @staticmethod
    def _evaluate_batch(problem, chromosomes):
        return np.asarray(
            [
                legacy_selection_cost(
                    problem,
                    [query.plan_indices[int(c)] for query, c in zip(problem.queries, chrom)],
                )
                for chrom in chromosomes
            ]
        )


class LegacySelectionState:
    """The pre-PR dict-based SelectionState (verbatim hot-path logic)."""

    def __init__(self, problem, choices):
        self.problem = problem
        self._choices = []
        self._selected_plan = []
        self._selected_set = set()
        for query, choice in zip(problem.queries, choices):
            plan = query.plan_indices[choice]
            self._choices.append(int(choice))
            self._selected_plan.append(plan)
            self._selected_set.add(plan)
        self._cost = legacy_selection_cost(problem, self._selected_set)

    def _realized_savings(self, plan, excluding_query):
        total = 0.0
        for partner, saving in self.problem.sharing_partners(plan).items():
            if partner in self._selected_set:
                if self.problem.query_of_plan(partner) == excluding_query:
                    continue
                total += saving
        return total

    def swap_delta(self, query_index, new_choice):
        query = self.problem.query(query_index)
        old_plan = self._selected_plan[query_index]
        new_plan = query.plan_indices[new_choice]
        if new_plan == old_plan:
            return 0.0
        delta = self.problem.plan_cost(new_plan) - self.problem.plan_cost(old_plan)
        delta -= self._realized_savings(new_plan, excluding_query=query_index)
        delta += self._realized_savings(old_plan, excluding_query=query_index)
        return delta

    def apply_swap(self, query_index, new_choice):
        delta = self.swap_delta(query_index, new_choice)
        query = self.problem.query(query_index)
        old_plan = self._selected_plan[query_index]
        new_plan = query.plan_indices[new_choice]
        if new_plan != old_plan:
            self._selected_set.discard(old_plan)
            self._selected_set.add(new_plan)
            self._selected_plan[query_index] = new_plan
            self._choices[query_index] = int(new_choice)
            self._cost += delta
        return delta

    def best_cost(self):
        return legacy_selection_cost(self.problem, self._selected_set)


def legacy_hill_climb(problem, seed, max_restarts):
    """The pre-PR iterated hill climbing: per-candidate swap_delta scans."""
    rng = np.random.default_rng(seed)
    best = float("inf")
    for _ in range(max_restarts):
        choices = [int(rng.integers(0, query.num_plans)) for query in problem.queries]
        state = LegacySelectionState(problem, choices)
        while True:
            best_delta = 0.0
            best_move = None
            for query in problem.queries:
                current = state._choices[query.index]
                for choice in range(query.num_plans):
                    if choice == current:
                        continue
                    delta = state.swap_delta(query.index, choice)
                    if delta < best_delta - 1e-12:
                        best_delta = delta
                        best_move = (query.index, choice)
            if best_move is None:
                break
            state.apply_swap(*best_move)
        best = min(best, state.best_cost())
    return best


# --------------------------------------------------------------------- #
# Harness helpers
# --------------------------------------------------------------------- #
def _times_of(callable_, repeats):
    """Per-iteration wall-clock seconds (list) of ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        times.append(time.perf_counter() - start)
    return times


def _scenario(name, family, times_s, extra=None):
    """One BENCH scenario record from per-iteration wall clocks."""
    latencies_ms = [t * 1000.0 for t in times_s]
    duration_s = sum(times_s)
    record = {
        "name": name,
        "family": family,
        "jobs": len(times_s),
        "failures": 0,
        "duration_s": round(duration_s, 3),
        "throughput_jobs_per_s": round(len(times_s) / duration_s if duration_s else 0.0, 3),
        "latency_ms": summarize_latencies(latencies_ms),
        "params": {},
        "seed": SEED,
    }
    if extra:
        record["exhibit"] = extra
    return record


def bench_classical_core(benchmark, save_exhibit):
    # 512-plan scale instances of the two large workload families.
    tpch = get_family("tpch_mix").build(SEED, num_queries=180, density=0.5)
    oversub = get_family("oversubscribed").build(
        SEED, plans_per_query=2, capacity_factor=2.0, cell_rows=8, cell_cols=8
    )
    assert tpch.num_plans >= 450, tpch.num_plans
    assert oversub.num_plans >= 450, oversub.num_plans

    scenarios = []
    exhibit_lines = ["Array-backed classical core vs legacy object loops", ""]
    speedups = {}
    all_times = []  # per-iteration wall clocks of every measured (new-path) job

    # ---------------- QUBO construction ---------------- #
    for problem, family in ((tpch, "tpch_mix"), (oversub, "oversubscribed")):
        problem.arrays()  # memoised columnar view, warm in production too

        def build_new(problem=problem):
            return LogicalMapping(problem).qubo.to_arrays()

        def build_legacy(problem=problem):
            return legacy_build_qubo(problem).to_arrays()

        # Equal coefficients before racing (same variables/edges/weights).
        order_new, lin_new, edges_new, w_new = build_new()
        order_old, lin_old, edges_old, w_old = build_legacy()
        assert order_new == order_old
        assert np.array_equal(lin_new, lin_old)
        assert np.array_equal(edges_new, edges_old) and np.array_equal(w_new, w_old)

        new_s = _times_of(build_new, QUBO_REPEATS)
        legacy_s = _times_of(build_legacy, QUBO_REPEATS)
        all_times.extend(new_s)
        speedup = min(legacy_s) / min(new_s)
        speedups[f"qubo_{family}"] = speedup
        scenarios.append(
            _scenario(
                f"qubo_construction_{family}",
                family,
                new_s,
                extra={
                    "plans": problem.num_plans,
                    "savings": problem.num_savings,
                    "legacy_ms": round(min(legacy_s) * 1000, 3),
                    "array_ms": round(min(new_s) * 1000, 3),
                    "speedup": round(speedup, 2),
                },
            )
        )
        exhibit_lines.append(
            f"  QUBO build   {family:>14}: {min(legacy_s) * 1000:8.2f} ms -> "
            f"{min(new_s) * 1000:7.2f} ms  ({speedup:.1f}x)"
        )

    # ---------------- GA solve ---------------- #
    new_ga = GeneticAlgorithmSolver(population_size=50, max_generations=GA_GENERATIONS)
    old_ga = LegacyEvalGA(population_size=50, max_generations=GA_GENERATIONS)
    new_cost = new_ga.solve(tpch, HUGE_BUDGET_MS, seed=SEED).best_cost
    old_cost = old_ga.solve(tpch, HUGE_BUDGET_MS, seed=SEED).best_cost
    assert np.isclose(new_cost, old_cost), (new_cost, old_cost)

    ga_new_s = _times_of(lambda: new_ga.solve(tpch, HUGE_BUDGET_MS, seed=SEED), SOLVE_REPEATS)
    ga_old_s = _times_of(lambda: old_ga.solve(tpch, HUGE_BUDGET_MS, seed=SEED), SOLVE_REPEATS)
    all_times.extend(ga_new_s)
    ga_speedup = min(ga_old_s) / min(ga_new_s)
    speedups["ga"] = ga_speedup
    scenarios.append(
        _scenario(
            "ga_solve_tpch_mix",
            "tpch_mix",
            ga_new_s,
            extra={
                "generations": GA_GENERATIONS,
                "population": 50,
                "legacy_ms": round(min(ga_old_s) * 1000, 2),
                "array_ms": round(min(ga_new_s) * 1000, 2),
                "speedup": round(ga_speedup, 2),
            },
        )
    )
    exhibit_lines.append(
        f"  GA(50) x{GA_GENERATIONS} gens  tpch_mix: {min(ga_old_s) * 1000:8.2f} ms -> "
        f"{min(ga_new_s) * 1000:7.2f} ms  ({ga_speedup:.1f}x)"
    )

    # ---------------- Hill-climbing solve ---------------- #
    new_hc = IteratedHillClimbing(max_restarts=HC_RESTARTS)

    def run_new_hc():
        return new_hc.solve(oversub, HUGE_BUDGET_MS, seed=SEED).best_cost

    def run_old_hc():
        return legacy_hill_climb(oversub, SEED, HC_RESTARTS)

    assert np.isclose(run_new_hc(), run_old_hc())
    hc_new_s = _times_of(run_new_hc, SOLVE_REPEATS)
    hc_old_s = _times_of(run_old_hc, SOLVE_REPEATS)
    all_times.extend(hc_new_s)
    hc_speedup = min(hc_old_s) / min(hc_new_s)
    speedups["hc"] = hc_speedup
    scenarios.append(
        _scenario(
            "hc_solve_oversubscribed",
            "oversubscribed",
            hc_new_s,
            extra={
                "restarts": HC_RESTARTS,
                "legacy_ms": round(min(hc_old_s) * 1000, 2),
                "array_ms": round(min(hc_new_s) * 1000, 2),
                "speedup": round(hc_speedup, 2),
            },
        )
    )
    exhibit_lines.append(
        f"  CLIMB x{HC_RESTARTS}      oversub.: {min(hc_old_s) * 1000:8.2f} ms -> "
        f"{min(hc_new_s) * 1000:7.2f} ms  ({hc_speedup:.1f}x)"
    )

    # ---------------- Fixed-budget anytime scenario ---------------- #
    # Budget-bound jobs dominate the totals, so the regression-gated
    # throughput/p99 track the time budget, not raw machine speed.
    budget_ga = GeneticAlgorithmSolver(population_size=50)
    budget_s = _times_of(
        lambda: budget_ga.solve(tpch, ANYTIME_BUDGET_MS, seed=SEED), 20
    )
    all_times.extend(budget_s)
    scenarios.append(
        _scenario(
            "ga_anytime_budget_tpch_mix",
            "tpch_mix",
            budget_s,
            extra={"budget_ms": ANYTIME_BUDGET_MS},
        )
    )

    benchmark.pedantic(lambda: LogicalMapping(tpch).qubo, rounds=1, iterations=1)

    all_latencies = [t * 1000.0 for t in all_times]
    total_jobs = sum(s["jobs"] for s in scenarios)
    total_duration = sum(s["duration_s"] for s in scenarios)
    totals = {
        "jobs": total_jobs,
        "failures": 0,
        "duration_s": round(total_duration, 3),
        "throughput_jobs_per_s": round(total_jobs / total_duration if total_duration else 0.0, 3),
        "latency_ms": summarize_latencies(all_latencies),
    }
    document = build_bench_document(
        suite="classical",
        mode="service",
        scenarios=scenarios,
        totals=totals,
        config={
            "solver": "GA(50)/CLIMB/LogicalMapping",
            "budget_ms": ANYTIME_BUDGET_MS,
            "seed": SEED,
            "speedups": {key: round(value, 2) for key, value in speedups.items()},
        },
    )
    results_dir = Path(__file__).resolve().parent.parent / "benchmark_results"
    results_dir.mkdir(exist_ok=True)
    save_bench_document(document, results_dir / "BENCH_classical.json")

    save_exhibit("classical_core", "\n".join(exhibit_lines))

    for family in ("tpch_mix", "oversubscribed"):
        assert speedups[f"qubo_{family}"] >= 5.0, (
            f"QUBO construction speedup below 5x on {family}: {speedups}"
        )
    assert speedups["ga"] >= 3.0, f"GA solve speedup below 3x: {speedups}"
    assert speedups["hc"] >= 3.0, f"hill-climbing solve speedup below 3x: {speedups}"
