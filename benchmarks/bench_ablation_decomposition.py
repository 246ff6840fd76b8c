"""Ablation: single-QUBO mapping versus decomposition into a series of QUBOs.

The paper's outlook proposes mapping one MQO instance into a *series* of
QUBO problems to overcome the qubit-budget limit of the single-QUBO
mapping.  This ablation compares the two on a workload that still fits
as a single QUBO (so quality can be compared head to head) and reports
qubit usage, time and solution cost, plus the iterated hill-climbing
baseline as a classical reference.

The series row's qubits are its largest cluster's: each cluster's
unconditioned sub-problem is prepared on the runner's device.
Conditioning changes plan costs, never plans or savings pairs, so this
is what a cluster embeds before its presolve restricts it.  Its time is
the series' wall-clock time; the single QUBO reports device time.
"""

import time

from repro.baselines.hillclimb import IteratedHillClimbing
from repro.chimera.hardware import DWAVE_2X
from repro.core.decomposition import ParallelDecomposition, build_subproblem
from repro.core.pipeline import QuantumMQO
from repro.embedding.triad import triad_qubit_count
from repro.workloads.embedded import generate_embedded_testcase
from repro.utils.tables import format_table


def bench_ablation_decomposition(benchmark, runner, profile, save_exhibit):
    num_queries = max(16, int(160 * profile.query_scale))
    testcase = generate_embedded_testcase(num_queries, 2, runner.topology, seed=23)
    problem = testcase.problem

    def run_all():
        rows = []
        single_pipeline = QuantumMQO(device=runner.device, embedder=testcase.embedding, seed=9)
        single = single_pipeline.solve(
            problem, num_reads=profile.num_reads, num_gauges=profile.num_gauges
        )
        rows.append(
            (
                "single QUBO (paper)",
                single.best_solution.cost,
                single.physical_mapping.num_qubits,
                round(single.device_time_ms, 1),
            )
        )

        decomposer = ParallelDecomposition(
            max_cluster_size=max(4, num_queries // 6),
            cluster_solvers=("QA",),
            # The profile's read count of device time per cluster.
            cluster_budget_ms=profile.num_reads * DWAVE_2X.time_per_read_ms,
        )
        start = time.perf_counter()
        decomposed = decomposer.decompose(problem, seed=9)
        wall_ms = (time.perf_counter() - start) * 1000.0
        cluster_pipeline = QuantumMQO(device=runner.device, seed=9)
        max_qubits = max(
            cluster_pipeline.prepare(build_subproblem(problem, cluster).problem).physical.num_qubits
            for cluster in decomposed.clusters
        )
        rows.append(
            (
                f"series of {decomposed.num_clusters} QUBOs (outlook)",
                decomposed.solution.cost,
                max_qubits,
                round(wall_ms, 1),
            )
        )

        climb = IteratedHillClimbing().solve(
            problem, time_budget_ms=profile.classical_budget_ms, seed=9
        )
        rows.append(("CLIMB (classical reference)", climb.best_cost, 0, round(climb.total_time_ms, 1)))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    # Context row: what a problem-agnostic single global TRIAD would need for
    # the full instance (the qubit budget the decomposition avoids).
    full_triad_qubits = triad_qubit_count(problem.num_plans)
    rows = list(rows) + [
        ("single global TRIAD (for reference)", float("nan"), full_triad_qubits, float("nan"))
    ]
    table = format_table(
        ["approach", "best cost", "max qubits needed", "time (ms)"],
        rows,
        title="Ablation: single-QUBO mapping vs decomposition into a series of QUBOs",
    )
    table += "\ntime: device time for the single QUBO, wall-clock time for the series and CLIMB"
    save_exhibit("ablation_decomposition", table)

    single_row, decomposed_row, _climb_row, _triad_row = rows
    # Decomposition needs far fewer qubits per solve than embedding the whole
    # problem as one fully connected QUBO would ...
    assert decomposed_row[2] < full_triad_qubits
    # ... while solution quality stays in the same ballpark as the single-QUBO
    # mapping (conditioning recovers part, but not all, of the cross-cluster
    # savings).
    assert decomposed_row[1] <= single_row[1] * 1.5 + 10.0
