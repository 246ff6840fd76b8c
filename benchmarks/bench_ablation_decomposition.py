"""Ablation: single-QUBO mapping versus decomposition into a series of QUBOs.

The paper's outlook proposes mapping one MQO instance into a *series* of
QUBO problems to overcome the qubit-budget limit of the single-QUBO
mapping.  This ablation compares the two on a workload that still fits
as a single QUBO (so quality can be compared head to head) and reports
qubit usage, device time and solution cost, plus the iterated
hill-climbing baseline as a classical reference.
"""

from repro.baselines.hillclimb import IteratedHillClimbing
from repro.core.decomposition import DecomposedQuantumMQO
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

        decomposer = DecomposedQuantumMQO(
            pipeline=QuantumMQO(device=runner.device, seed=9),
            max_queries_per_cluster=max(4, num_queries // 6),
        )
        decomposed = decomposer.solve(
            problem, num_reads=profile.num_reads, num_gauges=profile.num_gauges
        )
        rows.append(
            (
                f"series of {decomposed.num_clusters} QUBOs (outlook)",
                decomposed.solution.cost,
                decomposed.max_qubits_used,
                round(decomposed.total_device_time_ms, 1),
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
    save_exhibit("ablation_decomposition", table)

    single_row, decomposed_row, _climb_row, _triad_row = rows
    # Decomposition needs far fewer qubits per solve than embedding the whole
    # problem as one fully connected QUBO would ...
    assert decomposed_row[2] < full_triad_qubits
    # ... while solution quality stays in the same ballpark as the single-QUBO
    # mapping (conditioning recovers part, but not all, of the cross-cluster
    # savings).
    assert decomposed_row[1] <= single_row[1] * 1.5 + 10.0
