"""Ablation: compact per-cell embedding versus a single global TRIAD.

DESIGN.md calls out the embedding pattern as a key design choice: the
clustered / per-cell patterns spend far fewer qubits than one global
TRIAD connecting every pair of plans, at the price of supporting only
sharing links the hardware can couple.  This ablation embeds the same
small workload both ways and compares qubit usage, chain lengths and the
resulting annealing quality.
"""

from repro.core.pipeline import QuantumMQO
from repro.embedding.triad import TriadEmbedder, triad_capacity
from repro.exceptions import EmbeddingNotFoundError
from repro.workloads.embedded import generate_embedded_testcase
from repro.utils.tables import format_table


def bench_ablation_embedding_pattern(benchmark, runner, profile, save_exhibit):
    # Pick the largest workload whose global TRIAD still fits on the
    # profile's (possibly defective) topology.
    topology = runner.topology
    upper = triad_capacity(topology.rows, topology.cols, topology.shore) // 2
    testcase = None
    triad_embedding = None
    for num_queries in range(min(20, upper), 3, -2):
        candidate = generate_embedded_testcase(num_queries, 2, topology, seed=31)
        try:
            triad_embedding = TriadEmbedder(topology).embed_clique(
                [plan.index for plan in candidate.problem.plans]
            )
        except EmbeddingNotFoundError:
            continue  # try a smaller workload
        testcase = candidate
        break
    assert testcase is not None and triad_embedding is not None
    embeddings = {
        "per-cell (paper workloads)": testcase.embedding,
        "single global TRIAD": triad_embedding,
    }

    def run_all():
        rows = []
        for label, embedding in embeddings.items():
            pipeline = QuantumMQO(device=runner.device, embedder=embedding, seed=3)
            result = pipeline.solve(
                testcase.problem, num_reads=profile.num_reads, num_gauges=profile.num_gauges
            )
            rows.append(
                (
                    label,
                    embedding.num_qubits,
                    round(embedding.average_chain_length(), 2),
                    embedding.max_chain_length(),
                    result.best_solution.cost,
                )
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        ["embedding", "qubits", "qubits/variable", "max chain", "best cost"],
        rows,
        title="Ablation: embedding pattern (same 20-query workload)",
    )
    save_exhibit("ablation_embedding", table)

    by_label = {row[0]: row for row in rows}
    per_cell = by_label["per-cell (paper workloads)"]
    triad = by_label["single global TRIAD"]
    # The structured per-cell pattern uses far fewer qubits and shorter chains.
    assert per_cell[1] < triad[1]
    assert per_cell[3] <= triad[3]
