"""Ablation: minimal penalty weights versus aggressively scaled penalties.

The paper argues for choosing the validity-penalty weights w_L and w_M as
low as possible because a large weight range degrades annealing quality
(Section 4).  This ablation solves the same instance with the minimal
weights (paper), with 5x scaled weights and with 25x scaled weights and
reports the achieved solution quality.
"""

from repro.core.logical import LogicalMappingConfig
from repro.core.pipeline import QuantumMQO
from repro.workloads.embedded import generate_embedded_testcase
from repro.utils.tables import format_table


def bench_ablation_penalty_scaling(benchmark, runner, profile, save_exhibit):
    testcase = generate_embedded_testcase(
        max(8, int(96 * profile.query_scale)), 2, runner.topology, seed=13
    )
    scales = {"minimal (paper)": 1.0, "5x penalties": 5.0, "25x penalties": 25.0}

    def run_all():
        rows = []
        for label, scale in scales.items():
            pipeline = QuantumMQO(
                device=runner.device,
                embedder=testcase.embedding,
                logical_config=LogicalMappingConfig(weight_scale=scale),
                seed=11,
            )
            result = pipeline.solve(
                testcase.problem, num_reads=profile.num_reads, num_gauges=profile.num_gauges
            )
            rows.append((label, result.best_solution.cost, result.num_invalid_reads))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        ["penalty weights", "best cost", "invalid reads"],
        rows,
        title="Ablation: penalty-weight scaling (paper recommends minimal weights)",
    )
    save_exhibit("ablation_penalties", table)

    by_label = {row[0]: row for row in rows}
    # The paper's minimal weights should not be beaten by the most
    # aggressively scaled variant (larger analog range hurts).
    assert by_label["minimal (paper)"][1] <= by_label["25x penalties"][1] + 1e-9
