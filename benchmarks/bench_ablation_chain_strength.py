"""Ablation: Choi's per-chain strength rule versus a uniform chain strength.

The paper sets the equality-enforcing chain weights per chain using
Choi's bound (Section 5).  A common simpler alternative is one uniform
chain strength for the whole problem.  This ablation solves the same
embedded instance with both rules (and with a deliberately too-weak
uniform strength) and compares solution quality and broken-chain rates.
"""

from repro.core.physical import PhysicalMappingConfig
from repro.core.pipeline import QuantumMQO
from repro.workloads.embedded import generate_embedded_testcase
from repro.utils.tables import format_table


def bench_ablation_chain_strength(benchmark, runner, profile, save_exhibit):
    testcase = generate_embedded_testcase(
        max(6, int(24 * profile.query_scale * 4)), 4, runner.topology, seed=42
    )
    strong_uniform = 2.0 * max(
        abs(w) for w in list(testcase.problem.savings.values()) + [testcase.problem.max_plan_cost()]
    )
    configs = {
        "Choi bound (paper)": PhysicalMappingConfig(),
        "uniform (strong)": PhysicalMappingConfig(uniform_chain_strength=strong_uniform),
        "uniform (too weak)": PhysicalMappingConfig(uniform_chain_strength=0.25),
    }

    def run_all():
        rows = []
        for label, config in configs.items():
            pipeline = QuantumMQO(
                device=runner.device,
                embedder=testcase.embedding,
                physical_config=config,
                seed=7,
            )
            result = pipeline.solve(
                testcase.problem, num_reads=profile.num_reads, num_gauges=profile.num_gauges
            )
            rows.append(
                (
                    label,
                    result.best_solution.cost,
                    result.num_broken_chain_reads,
                    result.num_invalid_reads,
                )
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        ["chain-strength rule", "best cost", "broken-chain reads", "invalid reads"],
        rows,
        title="Ablation: chain-strength rule (lower cost / fewer broken chains is better)",
    )
    save_exhibit("ablation_chain_strength", table)

    by_label = {row[0]: row for row in rows}
    # A clearly too-weak chain strength must produce more broken chains than
    # the paper's rule.
    assert by_label["uniform (too weak)"][2] >= by_label["Choi bound (paper)"][2]
    # The paper's rule should not be worse than the too-weak setting in cost.
    assert by_label["Choi bound (paper)"][1] <= by_label["uniform (too weak)"][1] + 1e-9
