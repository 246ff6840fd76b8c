"""Batch analytics: share work across a dashboard refresh of analytical queries.

The paper motivates MQO with systems that batch hundreds of queries to
reduce execution cost via shared computation (e.g. SharedDB).  This
example builds such a scenario end to end:

1. a synthetic star-schema catalog with table statistics,
2. a batch of reporting queries, each with a few alternative join plans
   costed by the relational cost model,
3. sharing opportunities between plans that scan or join the same tables,
4. plan selection with the quantum-annealing pipeline versus iterated
   hill climbing, reporting the realised savings.

Run with:  python examples/batch_analytics_workload.py
"""

import time

from repro import IteratedHillClimbing, MQOProblem, ParallelDecomposition, QuantumMQO
from repro.core.decomposition import build_subproblem
from repro.exceptions import EmbeddingNotFoundError
from repro.mqo.cost_model import CatalogStatistics, RelationalCostModel, TableStats
from repro.utils.rng import ensure_rng


def build_catalog() -> CatalogStatistics:
    """A small star schema: one fact table plus dimension tables."""
    catalog = CatalogStatistics()
    catalog.add_table(TableStats("sales", num_rows=4_000_000, row_bytes=120))
    catalog.add_table(TableStats("customers", num_rows=200_000, row_bytes=200))
    catalog.add_table(TableStats("products", num_rows=50_000, row_bytes=150))
    catalog.add_table(TableStats("stores", num_rows=2_000, row_bytes=100))
    catalog.add_table(TableStats("dates", num_rows=3_650, row_bytes=40))
    for dimension in ("customers", "products", "stores", "dates"):
        catalog.set_join_selectivity("sales", dimension, 1.0 / catalog.tables[dimension].num_rows)
    return catalog


def build_workload(num_reports: int = 18, plans_per_report: int = 3, seed: int = 5):
    """A dashboard refresh: every report joins the fact table with dimensions."""
    rng = ensure_rng(seed)
    catalog = build_catalog()
    model = RelationalCostModel(catalog)
    dimensions = ["customers", "products", "stores", "dates"]

    plan_costs = []
    plan_tables = []  # tables touched per plan, used to find sharing pairs
    for _ in range(num_reports):
        chosen = list(rng.choice(dimensions, size=2, replace=False))
        tables = ["sales"] + chosen
        costs = model.alternative_plan_costs(tables, plans_per_report, seed=rng)
        plan_costs.append([cost / 1000.0 for cost in costs])  # scale to friendly units
        plan_tables.append([frozenset(tables)] * plans_per_report)

    # Two plans (of different reports) that touch the same fact/dimension
    # combination can share the scan + join of those tables.
    savings = {}
    flat_tables = [tables for per_report in plan_tables for tables in per_report]
    for p1 in range(len(flat_tables)):
        for p2 in range(p1 + 1, len(flat_tables)):
            if p1 // plans_per_report == p2 // plans_per_report:
                continue
            shared = flat_tables[p1] & flat_tables[p2]
            if len(shared) >= 3 and rng.random() < 0.4:
                # Sharing the fact-table scan and one join saves a sizeable
                # fraction of the cheaper plan's work.
                flat_costs = [cost for per_report in plan_costs for cost in per_report]
                savings[(p1, p2)] = round(
                    0.3 * min(flat_costs[p1], flat_costs[p2]), 1
                )
    return MQOProblem(plan_costs, savings, name="dashboard-refresh")


def main() -> None:
    problem = build_workload()
    print(problem.describe())
    no_sharing_cost = sum(
        min(problem.plan_cost(p) for p in query.plan_indices) for query in problem.queries
    )
    print(f"\nCheapest plans without any sharing would cost {no_sharing_cost:.1f}")

    # The sharing structure of this workload does not map onto the hardware
    # as a single QUBO (too many plan variables for a fully connected TRIAD),
    # so we fall back to the decomposition solver: queries are clustered by
    # their sharing structure and one QUBO is annealed per cluster — the
    # "series of QUBO problems" route from the paper's outlook.
    quantum = QuantumMQO(seed=3)
    try:
        qa_result = quantum.solve(problem, num_reads=300, num_gauges=10)
        qa_cost = qa_result.best_solution.cost
        qa_time = qa_result.device_time_ms
        print(f"\nQA (single QUBO) cost: {qa_cost:.1f} "
              f"({qa_time:.0f} ms device time, "
              f"{qa_result.qubits_per_variable:.2f} qubits/variable)")
    except EmbeddingNotFoundError:
        decomposer = ParallelDecomposition(max_cluster_size=6, cluster_solvers=("QA",))
        start = time.perf_counter()
        decomposed = decomposer.decompose(problem, seed=3)
        wall_ms = (time.perf_counter() - start) * 1000.0
        qa_cost = decomposed.solution.cost
        # The largest cluster QUBO, embedded before conditioning changes
        # its plan costs (conditioning never changes plans or savings pairs).
        max_qubits = max(
            quantum.prepare(build_subproblem(problem, cluster).problem).physical.num_qubits
            for cluster in decomposed.clusters
        )
        print(f"\nSingle-QUBO embedding does not fit; solved as a series of "
              f"{decomposed.num_clusters} cluster QUBOs instead.")
        print(f"QA (decomposed) cost: {qa_cost:.1f} "
              f"({wall_ms:.0f} ms wall-clock for the series, "
              f"max {max_qubits} qubits per cluster)")

    climb = IteratedHillClimbing().solve(problem, time_budget_ms=2_000, seed=3)
    print(f"CLIMB selection cost: {climb.best_cost:.1f} "
          f"({climb.total_time_ms:.0f} ms wall-clock)")

    best = min(qa_cost, climb.best_cost)
    print(f"\nWork sharing saves {no_sharing_cost - best:.1f} cost units "
          f"({100 * (no_sharing_cost - best) / no_sharing_cost:.1f} % of the no-sharing plan).")


if __name__ == "__main__":
    main()
