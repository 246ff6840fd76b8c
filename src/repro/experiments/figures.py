"""Builders for the figure data of the paper's evaluation.

Every function returns plain row data (lists of tuples) plus a rendered
plain-text table so the benchmark harness can both print the exhibit and
assert on its structure.  The series correspond one-to-one to the paper's
figure legends.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from repro.core.complexity import capacity_frontier
from repro.exceptions import ReproError
from repro.experiments.metrics import geometric_mean, scaled_cost, speedup_over_classical
from repro.experiments.runner import InstanceResult
from repro.workloads.embedded import TestCaseClass
from repro.utils.tables import format_table

__all__ = [
    "quality_vs_time_rows",
    "quality_vs_time_table",
    "figure4_table",
    "figure5_table",
    "figure6_rows",
    "figure6_table",
    "figure7_rows",
    "figure7_table",
]


# --------------------------------------------------------------------------- #
# Figures 4 and 5: solution quality versus optimisation time
# --------------------------------------------------------------------------- #
def quality_vs_time_rows(
    results: Sequence[InstanceResult],
    checkpoints_ms: Sequence[float],
    solver_names: Sequence[str],
) -> List[Tuple]:
    """Average scaled cost per solver at every checkpoint.

    Each row is ``(checkpoint_ms, cost_solver_1, cost_solver_2, ...)``
    in the order of ``solver_names``; costs are averaged over instances.
    Checkpoints before a solver's first solution contribute the scaled
    cost of the pessimistic reference (1.0), mirroring how the paper's
    plots simply show no improvement yet.
    """
    if not results:
        raise ReproError("no instance results given")
    rows = []
    for checkpoint in checkpoints_ms:
        row: List[float] = [float(checkpoint)]
        for name in solver_names:
            values = []
            for result in results:
                trajectory = result.trajectories.get(name)
                if trajectory is None:
                    continue
                cost = trajectory.cost_at_time(checkpoint)
                value = scaled_cost(cost, result.best_known_cost, result.reference_cost)
                values.append(min(value, 1.0) if value != float("inf") else 1.0)
            row.append(sum(values) / len(values) if values else float("nan"))
        rows.append(tuple(row))
    return rows


def quality_vs_time_table(
    results: Sequence[InstanceResult],
    checkpoints_ms: Sequence[float],
    solver_names: Sequence[str],
    title: str,
) -> str:
    """Rendered quality-versus-time table (one column per solver)."""
    rows = quality_vs_time_rows(results, checkpoints_ms, solver_names)
    headers = ["time (ms)"] + list(solver_names)
    return format_table(headers, rows, float_fmt=".4f", title=title)


def figure4_table(
    results: Sequence[InstanceResult],
    checkpoints_ms: Sequence[float],
    solver_names: Sequence[str],
    test_class: TestCaseClass,
) -> str:
    """Figure 4: quality versus time for the 2-plans-per-query class."""
    title = (
        "Figure 4: scaled solution cost vs optimization time "
        f"({test_class.label}, average over {len(results)} instances)"
    )
    return quality_vs_time_table(results, checkpoints_ms, solver_names, title)


def figure5_table(
    results: Sequence[InstanceResult],
    checkpoints_ms: Sequence[float],
    solver_names: Sequence[str],
    test_class: TestCaseClass,
) -> str:
    """Figure 5: quality versus time for the 5-plans-per-query class."""
    title = (
        "Figure 5: scaled solution cost vs optimization time "
        f"({test_class.label}, average over {len(results)} instances)"
    )
    return quality_vs_time_table(results, checkpoints_ms, solver_names, title)


# --------------------------------------------------------------------------- #
# Figure 6: quantum speedup versus qubits per variable
# --------------------------------------------------------------------------- #
def figure6_rows(
    results_by_class: Dict[TestCaseClass, Sequence[InstanceResult]],
    classical_budget_ms: float,
) -> List[Tuple[str, float, float]]:
    """Per test class: (label, qubits per variable, average speedup)."""
    rows = []
    for test_class, results in results_by_class.items():
        if not results:
            continue
        qubits_per_variable = statistics.mean(
            result.testcase.qubits_per_variable for result in results
        )
        speedups = []
        for result in results:
            qa = result.quantum_trajectory()
            if not qa.points:
                continue
            first_read_time, first_read_cost = qa.points[0]
            speedups.append(
                speedup_over_classical(
                    quantum_first_read_cost=first_read_cost,
                    quantum_first_read_time_ms=first_read_time,
                    classical_trajectories=result.classical_trajectories(),
                    classical_budget_ms=classical_budget_ms,
                )
            )
        average_speedup = geometric_mean(speedups) if speedups else float("nan")
        rows.append((test_class.label, qubits_per_variable, average_speedup))
    rows.sort(key=lambda row: row[1])
    return rows


def figure6_table(
    results_by_class: Dict[TestCaseClass, Sequence[InstanceResult]],
    classical_budget_ms: float,
) -> str:
    """Figure 6: average quantum speedup per class, ordered by qubits/variable."""
    rows = figure6_rows(results_by_class, classical_budget_ms)
    return format_table(
        ["test class", "qubits per variable", "avg speedup (x)"],
        rows,
        float_fmt=".2f",
        title="Figure 6: quantum speedup vs qubits per logical variable",
    )


# --------------------------------------------------------------------------- #
# Figure 7: representable problem dimensions per qubit budget
# --------------------------------------------------------------------------- #
def figure7_rows(
    qubit_budgets: Sequence[int] = (1152, 2304, 4608),
    plans_range: Sequence[int] = tuple(range(2, 21)),
    pattern: str = "clustered",
) -> List[Tuple]:
    """Rows ``(plans_per_query, max_queries@budget1, max_queries@budget2, ...)``."""
    frontiers = {
        budget: {
            point.plans_per_query: point.max_queries
            for point in capacity_frontier(budget, plans_range, pattern=pattern)
        }
        for budget in qubit_budgets
    }
    rows = []
    for plans_per_query in plans_range:
        rows.append(
            tuple(
                [plans_per_query]
                + [frontiers[budget][plans_per_query] for budget in qubit_budgets]
            )
        )
    return rows


def figure7_table(
    qubit_budgets: Sequence[int] = (1152, 2304, 4608),
    plans_range: Sequence[int] = tuple(range(2, 21)),
    pattern: str = "clustered",
) -> str:
    """Figure 7: maximal problem dimensions representable per qubit budget."""
    rows = figure7_rows(qubit_budgets, plans_range, pattern)
    headers = ["plans/query"] + [f"{budget} qubits" for budget in qubit_budgets]
    return format_table(
        headers,
        rows,
        title=f"Figure 7: maximal representable queries ({pattern} embedding pattern)",
    )
