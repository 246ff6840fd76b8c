"""Builders for the tabular exhibits of the paper's evaluation (Table 1)."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import ReproError
from repro.experiments.runner import InstanceResult
from repro.workloads.embedded import TestCaseClass
from repro.utils.tables import format_table

__all__ = ["table1_rows", "table1_table"]

#: Solver whose time-to-optimality Table 1 reports.
TABLE1_SOLVER = "LIN-MQO"


def table1_rows(
    results_by_class: Dict[TestCaseClass, Sequence[InstanceResult]],
) -> List[Tuple[int, float, float, float]]:
    """Rows ``(num_queries, min_ms, median_ms, max_ms)`` for LIN-MQO.

    The time reported per instance is the moment the LIN-MQO incumbent
    first reached the best known cost of the instance; instances where
    LIN-MQO never reached it within its budget contribute the full budget
    (a conservative lower bound, flagged in EXPERIMENTS.md).
    """
    if not results_by_class:
        raise ReproError("no results given")
    rows = []
    for test_class, results in results_by_class.items():
        times = []
        for result in results:
            trajectory = result.trajectories.get(TABLE1_SOLVER)
            if trajectory is None:
                continue
            reached = trajectory.time_to_reach(result.best_known_cost)
            times.append(reached if reached is not None else trajectory.total_time_ms)
        if not times:
            continue
        rows.append(
            (
                test_class.num_queries,
                min(times),
                statistics.median(times),
                max(times),
            )
        )
    rows.sort(key=lambda row: -row[0])
    return rows


def table1_table(results_by_class: Dict[TestCaseClass, Sequence[InstanceResult]]) -> str:
    """Rendered Table 1: milliseconds until LIN-MQO finds the optimal solution."""
    rows = table1_rows(results_by_class)
    return format_table(
        ["# Queries", "Minimum", "Median", "Maximum"],
        rows,
        float_fmt=".1f",
        title="Table 1: milliseconds until finding the optimal solution (LIN-MQO)",
    )
