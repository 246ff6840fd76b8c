"""Solver shoot-out: quality versus time for QA and every classical baseline.

A miniature version of the paper's Figures 4/5: one embedded workload is
solved by the quantum-annealing pipeline and by LIN-MQO, LIN-QUB, CLIMB,
GA(50) and GA(200); the best-so-far cost of every approach is reported at
logarithmically spaced time checkpoints.

Run with:  python examples/solver_shootout.py
"""

from repro import (
    DWaveSamplerSimulator,
    GeneticAlgorithmSolver,
    IntegerProgrammingMQOSolver,
    IntegerProgrammingQUBOSolver,
    IteratedHillClimbing,
)
from repro.chimera.defects import DefectModel
from repro.chimera.topology import ChimeraGraph
from repro.experiments.metrics import reference_cost, scaled_cost
from repro.experiments.runner import QuantumAnnealingFrontend
from repro.workloads.embedded import generate_embedded_testcase
from repro.utils.tables import format_table

CHECKPOINTS_MS = (1.0, 10.0, 100.0, 1000.0, 3000.0)
CLASSICAL_BUDGET_MS = 3000.0


def main() -> None:
    # Device: the paper's 12x12 Chimera with a realistic broken-qubit yield.
    topology = DefectModel().apply(ChimeraGraph(12, 12), seed=2)
    device = DWaveSamplerSimulator(topology=topology, seed=2)

    # Workload: 60 queries with 3 plans each, co-designed with its embedding.
    testcase = generate_embedded_testcase(60, 3, topology, seed=4)
    print(testcase.problem.describe())
    print(f"Embedding: {testcase.embedding.num_qubits} qubits, "
          f"{testcase.qubits_per_variable:.2f} qubits per plan variable\n")

    trajectories = {}
    qa_trajectory, _result = QuantumAnnealingFrontend(device).solve_testcase(
        testcase, num_reads=500, num_gauges=10, seed=1
    )
    trajectories["QA"] = qa_trajectory

    classical_solvers = [
        IntegerProgrammingMQOSolver(),
        IntegerProgrammingQUBOSolver(),
        IteratedHillClimbing(),
        GeneticAlgorithmSolver(population_size=50),
        GeneticAlgorithmSolver(population_size=200),
    ]
    for solver in classical_solvers:
        trajectories[solver.name] = solver.solve(
            testcase.problem, time_budget_ms=CLASSICAL_BUDGET_MS, seed=1
        )

    best_known = min(t.best_cost for t in trajectories.values())
    reference = reference_cost(testcase.problem)
    headers = ["time (ms)"] + list(trajectories)
    rows = []
    for checkpoint in CHECKPOINTS_MS:
        row = [checkpoint]
        for trajectory in trajectories.values():
            value = scaled_cost(trajectory.cost_at_time(checkpoint), best_known, reference)
            row.append(min(value, 1.0) if value != float("inf") else 1.0)
        rows.append(tuple(row))
    print(format_table(headers, rows, float_fmt=".3f",
                       title="Scaled cost (0 = best known) vs optimization time"))

    qa_first_time, qa_first_cost = qa_trajectory.points[0]
    matches = [
        (name, trajectory.time_to_reach(qa_first_cost))
        for name, trajectory in trajectories.items()
        if name != "QA"
    ]
    print("\nTime for each classical solver to match the first annealing read "
          f"(cost {qa_first_cost:.1f} after {qa_first_time:.2f} ms of device time):")
    for name, matched in matches:
        if matched is None:
            print(f"  {name:>8}: not matched within {CLASSICAL_BUDGET_MS:.0f} ms")
        else:
            print(f"  {name:>8}: {matched:8.1f} ms  (speedup ~{matched / qa_first_time:.0f}x)")


if __name__ == "__main__":
    main()
