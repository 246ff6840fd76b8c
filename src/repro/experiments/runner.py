"""Experiment orchestration: run all solvers on generated instances.

For every generated instance the runner executes

* the quantum-annealing pipeline (QA) on the device simulator, using the
  embedding that was co-generated with the instance, and
* the classical baselines (LIN-MQO, LIN-QUB, CLIMB, GA(50), GA(200))
  under the profile's wall-clock budget,

and collects everything needed to render the paper's exhibits: anytime
trajectories, the best known / proven optimal cost, embedding statistics
and timing information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.annealer.device import DWaveSamplerSimulator
from repro.baselines.anytime import AnytimeSolver, SolverTrajectory
from repro.baselines.genetic import GeneticAlgorithmSolver
from repro.baselines.hillclimb import IteratedHillClimbing
from repro.baselines.ilp_mqo import IntegerProgrammingMQOSolver
from repro.baselines.ilp_qubo import IntegerProgrammingQUBOSolver
from repro.chimera.defects import DefectModel
from repro.chimera.hardware import DWAVE_2X
from repro.chimera.topology import ChimeraGraph
from repro.core.pipeline import QuantumMQO, QuantumMQOResult
from repro.exceptions import ReproError
from repro.experiments.metrics import reference_cost
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.service.frontend import ServiceFrontend
from repro.utils.rng import SeedLike, ensure_rng, spawn_rng
from repro.workloads.embedded import (
    EmbeddedTestCase,
    TestCaseClass,
    generate_embedded_testcase,
    paper_test_classes,
)

__all__ = ["QuantumAnnealingFrontend", "InstanceResult", "ExperimentRunner"]

#: Display name of the quantum-annealing approach in figures.
QA_SOLVER_NAME = "QA"


class QuantumAnnealingFrontend:
    """Runs the QA pipeline on an embedded test case and yields a trajectory.

    The trajectory's time axis is *device time* (reads times the per-read
    duration), matching how the paper accounts for the annealer.
    """

    name = QA_SOLVER_NAME

    def __init__(self, device: DWaveSamplerSimulator, repair_invalid: bool = True) -> None:
        self.device = device
        self.repair_invalid = repair_invalid

    def solve_testcase(
        self,
        testcase: EmbeddedTestCase,
        num_reads: int,
        num_gauges: int,
        seed: SeedLike = None,
    ) -> Tuple[SolverTrajectory, QuantumMQOResult]:
        """Solve one embedded test case and return (trajectory, detailed result)."""
        pipeline = QuantumMQO(
            device=self.device,
            embedder=testcase.embedding,
            repair_invalid=self.repair_invalid,
            seed=seed,
        )
        result = pipeline.solve(
            testcase.problem, num_reads=num_reads, num_gauges=num_gauges, seed=seed
        )
        return result.anytime_trajectory(self.name), result


@dataclass
class InstanceResult:
    """Everything recorded for one instance of one test-case class."""

    testcase: EmbeddedTestCase
    trajectories: Dict[str, SolverTrajectory]
    quantum_result: QuantumMQOResult
    best_known_cost: float
    reference_cost: float
    proved_optimal: bool

    @property
    def problem_label(self) -> str:
        """Instance label for reports."""
        return self.testcase.problem.name

    def classical_trajectories(self) -> List[SolverTrajectory]:
        """Trajectories of every solver except QA."""
        return [t for name, t in self.trajectories.items() if name != QA_SOLVER_NAME]

    def quantum_trajectory(self) -> SolverTrajectory:
        """The QA trajectory."""
        return self.trajectories[QA_SOLVER_NAME]


class ExperimentRunner:
    """Generate instances and run the full solver line-up on them.

    When a :class:`~repro.service.frontend.ServiceFrontend` is supplied,
    the classical solver sweep is routed through its portfolio scheduler
    instead of the sequential in-process loop: all baselines race
    concurrently under the profile's budget and the runner records the
    per-member trajectories the race returns.  The solver line-up is then
    resolved *by name* against the frontend's registry, so custom solver
    instances must be registered there first.
    """

    def __init__(
        self,
        profile: ExperimentProfile | None = None,
        topology: ChimeraGraph | None = None,
        device: DWaveSamplerSimulator | None = None,
        solvers: Sequence[AnytimeSolver] | None = None,
        frontend: ServiceFrontend | None = None,
        seed: SeedLike = None,
    ) -> None:
        self.profile = profile or get_profile()
        self._rng = ensure_rng(seed)
        self.topology = topology if topology is not None else self._build_topology()
        self.device = device if device is not None else DWaveSamplerSimulator(
            spec=DWAVE_2X,
            topology=self.topology,
            num_sweeps=self.profile.sa_sweeps,
            seed=self._rng,
        )
        self.solvers: List[AnytimeSolver] = (
            list(solvers) if solvers is not None else self._default_solvers()
        )
        self.frontend = frontend
        self.quantum = QuantumAnnealingFrontend(self.device)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _build_topology(self) -> ChimeraGraph:
        base = ChimeraGraph(self.profile.chimera_rows, self.profile.chimera_cols)
        # Reproduce the paper machine's yield (1097 of 1152 functional qubits).
        return DefectModel().apply(base, seed=self._rng)

    def _default_solvers(self) -> List[AnytimeSolver]:
        solvers: List[AnytimeSolver] = [
            IntegerProgrammingMQOSolver(),
            IteratedHillClimbing(),
            GeneticAlgorithmSolver(population_size=50),
            GeneticAlgorithmSolver(population_size=200),
        ]
        if self.profile.include_slow_solvers:
            solvers.insert(1, IntegerProgrammingQUBOSolver())
        return solvers

    def test_classes(self, plans_range: tuple = (2, 3, 4, 5)) -> List[TestCaseClass]:
        """The evaluation classes for this runner's topology and profile."""
        return paper_test_classes(self.topology, self.profile, plans_range)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def generate_instances(
        self, test_class: TestCaseClass, num_instances: int | None = None
    ) -> List[EmbeddedTestCase]:
        """Generate the instances of one test-case class."""
        count = num_instances if num_instances is not None else self.profile.num_instances
        instances = []
        for child in spawn_rng(self._rng, count):
            instances.append(
                generate_embedded_testcase(
                    num_queries=test_class.num_queries,
                    plans_per_query=test_class.plans_per_query,
                    topology=self.topology,
                    seed=child,
                )
            )
        return instances

    def run_instance(self, testcase: EmbeddedTestCase) -> InstanceResult:
        """Run QA and every classical solver on one instance."""
        trajectories: Dict[str, SolverTrajectory] = {}
        qa_trajectory, quantum_result = self.quantum.solve_testcase(
            testcase,
            num_reads=self.profile.num_reads,
            num_gauges=self.profile.num_gauges,
            seed=self._rng,
        )
        trajectories[QA_SOLVER_NAME] = qa_trajectory

        if self.frontend is not None:
            race = self.frontend.race(
                testcase.problem,
                time_budget_ms=self.profile.classical_budget_ms,
                seed=int(self._rng.integers(0, 2**63 - 1)),
                solvers=[solver.name for solver in self.solvers],
            )
            if race.errors:
                raise ReproError(
                    f"portfolio members failed on {testcase.problem.name}: {race.errors}"
                )
            trajectories.update(race.trajectories)
        else:
            for solver in self.solvers:
                trajectories[solver.name] = solver.solve(
                    testcase.problem,
                    time_budget_ms=self.profile.classical_budget_ms,
                    seed=self._rng,
                )

        best_known = min(t.best_cost for t in trajectories.values())
        proved = any(
            t.proved_optimal and abs(t.best_cost - best_known) < 1e-9
            for t in trajectories.values()
        )
        return InstanceResult(
            testcase=testcase,
            trajectories=trajectories,
            quantum_result=quantum_result,
            best_known_cost=best_known,
            reference_cost=reference_cost(testcase.problem),
            proved_optimal=proved,
        )

    def run_class(
        self, test_class: TestCaseClass, num_instances: int | None = None
    ) -> List[InstanceResult]:
        """Generate and run every instance of one test-case class."""
        return [
            self.run_instance(testcase)
            for testcase in self.generate_instances(test_class, num_instances)
        ]

    def run_all_classes(
        self, plans_range: tuple = (2, 3, 4, 5), num_instances: int | None = None
    ) -> Dict[TestCaseClass, List[InstanceResult]]:
        """Run every test-case class; returns results keyed by class."""
        results: Dict[TestCaseClass, List[InstanceResult]] = {}
        for test_class in self.test_classes(plans_range):
            results[test_class] = self.run_class(test_class, num_instances)
        return results

    def solver_names(self) -> List[str]:
        """Solver display names in reporting order (QA first)."""
        return [QA_SOLVER_NAME] + [solver.name for solver in self.solvers]
