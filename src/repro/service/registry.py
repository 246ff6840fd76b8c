"""Solver registry: stable names plus capability metadata.

Every solver usable by the service layer — the quantum-annealing
pipeline and the classical baselines alike — registers here under a
stable name together with a :class:`SolverCapabilities` record.  The
portfolio scheduler and :func:`~repro.service.batch.execute_request`
look solvers up by name, and capability metadata lets them skip solvers
that cannot handle a given instance (e.g. the QA pipeline beyond the
device capacity).

Registered factories must produce objects with the
:class:`~repro.baselines.anytime.AnytimeSolver` interface:
``solve(problem, time_budget_ms, seed) -> SolverTrajectory``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.baselines.anytime import AnytimeSolver
from repro.baselines.genetic import GeneticAlgorithmSolver
from repro.baselines.greedy import GreedyConstructiveSolver
from repro.baselines.hillclimb import IteratedHillClimbing
from repro.baselines.ilp_mqo import IntegerProgrammingMQOSolver
from repro.baselines.ilp_qubo import IntegerProgrammingQUBOSolver
from repro.exceptions import DuplicateSolverError, ServiceError, UnknownSolverError
from repro.mqo.problem import MQOProblem

__all__ = [
    "SolverCapabilities",
    "SolverSpec",
    "SolverRegistry",
    "default_registry",
    "register_default_solvers",
]

SolverFactory = Callable[[], AnytimeSolver]


@dataclass(frozen=True)
class SolverCapabilities:
    """What a registered solver can (and cannot) do.

    Attributes
    ----------
    anytime:
        Whether the solver improves its incumbent over time (all current
        solvers do; a future one-shot heuristic would not).
    exact:
        Whether the solver can prove optimality of its incumbent.
    deterministic:
        Whether results are reproducible given a fixed seed and enough
        budget to converge.
    max_plans:
        Upper bound on the total number of plans the solver accepts, or
        ``None`` for unbounded.  The QA pipeline is bounded by the
        number of functional qubits of its device.
    min_plans:
        Lower bound on the total number of plans, or ``None`` for no
        bound.  Lets specialist paths (the decomposition solver) opt out
        of small instances where the direct line-up is already strictly
        better, so the portfolio only routes oversized instances to them.
    tags:
        Free-form labels for filtering (e.g. ``("quantum",)``).
    description:
        One-line human-readable summary.
    """

    anytime: bool = True
    exact: bool = False
    deterministic: bool = True
    max_plans: Optional[int] = None
    min_plans: Optional[int] = None
    tags: tuple = ()
    description: str = ""

    def supports(self, problem: MQOProblem) -> bool:
        """Whether the solver accepts ``problem`` (size-wise)."""
        if self.max_plans is not None and problem.num_plans > self.max_plans:
            return False
        return self.min_plans is None or problem.num_plans >= self.min_plans


@dataclass(frozen=True)
class SolverSpec:
    """One registry entry: name, factory and capabilities."""

    name: str
    factory: SolverFactory = field(repr=False)
    capabilities: SolverCapabilities = field(default_factory=SolverCapabilities)

    def create(self) -> AnytimeSolver:
        """Instantiate a fresh solver object."""
        solver = self.factory()
        if not hasattr(solver, "solve"):
            raise ServiceError(
                f"factory for solver {self.name!r} produced {type(solver).__name__}, "
                "which has no solve() method"
            )
        return solver


class SolverRegistry:
    """Thread-safe name -> :class:`SolverSpec` mapping.

    Registration order is preserved and used as the deterministic
    tie-break when the portfolio scheduler picks a winner.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, SolverSpec] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        factory: SolverFactory,
        capabilities: SolverCapabilities | None = None,
        replace: bool = False,
    ) -> SolverSpec:
        """Register ``factory`` under ``name``; returns the new spec.

        Raises :class:`DuplicateSolverError` when ``name`` is taken and
        ``replace`` is false.
        """
        if not name or not isinstance(name, str):
            raise ServiceError(f"solver name must be a non-empty string, got {name!r}")
        spec = SolverSpec(
            name=name,
            factory=factory,
            capabilities=capabilities or SolverCapabilities(),
        )
        with self._lock:
            if name in self._specs and not replace:
                raise DuplicateSolverError(
                    f"solver {name!r} is already registered; pass replace=True to override"
                )
            self._specs[name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove a solver; raises :class:`UnknownSolverError` if absent."""
        with self._lock:
            if name not in self._specs:
                raise UnknownSolverError(f"cannot unregister unknown solver {name!r}")
            del self._specs[name]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> SolverSpec:
        """The spec registered under ``name``."""
        try:
            return self._specs[name]
        except KeyError:
            raise UnknownSolverError(
                f"unknown solver {name!r}; registered: {sorted(self._specs)}"
            ) from None

    def create(self, name: str) -> AnytimeSolver:
        """Instantiate the solver registered under ``name``."""
        return self.get(name).create()

    def names(self) -> List[str]:
        """All registered names in registration order."""
        return list(self._specs)

    def specs(self) -> List[SolverSpec]:
        """All specs in registration order."""
        return list(self._specs.values())

    def supporting(self, problem: MQOProblem) -> List[str]:
        """Names of solvers whose capabilities accept ``problem``."""
        return [
            spec.name for spec in self._specs.values() if spec.capabilities.supports(problem)
        ]

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SolverRegistry {self.names()}>"


def register_default_solvers(registry: SolverRegistry) -> SolverRegistry:
    """Register the paper's full solver line-up into ``registry``.

    The QA adapter is imported at call time so this module stays
    importable on its own without pulling in the annealing pipeline
    (``import repro`` loads the full stack regardless).
    """
    from repro.service.qa_adapter import QuantumAnnealingSolver

    registry.register(
        QuantumAnnealingSolver.name,
        QuantumAnnealingSolver,
        SolverCapabilities(
            anytime=True,
            exact=False,
            deterministic=True,
            max_plans=QuantumAnnealingSolver.default_max_plans(),
            tags=("quantum", "sparse", "batched"),
            description=(
                "simulated D-Wave annealing pipeline (Algorithm 1); sparse "
                "CSR sweeps, fused gauge batches, prepared-pipeline cache"
            ),
        ),
    )
    registry.register(
        IntegerProgrammingMQOSolver.name,
        IntegerProgrammingMQOSolver,
        SolverCapabilities(
            exact=True,
            tags=("exact", "ilp"),
            description="branch-and-bound on the MQO integer program",
        ),
    )
    registry.register(
        IntegerProgrammingQUBOSolver.name,
        IntegerProgrammingQUBOSolver,
        SolverCapabilities(
            exact=True,
            tags=("exact", "ilp", "slow"),
            description="branch-and-bound on the linearised QUBO",
        ),
    )
    registry.register(
        IteratedHillClimbing.name,
        IteratedHillClimbing,
        SolverCapabilities(
            tags=("heuristic",),
            description="random-restart steepest-descent hill climbing",
        ),
    )
    registry.register(
        "GA(50)",
        lambda: GeneticAlgorithmSolver(population_size=50),
        SolverCapabilities(
            tags=("heuristic", "genetic"),
            description="genetic algorithm, population 50",
        ),
    )
    registry.register(
        "GA(200)",
        lambda: GeneticAlgorithmSolver(population_size=200),
        SolverCapabilities(
            tags=("heuristic", "genetic"),
            description="genetic algorithm, population 200",
        ),
    )
    registry.register(
        GreedyConstructiveSolver.name,
        GreedyConstructiveSolver,
        SolverCapabilities(
            anytime=False,
            tags=("heuristic", "constructive"),
            description="one-pass constructive greedy (warm-start quality)",
        ),
    )

    from repro.core.decomposition import ParallelDecomposition

    registry.register(
        ParallelDecomposition.name,
        ParallelDecomposition,
        SolverCapabilities(
            anytime=True,
            exact=False,
            deterministic=True,
            # Only instances beyond the annealer's device capacity route
            # here; below it the direct line-up is strictly better.
            min_plans=QuantumAnnealingSolver.default_max_plans() + 1,
            tags=("quantum", "decomposition", "parallel"),
            description=(
                "parallel partition-solve-stitch decomposition; farms "
                "cluster sub-QUBOs through the service under a wave schedule"
            ),
        ),
    )
    return registry


_default_registry: SolverRegistry | None = None
_default_registry_lock = threading.Lock()


def default_registry() -> SolverRegistry:
    """The process-wide registry preloaded with the paper's solvers.

    Built lazily on first use; subsequent calls return the same object so
    applications can extend it with their own solvers.
    """
    global _default_registry
    with _default_registry_lock:
        if _default_registry is None:
            _default_registry = register_default_solvers(SolverRegistry())
        return _default_registry
