"""Anytime-solver framework with best-so-far trajectories.

The paper compares optimisation approaches "in terms of how solution
quality ... evolves as a function of optimization time" (Section 7.2).
Every classical solver therefore implements :class:`AnytimeSolver`: it
runs under a time budget, registers every improvement of its incumbent
solution with a timestamp, and returns a :class:`SolverTrajectory` from
which the cost at arbitrary checkpoints can be read.
"""

from __future__ import annotations

import abc
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import SolverError
from repro.mqo.problem import MQOProblem, MQOSolution
from repro.obs.metrics import get_registry
from repro.utils.rng import SeedLike
from repro.utils.stopwatch import Stopwatch

__all__ = [
    "SolverTrajectory",
    "AnytimeSolver",
    "TrajectoryRecorder",
    "ImprovementObserver",
    "observe_improvements",
    "current_improvement_observers",
]

#: Callback invoked on every incumbent improvement a solver records:
#: ``observer(solver_name, elapsed_ms, cost)``.
ImprovementObserver = Callable[[str, float, float], None]

_OBSERVERS = threading.local()

#: Incumbent improvements recorded across all solvers (a counter, not a
#: span: improvement loops are far too hot for per-iteration spans).
_IMPROVEMENTS = get_registry().counter(
    "repro_solver_improvements_total", "Incumbent improvements recorded by solvers."
)


def current_improvement_observers() -> Tuple[ImprovementObserver, ...]:
    """Observers installed for the *current thread* (empty when none).

    The solver server uses this to stream anytime updates: it installs an
    observer around a solve call, and the portfolio scheduler re-installs
    the caller's observers inside its member threads so improvements made
    on racing threads are forwarded too.
    """
    return getattr(_OBSERVERS, "installed", ())


@contextmanager
def observe_improvements(*observers: ImprovementObserver) -> Iterator[None]:
    """Register ``observers`` for improvements recorded on this thread.

    Every :meth:`TrajectoryRecorder.record` call that improves the
    incumbent notifies the observers installed on the recording thread
    with ``(solver_name, elapsed_ms, cost)``.  Contexts nest: inner
    registrations are appended to (not replacing) the outer ones, and the
    previous set is restored on exit.  Observer exceptions are swallowed
    so a misbehaving listener cannot fail a solver.
    """
    previous = getattr(_OBSERVERS, "installed", ())
    _OBSERVERS.installed = previous + tuple(observers)
    try:
        yield
    finally:
        _OBSERVERS.installed = previous


@dataclass
class SolverTrajectory:
    """Best-so-far cost over time for one solver run.

    Attributes
    ----------
    solver_name:
        Display name of the solver (matches the figure legends).
    points:
        Monotonically improving ``(elapsed_ms, best_cost)`` pairs in the
        order the improvements were found.
    best_solution:
        The final incumbent.
    proved_optimal:
        Whether the solver proved its incumbent optimal (exact solvers).
    total_time_ms:
        Wall-clock (or device) time consumed by the run.
    """

    solver_name: str
    points: List[Tuple[float, float]] = field(default_factory=list)
    best_solution: Optional[MQOSolution] = None
    proved_optimal: bool = False
    total_time_ms: float = 0.0

    @property
    def best_cost(self) -> float:
        """Cost of the final incumbent (``inf`` when nothing was found)."""
        if not self.points:
            return float("inf")
        return self.points[-1][1]

    def cost_at_time(self, time_ms: float) -> float:
        """Best cost achieved no later than ``time_ms`` (``inf`` before the first)."""
        best = float("inf")
        for elapsed, cost in self.points:
            if elapsed <= time_ms:
                best = cost
            else:
                break
        return best

    def time_to_reach(self, cost_threshold: float) -> Optional[float]:
        """Earliest time at which the cost reached (or beat) ``cost_threshold``."""
        for elapsed, cost in self.points:
            if cost <= cost_threshold + 1e-9:
                return elapsed
        return None

    def sampled(self, checkpoints_ms: Sequence[float]) -> List[Tuple[float, float]]:
        """The trajectory resampled at the given checkpoints."""
        return [(t, self.cost_at_time(t)) for t in checkpoints_ms]

    @classmethod
    def envelope(
        cls,
        trajectories: Sequence["SolverTrajectory"],
        solver_name: str = "ENVELOPE",
        best_solution: Optional[MQOSolution] = None,
        proved_optimal: bool = False,
    ) -> "SolverTrajectory":
        """Best-so-far envelope over several trajectories on a shared clock.

        Every trajectory's points are merged in time order and reduced to
        the monotone best-so-far frontier.  This is how the portfolio
        scheduler reports "the portfolio's" anytime behaviour over its
        members.
        """
        events = sorted(
            (elapsed, cost) for trajectory in trajectories for elapsed, cost in trajectory.points
        )
        points: List[Tuple[float, float]] = []
        best = float("inf")
        for elapsed, cost in events:
            if cost < best - 1e-12:
                best = cost
                points.append((elapsed, cost))
        return cls(
            solver_name=solver_name,
            points=points,
            best_solution=best_solution,
            proved_optimal=proved_optimal,
        )


class TrajectoryRecorder:
    """Helper that solvers use to register incumbent improvements."""

    def __init__(self, solver_name: str, clock: Stopwatch | None = None) -> None:
        self.solver_name = solver_name
        self._clock = clock or Stopwatch().start()
        self._points: List[Tuple[float, float]] = []
        self._best_cost = float("inf")
        self._best_solution: Optional[MQOSolution] = None

    @property
    def best_cost(self) -> float:
        """Cost of the current incumbent."""
        return self._best_cost

    @property
    def best_solution(self) -> Optional[MQOSolution]:
        """The current incumbent solution."""
        return self._best_solution

    def elapsed_ms(self) -> float:
        """Elapsed time since the recorder was created."""
        return self._clock.elapsed_ms()

    def record(self, solution: MQOSolution, elapsed_ms: float | None = None) -> bool:
        """Register ``solution`` if it improves the incumbent.

        Returns whether the incumbent improved.
        """
        if not solution.is_valid:
            raise SolverError(
                f"{self.solver_name} tried to record an invalid solution"
            )
        if solution.cost >= self._best_cost - 1e-12:
            return False
        self._best_cost = solution.cost
        self._best_solution = solution
        point_time = self.elapsed_ms() if elapsed_ms is None else elapsed_ms
        self._points.append((point_time, solution.cost))
        _IMPROVEMENTS.inc()
        for observer in current_improvement_observers():
            try:
                observer(self.solver_name, point_time, solution.cost)
            except Exception:  # noqa: BLE001 — a bad listener must not fail the solver
                pass
        return True

    def finish(self, proved_optimal: bool = False) -> SolverTrajectory:
        """Freeze the recording into a :class:`SolverTrajectory`."""
        return SolverTrajectory(
            solver_name=self.solver_name,
            points=list(self._points),
            best_solution=self._best_solution,
            proved_optimal=proved_optimal,
            total_time_ms=self.elapsed_ms(),
        )


class AnytimeSolver(abc.ABC):
    """Interface of every classical MQO solver in the benchmark suite."""

    #: Display name used in figure legends and tables.
    name: str = "solver"

    @abc.abstractmethod
    def solve(
        self,
        problem: MQOProblem,
        time_budget_ms: float,
        seed: SeedLike = None,
    ) -> SolverTrajectory:
        """Optimise ``problem`` within ``time_budget_ms`` milliseconds."""

    def _check_budget(self, time_budget_ms: float) -> None:
        if time_budget_ms <= 0:
            raise SolverError(
                f"{self.name}: time budget must be positive, got {time_budget_ms}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
