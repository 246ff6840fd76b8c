"""Portfolio scheduler: race several solvers on one instance.

Algorithm-portfolio scheduling is the classical answer to "which solver
should I run?": run several and keep the best.  The scheduler takes a
list of registered solver names, gives every member its own child seed
derived from the job seed, races them concurrently on threads, each
under the full wall-clock budget, and returns the best-cost winner
together with every member's trajectory and the merged anytime
trajectory of the whole portfolio.

Winner selection is deterministic: lowest best cost, ties broken by the
position of the solver in the raced line-up (registration order when the
line-up comes from the registry).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.anytime import (
    ImprovementObserver,
    SolverTrajectory,
    current_improvement_observers,
    observe_improvements,
)
from repro.exceptions import ServiceError
from repro.mqo.problem import MQOProblem, MQOSolution
from repro.obs.trace import get_tracer
from repro.service.registry import SolverRegistry, default_registry
from repro.utils.rng import derive_seed
from repro.utils.stopwatch import Stopwatch

__all__ = ["PortfolioScheduler", "PortfolioResult", "MERGED_TRAJECTORY_NAME"]

#: Solver name carried by the merged portfolio trajectory.
MERGED_TRAJECTORY_NAME = "PORTFOLIO"


def _member_seed(base_seed: Optional[int], member_index: int) -> int:
    """Deterministic child seed for portfolio member ``member_index``."""
    return derive_seed(base_seed, member_index)


@dataclass
class PortfolioResult:
    """Outcome of racing a portfolio on one instance.

    Attributes
    ----------
    problem:
        The raced instance.
    winner:
        Name of the member with the best final cost (``""`` when every
        member failed).
    trajectories:
        Per-member trajectories keyed by solver name (only members that
        finished successfully).
    merged_trajectory:
        Best-so-far envelope over all members, named
        :data:`MERGED_TRAJECTORY_NAME`; its ``best_solution`` is the
        winner's.
    errors:
        Member failures keyed by solver name (the race tolerates
        individual failures as long as one member succeeds).
    total_time_ms:
        Wall-clock time of the whole race.
    skipped:
        Members excluded up front because their capabilities reject the
        instance (e.g. too large for the annealer).
    """

    problem: MQOProblem
    winner: str
    trajectories: Dict[str, SolverTrajectory]
    merged_trajectory: SolverTrajectory
    errors: Dict[str, str] = field(default_factory=dict)
    total_time_ms: float = 0.0
    skipped: Tuple[str, ...] = ()

    @property
    def best_solution(self) -> Optional[MQOSolution]:
        """The winning solution (``None`` when every member failed)."""
        return self.merged_trajectory.best_solution

    @property
    def best_cost(self) -> float:
        """Cost of the winning solution (``inf`` when every member failed)."""
        return self.merged_trajectory.best_cost

    @property
    def winner_trajectory(self) -> SolverTrajectory:
        """The winner's own trajectory."""
        if not self.winner:
            raise ServiceError("portfolio produced no winner; see .errors")
        return self.trajectories[self.winner]


class PortfolioScheduler:
    """Race registered solvers on one instance under a shared budget.

    Parameters
    ----------
    registry:
        Solver registry to resolve names against (the process-wide
        default registry when omitted).
    solvers:
        Default line-up raced by :meth:`solve` when the call does not
        specify one.  ``None`` means "every registered solver that
        supports the instance".

    Members race on threads, each under the full wall-clock budget, so
    a race finishes when the slowest member's budget expires; a
    one-member line-up runs on the calling thread.
    """

    def __init__(
        self,
        registry: SolverRegistry | None = None,
        solvers: Sequence[str] | None = None,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self.solvers = tuple(solvers) if solvers is not None else None

    # ------------------------------------------------------------------ #
    # Line-up selection
    # ------------------------------------------------------------------ #
    def lineup(
        self, problem: MQOProblem, solvers: Sequence[str] | None = None
    ) -> Tuple[List[str], Tuple[str, ...]]:
        """Resolve the raced member names plus the capability-skipped ones.

        Explicitly requested names must exist in the registry; members
        whose capabilities reject the instance are skipped (reported, not
        raced).
        """
        requested = list(solvers if solvers is not None else self.solvers or self.registry.names())
        raced: List[str] = []
        skipped: List[str] = []
        for name in requested:
            spec = self.registry.get(name)
            if spec.capabilities.supports(problem):
                raced.append(name)
            else:
                skipped.append(name)
        if not raced:
            raise ServiceError(
                f"no portfolio member supports problem with {problem.num_plans} plans "
                f"(requested: {requested})"
            )
        return raced, tuple(skipped)

    # ------------------------------------------------------------------ #
    # Racing
    # ------------------------------------------------------------------ #
    def solve(
        self,
        problem: MQOProblem,
        time_budget_ms: float,
        seed: Optional[int] = None,
        solvers: Sequence[str] | None = None,
    ) -> PortfolioResult:
        """Race the portfolio on ``problem`` and return the full outcome."""
        if time_budget_ms <= 0:
            raise ServiceError(f"time_budget_ms must be positive, got {time_budget_ms}")
        raced, skipped = self.lineup(problem, solvers)
        stopwatch = Stopwatch().start()

        # Instantiate members up front and give solvers with a prepare()
        # hook (the QA adapter) the chance to compile the instance before
        # the race: the compilation lands in a shared cache, so it is paid
        # once instead of inside every member's timed budget.
        members = {name: self.registry.create(name) for name in raced}
        for name, solver in members.items():
            prepare = getattr(solver, "prepare", None)
            if callable(prepare):
                try:
                    prepare(problem)
                except Exception:  # noqa: BLE001 — preparation is best-effort;
                    # a failing member surfaces its error from solve() below.
                    pass

        # Anytime observers are registered per thread; capture the caller's
        # set so member threads can forward their improvements too (the
        # solver server streams live updates through this hook).  The
        # ambient span context is captured the same way: contextvars do
        # not cross ThreadPoolExecutor boundaries, so each member thread
        # re-installs the caller's context before opening its own span.
        inherited: Tuple[ImprovementObserver, ...] = current_improvement_observers()
        tracer = get_tracer()
        parent_context = tracer.current_context()

        def run_member(
            position: int,
            name: str,
            observers: Tuple[ImprovementObserver, ...] = (),
        ) -> SolverTrajectory:
            with tracer.activate(parent_context):
                with tracer.span("portfolio.member", {"solver": name}):
                    with observe_improvements(*observers):
                        return members[name].solve(
                            problem, time_budget_ms, seed=_member_seed(seed, position)
                        )

        trajectories: Dict[str, SolverTrajectory] = {}
        errors: Dict[str, str] = {}
        if len(raced) > 1:
            with ThreadPoolExecutor(max_workers=len(raced)) as pool:
                futures = {
                    name: pool.submit(run_member, position, name, inherited)
                    for position, name in enumerate(raced)
                }
                for name, future in futures.items():
                    try:
                        trajectories[name] = future.result()
                    except Exception as exc:  # noqa: BLE001 — any member failure
                        # lands in .errors; the race survives as long as one
                        # member succeeds.
                        errors[name] = f"{type(exc).__name__}: {exc}"
        else:
            (name,) = raced
            try:
                trajectories[name] = run_member(0, name)
            except Exception as exc:  # noqa: BLE001 — see above
                errors[name] = f"{type(exc).__name__}: {exc}"

        winner = self._pick_winner(raced, trajectories)
        merged = self._merge(raced, trajectories, winner)
        merged.total_time_ms = stopwatch.elapsed_ms()
        return PortfolioResult(
            problem=problem,
            winner=winner,
            trajectories=trajectories,
            merged_trajectory=merged,
            errors=errors,
            total_time_ms=merged.total_time_ms,
            skipped=skipped,
        )

    @staticmethod
    def _pick_winner(raced: List[str], trajectories: Dict[str, SolverTrajectory]) -> str:
        """Lowest best cost; ties resolved by line-up position."""
        winner = ""
        winner_cost = float("inf")
        for name in raced:  # line-up order makes the tie-break deterministic
            trajectory = trajectories.get(name)
            if trajectory is None or trajectory.best_solution is None:
                continue
            if trajectory.best_cost < winner_cost - 1e-12:
                winner = name
                winner_cost = trajectory.best_cost
        return winner

    @staticmethod
    def _merge(
        raced: List[str],
        trajectories: Dict[str, SolverTrajectory],
        winner: str,
    ) -> SolverTrajectory:
        """Best-so-far envelope over every member's anytime points.

        Every member's points keep its own time axis (solver wall clock,
        or device time for QA), whether the race has one member or
        several, so the merged trajectory reads on the same axis as its
        members.
        """
        merged = SolverTrajectory.envelope(
            [trajectories[name] for name in raced if name in trajectories],
            solver_name=MERGED_TRAJECTORY_NAME,
            best_solution=(
                trajectories[winner].best_solution if winner in trajectories else None
            ),
        )
        merged.proved_optimal = any(
            t.proved_optimal
            and t.best_solution is not None
            and abs(t.best_cost - merged.best_cost) < 1e-9
            for t in trajectories.values()
        )
        return merged
