"""Run one request in this process, and derive per-job seeds.

:func:`execute_request` is where a :class:`SolveRequest` meets its
solver: :meth:`~repro.service.frontend.ServiceFrontend.submit` runs every
cache miss here, in the server process on the thread tier and inside a
shard process on the shard tier (the fusion window's fused anneal is
the one other path).  Solver
failures come back as error results, so one bad job cannot take down a
workload.

:func:`derive_job_seed` gives the job at position ``index`` of a
workload its seed, from the workload's base seed alone, so a replayed
workload hands every solver the same stream however it is scheduled.
``repro-mqo batch`` and ``repro-mqo submit`` fill every missing seed
with it.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import ServiceError
from repro.obs.trace import get_tracer
from repro.service.jobs import PORTFOLIO_SOLVER, SolveRequest, SolveResult
from repro.service.portfolio import PortfolioScheduler
from repro.service.registry import SolverRegistry, default_registry
from repro.utils.rng import derive_seed
from repro.utils.stopwatch import Stopwatch

__all__ = ["execute_request", "derive_job_seed"]


def derive_job_seed(base_seed: Optional[int], job_index: int) -> int:
    """Deterministic per-job seed for position ``job_index`` of a workload."""
    return derive_seed(base_seed, job_index)


def execute_request(
    request: SolveRequest,
    registry: SolverRegistry | None = None,
) -> SolveResult:
    """Solve one request synchronously in the current process.

    ``solver="portfolio"`` races the portfolio scheduler; any other name
    runs that registered solver directly.  Solver failures are captured
    into :attr:`SolveResult.error` instead of propagating, so one bad job
    cannot take down a workload.
    """
    registry = registry if registry is not None else default_registry()
    stopwatch = Stopwatch().start()
    with get_tracer().span(
        "service.execute", {"solver": request.solver, "job_id": request.job_id or ""}
    ) as span:
        try:
            if request.solver == PORTFOLIO_SOLVER:
                outcome = PortfolioScheduler(registry=registry).solve(
                    request.problem,
                    request.time_budget_ms,
                    seed=request.seed,
                    solvers=request.solvers,
                )
                if not outcome.winner:
                    raise ServiceError(
                        f"every portfolio member failed: {outcome.errors}"
                    )
                result = SolveResult.from_trajectory(
                    request,
                    outcome.merged_trajectory,
                    winner=outcome.winner,
                    total_time_ms=stopwatch.elapsed_ms(),
                )
            else:
                solver = registry.create(request.solver)
                trajectory = solver.solve(
                    request.problem, request.time_budget_ms, seed=request.seed
                )
                # The registry name is the stable identity; the trajectory only
                # carries the solver's display name, which may differ.
                result = SolveResult.from_trajectory(
                    request,
                    trajectory,
                    winner=request.solver,
                    total_time_ms=stopwatch.elapsed_ms(),
                )
            span.set_attribute("winner", result.winner)
            return result
        except Exception as exc:  # noqa: BLE001 — any solver failure becomes a
            # per-job error result, so one bad job cannot take down a workload.
            span.set_attribute("error", type(exc).__name__)
            return SolveResult.from_error(request, f"{type(exc).__name__}: {exc}")
