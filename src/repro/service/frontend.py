"""ServiceFrontend: the facade of the solver service.

One object wires the registry, the portfolio scheduler and the result
cache together and offers the entry points the outer layers need:

* :meth:`ServiceFrontend.solve` / :meth:`ServiceFrontend.submit` — one
  problem or prepared request, cache-aware, portfolio or named solver
  (the server runs every job through ``submit``),
* :meth:`ServiceFrontend.submit_fused` — a fusion window's requests.

Many problems go through the solver server, whose worker pool calls
``submit`` per job and ``submit_fused`` per fusion window on every
tier; ``repro-mqo batch`` hosts a private one.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.mqo.problem import MQOProblem
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.service.batch import execute_request
from repro.service.cache import ResultCache
from repro.service.jobs import (
    PORTFOLIO_SOLVER,
    SolveRequest,
    SolveResult,
    echo_result_for_duplicate,
)
from repro.service.portfolio import PortfolioScheduler
from repro.service.registry import SolverRegistry, default_registry

__all__ = ["ServiceFrontend"]

#: Result-cache traffic as seen from the frontend's submit() path.
_CACHE_HITS = get_registry().counter(
    "repro_service_result_cache_hits_total", "Frontend result-cache hits."
)
_CACHE_MISSES = get_registry().counter(
    "repro_service_result_cache_misses_total", "Frontend result-cache misses."
)


def _attribute_winner(winner: str) -> None:
    """Count which solver won this request (portfolio attribution)."""
    get_registry().counter(
        "repro_service_wins_total", "Requests won, by solver.", {"solver": winner or "unknown"}
    ).inc()


class ServiceFrontend:
    """High-level interface to the MQO solver service.

    Parameters
    ----------
    registry:
        Solver registry (the process-wide default when omitted).
    cache:
        Optional result cache shared by :meth:`solve`, :meth:`submit`
        and :meth:`submit_fused`.
    portfolio_solvers:
        Default portfolio line-up (``None`` = every capable solver).
    """

    def __init__(
        self,
        registry: SolverRegistry | None = None,
        cache: ResultCache | None = None,
        portfolio_solvers: Sequence[str] | None = None,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self.cache = cache
        self.scheduler = PortfolioScheduler(registry=self.registry, solvers=portfolio_solvers)

    # ------------------------------------------------------------------ #
    # Single-instance entry points
    # ------------------------------------------------------------------ #
    def solve(
        self,
        problem: MQOProblem,
        solver: str = PORTFOLIO_SOLVER,
        time_budget_ms: float = 1000.0,
        seed: Optional[int] = None,
        solvers: Sequence[str] | None = None,
    ) -> SolveResult:
        """Solve one problem through the service (cache-aware)."""
        request = SolveRequest(
            problem=problem,
            solver=solver,
            time_budget_ms=time_budget_ms,
            seed=seed,
            solvers=tuple(solvers) if solvers is not None else self.scheduler.solvers,
        )
        return self.submit(request)

    def _with_default_lineup(self, request: SolveRequest) -> SolveRequest:
        """Apply the frontend's portfolio line-up to an unrestricted request.

        Done before cache lookup so ``solve()``, ``submit()`` and
        ``submit_fused()`` compute the same cache key for the same work.
        """
        if (
            request.solver != PORTFOLIO_SOLVER
            or request.solvers is not None
            or self.scheduler.solvers is None
        ):
            return request
        return SolveRequest(
            problem=request.problem,
            solver=request.solver,
            time_budget_ms=request.time_budget_ms,
            seed=request.seed,
            job_id=request.job_id,
            solvers=self.scheduler.solvers,
            metadata=request.metadata,
        )

    def _cached(self, request: SolveRequest) -> Optional[SolveResult]:
        """The cache's answer to ``request``, echoed with its identity."""
        if self.cache is None:
            return None
        cached = self.cache.get(request.cache_key())
        if cached is None:
            _CACHE_MISSES.inc()
            return None
        _CACHE_HITS.inc()
        return echo_result_for_duplicate(SolveResult.from_dict(cached), request)

    def _record(self, request: SolveRequest, result: SolveResult) -> None:
        """Attribute a fresh success to its winner and cache it."""
        if result.ok:
            _attribute_winner(result.winner)
            if self.cache is not None:
                self.cache.put(request.cache_key(), result.to_dict())

    def submit(
        self,
        request: SolveRequest,
        execute: Optional[Callable[[SolveRequest], SolveResult]] = None,
    ) -> SolveResult:
        """Solve one prepared request (cache-aware).

        A cache miss runs through ``execute`` when given — the server's
        shard slots pass one that runs it in a shard process — and
        through :func:`~repro.service.batch.execute_request` in this
        process otherwise.  Either way the result is cached here.
        """
        request = self._with_default_lineup(request)
        tracer = get_tracer()
        with tracer.span(
            "service.submit", {"solver": request.solver, "job_id": request.job_id or ""}
        ) as span:
            cached = self._cached(request)
            if self.cache is not None:
                span.set_attribute("cache", "miss" if cached is None else "hit")
            if cached is not None:
                return cached
            if execute is None:
                result = execute_request(request, registry=self.registry)
            else:
                result = execute(request)
            self._record(request, result)
            if result.ok:
                span.set_attribute("winner", result.winner)
            return result

    def submit_fused(
        self,
        requests: Sequence[SolveRequest],
        execute: Optional[Callable[[List[SolveRequest]], List[SolveResult]]] = None,
    ) -> List[SolveResult]:
        """Solve a window of requests with their anneals fused.

        The cross-request counterpart of :meth:`submit`, used by the
        server's fusion window: cache hits are served per request
        exactly as :meth:`submit` serves them, and the misses run
        through ``execute`` when given (a shard slot's) or else
        :func:`~repro.service.fusion.execute_fused_requests`, which
        anneals every annealing-backed request in one fused
        block-diagonal sweep and runs the rest solo.  Results come back
        in request order; each is bit-identical to what :meth:`submit`
        would have returned (wall-clock timing aside).
        """
        from repro.service.fusion import execute_fused_requests

        requests = [self._with_default_lineup(request) for request in requests]
        with get_tracer().span("service.submit_fused", {"jobs": len(requests)}) as span:
            results = [self._cached(request) for request in requests]
            misses = [index for index, result in enumerate(results) if result is None]
            span.set_attribute("cache_hits", len(requests) - len(misses))
            if misses:
                missed = [requests[index] for index in misses]
                if execute is None:
                    executed = execute_fused_requests(missed, registry=self.registry)
                else:
                    executed = execute(missed)
                for index, result in zip(misses, executed):
                    self._record(requests[index], result)
                    results[index] = result
        return results  # type: ignore[return-value]
