"""Request/response model of the solver service.

A :class:`SolveRequest` bundles one MQO instance with the solver choice
(a registered name or the ``"portfolio"`` pseudo-solver), the time
budget and the seed.  A :class:`SolveResult` is the flat, JSON-friendly
outcome: winning solver, best cost, selected plans, anytime trajectory,
timing and cache provenance.  Both sides round-trip through plain
dictionaries, so they can travel as wire frames of the solver server
and be streamed as JSONL by the CLI.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.anytime import SolverTrajectory
from repro.exceptions import ServiceError
from repro.mqo.problem import MQOProblem
from repro.mqo.serialization import (
    exact_problem_token,
    problem_from_dict,
    problem_to_dict,
)

__all__ = [
    "PORTFOLIO_SOLVER",
    "SolveRequest",
    "SolveResult",
    "request_from_spec",
    "echo_result_for_duplicate",
]

#: Pseudo-solver name routing a request through the portfolio scheduler.
PORTFOLIO_SOLVER = "portfolio"


@dataclass
class SolveRequest:
    """One unit of work for the solver service.

    Attributes
    ----------
    problem:
        The MQO instance to solve.
    solver:
        A registered solver name, or :data:`PORTFOLIO_SOLVER` to race
        the portfolio.
    time_budget_ms:
        Wall-clock budget for the run (shared by all portfolio members).
    seed:
        Integer seed for deterministic replay.  ``repro-mqo batch`` and
        ``repro-mqo submit`` fill a missing one with
        :func:`~repro.service.batch.derive_job_seed` of the job's
        position.
    job_id:
        Caller-chosen identifier echoed into the result.
    solvers:
        Optional restriction of the portfolio line-up to these names.
    metadata:
        Free-form payload echoed into the result untouched.
    """

    problem: MQOProblem
    solver: str = PORTFOLIO_SOLVER
    time_budget_ms: float = 1000.0
    seed: Optional[int] = None
    job_id: str = ""
    solvers: Optional[Tuple[str, ...]] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time_budget_ms <= 0:
            raise ServiceError(
                f"time_budget_ms must be positive, got {self.time_budget_ms}"
            )
        if self.solvers is not None:
            self.solvers = tuple(self.solvers)

    def cache_key(self) -> str:
        """Cache key: problem identity + solving configuration.

        The problem enters twice: its canonical hash, and its exact
        token, because a result's ``selected_plans`` are concrete plan
        indices.  Renamed problems therefore share entries, while
        problems that list a query's plans in another order do not.
        The seed is part of the key because stochastic solvers produce
        seed-dependent results; two requests hit the same entry only when
        they would provably compute the same answer.  The server's
        in-flight coalescing keys on this too.
        """
        config = {
            "problem": self.problem.canonical_hash(),
            "exact": exact_problem_token(self.problem),
            "solver": self.solver,
            "solvers": list(self.solvers) if self.solvers is not None else None,
            "time_budget_ms": self.time_budget_ms,
            "seed": self.seed,
        }
        payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (a full-request workload line or wire spec)."""
        return {
            "problem": problem_to_dict(self.problem),
            "solver": self.solver,
            "time_budget_ms": self.time_budget_ms,
            "seed": self.seed,
            "job_id": self.job_id,
            "solvers": list(self.solvers) if self.solvers is not None else None,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SolveRequest":
        """Rebuild a request from :meth:`to_dict` output."""
        try:
            problem = problem_from_dict(data["problem"])
        except KeyError:
            raise ServiceError("solve request data is missing the 'problem' field") from None
        solvers = data.get("solvers")
        return cls(
            problem=problem,
            solver=data.get("solver", PORTFOLIO_SOLVER),
            time_budget_ms=float(data.get("time_budget_ms", 1000.0)),
            seed=data.get("seed"),
            job_id=str(data.get("job_id", "")),
            solvers=tuple(solvers) if solvers is not None else None,
            metadata=dict(data.get("metadata", {})),
        )


@dataclass
class SolveResult:
    """The flat outcome of one solve request.

    Attributes
    ----------
    job_id / solver / time_budget_ms / seed / metadata:
        Echoed from the request.
    winner:
        Name of the solver that produced the best solution (for a plain
        request this equals ``solver``).
    best_cost:
        Objective value of the best solution (``inf`` when none found).
    selected_plans:
        Global plan indices of the best solution.
    is_valid / proved_optimal:
        Validity/optimality flags of the best solution.
    trajectory:
        Monotone best-so-far ``(elapsed_ms, cost)`` points of the winner
        (for portfolio requests: the merged trajectory).
    total_time_ms:
        Wall-clock consumed producing the result (0 on cache hits).
    from_cache / cache_key:
        Cache provenance: whether the result was served from the cache
        and under which key it is stored.
    error:
        Error message when the request failed; all solution fields are
        empty in that case.
    """

    job_id: str = ""
    solver: str = PORTFOLIO_SOLVER
    winner: str = ""
    best_cost: float = float("inf")
    selected_plans: List[int] = field(default_factory=list)
    is_valid: bool = False
    proved_optimal: bool = False
    trajectory: List[Tuple[float, float]] = field(default_factory=list)
    total_time_ms: float = 0.0
    time_budget_ms: float = 0.0
    seed: Optional[int] = None
    from_cache: bool = False
    cache_key: str = ""
    error: Optional[str] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the request produced a solution."""
        return self.error is None and self.winner != ""

    @classmethod
    def from_trajectory(
        cls,
        request: SolveRequest,
        trajectory: SolverTrajectory,
        winner: str | None = None,
        total_time_ms: float | None = None,
    ) -> "SolveResult":
        """Build a result from a request and the winning trajectory."""
        solution = trajectory.best_solution
        return cls(
            job_id=request.job_id,
            solver=request.solver,
            winner=winner if winner is not None else trajectory.solver_name,
            best_cost=trajectory.best_cost,
            selected_plans=sorted(solution.selected_plans) if solution else [],
            is_valid=bool(solution.is_valid) if solution else False,
            proved_optimal=trajectory.proved_optimal,
            trajectory=[(float(t), float(c)) for t, c in trajectory.points],
            total_time_ms=(
                total_time_ms if total_time_ms is not None else trajectory.total_time_ms
            ),
            time_budget_ms=request.time_budget_ms,
            seed=request.seed,
            cache_key=request.cache_key(),
            metadata=dict(request.metadata),
        )

    @classmethod
    def from_error(cls, request: SolveRequest, error: str) -> "SolveResult":
        """Build a failure result echoing the request's identity."""
        return cls(
            job_id=request.job_id,
            solver=request.solver,
            time_budget_ms=request.time_budget_ms,
            seed=request.seed,
            cache_key=request.cache_key(),
            error=error,
            metadata=dict(request.metadata),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (cache values, CLI JSONL lines)."""
        return {
            "job_id": self.job_id,
            "solver": self.solver,
            "winner": self.winner,
            # Strict JSON has no Infinity literal; "no solution" travels
            # as null so JSONL consumers can parse every line.
            "best_cost": self.best_cost if math.isfinite(self.best_cost) else None,
            "selected_plans": list(self.selected_plans),
            "is_valid": self.is_valid,
            "proved_optimal": self.proved_optimal,
            "trajectory": [[float(t), float(c)] for t, c in self.trajectory],
            "total_time_ms": self.total_time_ms,
            "time_budget_ms": self.time_budget_ms,
            "seed": self.seed,
            "from_cache": self.from_cache,
            "cache_key": self.cache_key,
            "error": self.error,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SolveResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            job_id=str(data.get("job_id", "")),
            solver=data.get("solver", PORTFOLIO_SOLVER),
            winner=data.get("winner", ""),
            best_cost=(
                float(data["best_cost"])
                if data.get("best_cost") is not None
                else float("inf")
            ),
            selected_plans=[int(p) for p in data.get("selected_plans", [])],
            is_valid=bool(data.get("is_valid", False)),
            proved_optimal=bool(data.get("proved_optimal", False)),
            trajectory=[(float(t), float(c)) for t, c in data.get("trajectory", [])],
            total_time_ms=float(data.get("total_time_ms", 0.0)),
            time_budget_ms=float(data.get("time_budget_ms", 0.0)),
            seed=data.get("seed"),
            from_cache=bool(data.get("from_cache", False)),
            cache_key=data.get("cache_key", ""),
            error=data.get("error"),
            metadata=dict(data.get("metadata", {})),
        )


def echo_result_for_duplicate(result: SolveResult, request: SolveRequest) -> SolveResult:
    """Echo a representative's result to a deduplicated twin request.

    Used by the server's in-flight coalescing and by every result-cache
    hit: the twin gets a copy of the representative's outcome carrying
    its *own* identity fields, marked ``from_cache`` (no solver ran for
    it) with zero attributed time.
    """
    if result.error is not None:
        return SolveResult.from_error(request, result.error)
    echo = SolveResult.from_dict(result.to_dict())
    echo.job_id = request.job_id
    echo.metadata = dict(request.metadata)
    echo.from_cache = True
    echo.total_time_ms = 0.0
    return echo


def request_from_spec(
    spec: Dict[str, Any],
    default_solver: str = PORTFOLIO_SOLVER,
    default_budget_ms: float = 1000.0,
    job_id: str = "",
) -> SolveRequest:
    """Build a :class:`SolveRequest` from a loose JSONL workload line.

    Three spec shapes are accepted:

    * a full request dictionary containing a ``"problem"`` sub-dictionary
      (the :meth:`SolveRequest.to_dict` format),
    * a bare problem dictionary (``"plans_per_query"`` at the top level),
    * a generator spec: ``{"queries": n, "plans": l, "seed": s}`` builds a
      paper-style instance via
      :func:`~repro.mqo.generator.generate_paper_testcase`.

    ``solver``, ``budget_ms``/``time_budget_ms``, ``seed`` and ``job_id``
    keys override the defaults in all three shapes.
    """
    if not isinstance(spec, dict):
        raise ServiceError(f"workload spec must be a JSON object, got {type(spec).__name__}")

    if "problem" in spec:
        problem = problem_from_dict(spec["problem"])
    elif "plans_per_query" in spec:
        problem = problem_from_dict(spec)
    elif "queries" in spec:
        from repro.mqo.generator import generate_paper_testcase

        problem = generate_paper_testcase(
            int(spec["queries"]),
            int(spec.get("plans", 2)),
            seed=spec.get("generator_seed", spec.get("seed")),
        )
    else:
        raise ServiceError(
            "workload spec needs a 'problem' dict, a bare problem "
            "('plans_per_query') or a generator spec ('queries'/'plans')"
        )

    budget = spec.get("time_budget_ms", spec.get("budget_ms", default_budget_ms))
    solvers = spec.get("solvers")
    return SolveRequest(
        problem=problem,
        solver=spec.get("solver", default_solver),
        time_budget_ms=float(budget),
        seed=spec.get("seed"),
        job_id=str(spec.get("job_id", job_id)),
        solvers=tuple(solvers) if solvers is not None else None,
        metadata=dict(spec.get("metadata", {})),
    )
