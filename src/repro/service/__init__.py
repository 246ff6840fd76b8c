"""repro.service — concurrent MQO solving above the core pipeline.

The service layer turns the single-instance reproduction into a servable
system:

* :mod:`repro.service.registry` — solvers register under stable names
  with capability metadata (anytime? exact? maximum problem size?),
* :mod:`repro.service.portfolio` — race several registered solvers on
  one instance under a shared wall-clock budget,
* :mod:`repro.service.batch` — run one request in this process, and
  derive per-job seeds for deterministic replay,
* :mod:`repro.service.cache` — LRU result cache keyed by problem
  identity and solving configuration, with optional on-disk JSON
  persistence,
* :mod:`repro.service.jobs` — the request/response model shared by the
  CLI, the solver server and the experiment harness,
* :mod:`repro.service.frontend` — :class:`ServiceFrontend`, the facade
  tying registry, portfolio and cache together.

Many instances run through the solver server (:mod:`repro.server`);
``repro-mqo batch`` hosts a private one for the length of a workload.

Quick start::

    from repro import ServiceFrontend
    from repro.mqo.generator import generate_paper_testcase

    frontend = ServiceFrontend()
    problem = generate_paper_testcase(8, 2, seed=0)
    result = frontend.solve(problem, time_budget_ms=250.0, seed=0)
    print(result.winner, result.best_cost)
"""

from repro.service.batch import derive_job_seed, execute_request
from repro.service.cache import CacheStats, ResultCache
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import (
    PORTFOLIO_SOLVER,
    SolveRequest,
    SolveResult,
    request_from_spec,
)
from repro.service.portfolio import PortfolioResult, PortfolioScheduler
from repro.service.qa_adapter import QuantumAnnealingSolver
from repro.service.registry import (
    SolverCapabilities,
    SolverRegistry,
    SolverSpec,
    default_registry,
)

__all__ = [
    "SolverCapabilities",
    "SolverRegistry",
    "SolverSpec",
    "default_registry",
    "QuantumAnnealingSolver",
    "PortfolioScheduler",
    "PortfolioResult",
    "ResultCache",
    "CacheStats",
    "SolveRequest",
    "SolveResult",
    "PORTFOLIO_SOLVER",
    "request_from_spec",
    "execute_request",
    "derive_job_seed",
    "ServiceFrontend",
]
