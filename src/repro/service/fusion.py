"""Fused execution of many annealing requests in one window.

:func:`execute_fused_requests` is the service-layer half of
cross-request anneal fusion.  It runs each request through the stages
of a solo :class:`~repro.service.qa_adapter.QuantumAnnealingSolver`
solve: :meth:`~repro.service.qa_adapter.QuantumAnnealingSolver.stage`
and the device's ``program_anneal`` per request, then one
:class:`~repro.annealer.fusion.FusionWindow` over every request's
:meth:`~repro.annealer.device.DWaveSamplerSimulator.fusion_group`, then
the device's read-out, :meth:`~repro.core.pipeline.QuantumMQO.decode`
and :meth:`~repro.service.qa_adapter.QuantumAnnealingSolver.trajectory`
per request.  A solo solve anneals the same group alone, so per request
the result is **bit-identical** to a solo
:func:`~repro.service.batch.execute_request` call (same seed → same
trajectory, best cost and selected plans); only the wall-clock
``total_time_ms`` differs, because it measures the shared window.  A
request whose queries the presolve decides entirely has nothing to
anneal: it does not join the fused anneal and is answered from its
stage.

Requests whose solver is not a :class:`QuantumAnnealingSolver`
(portfolio requests, classical solvers, scripted test doubles
registered under the same name) run solo through
:func:`~repro.service.batch.execute_request`.

Failures stay per-request: a request that fails staging, programming or
decoding becomes an error :class:`~repro.service.jobs.SolveResult`
without touching its window peers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.annealer.device import ProgrammedAnneal
from repro.annealer.fusion import FusionWindow
from repro.obs.trace import get_tracer
from repro.service.batch import execute_request
from repro.service.jobs import SolveRequest, SolveResult
from repro.service.qa_adapter import QuantumAnnealingSolver, StagedSolve
from repro.service.registry import SolverRegistry, default_registry
from repro.utils.stopwatch import Stopwatch

__all__ = ["execute_fused_requests"]

#: A request admitted to the fused anneal: its index, solver and stages so far.
_Member = Tuple[int, QuantumAnnealingSolver, StagedSolve, ProgrammedAnneal]


def execute_fused_requests(
    requests: Sequence[SolveRequest],
    registry: SolverRegistry | None = None,
) -> List[SolveResult]:
    """Execute a window of requests with their anneals fused.

    Results come back in the order of ``requests``; solver names are
    resolved against ``registry`` (the process-wide default when
    omitted).
    """
    registry = registry if registry is not None else default_registry()
    results: List[Optional[SolveResult]] = [None] * len(requests)
    members: List[_Member] = []
    stopwatch = Stopwatch().start()

    for index, request in enumerate(requests):
        solver = _annealing_solver(request, registry)
        if solver is None:
            results[index] = execute_request(request, registry=registry)
            continue
        try:
            staged = solver.stage(request.problem, request.time_budget_ms, request.seed)
            if staged.prepared is None:
                results[index] = SolveResult.from_trajectory(
                    request,
                    solver.trajectory(staged),
                    winner=request.solver,
                    total_time_ms=stopwatch.elapsed_ms(),
                )
                continue
            programmed = staged.pipeline.device.program_anneal(
                staged.prepared.physical.physical_qubo,
                num_reads=staged.num_reads,
                seed=staged.rng,
            )
        except Exception as exc:  # noqa: BLE001 — mirror execute_request's capture
            results[index] = SolveResult.from_error(request, f"{type(exc).__name__}: {exc}")
            continue
        members.append((index, solver, staged, programmed))

    if members:
        groups = [
            staged.pipeline.device.fusion_group(programmed)
            for _index, _solver, staged, programmed in members
        ]
        with get_tracer().span("service.fuse", {"jobs": len(members)}) as span:
            sampled = FusionWindow().sample(groups)
            span.set_attribute("blocks", sum(len(group.qubos) for group in groups))
        for (index, solver, staged, programmed), (block_states, _compiled) in zip(
            members, sampled
        ):
            request = requests[index]
            try:
                device = staged.pipeline.device
                states = device.batch_assignments(programmed, block_states)
                result = staged.pipeline.decode(
                    staged.prepared.problem,
                    staged.prepared,
                    device.assemble_samples(programmed, states),
                )
                results[index] = SolveResult.from_trajectory(
                    request,
                    solver.trajectory(staged, result),
                    winner=request.solver,
                    total_time_ms=stopwatch.elapsed_ms(),
                )
            except Exception as exc:  # noqa: BLE001 — mirror execute_request's capture
                results[index] = SolveResult.from_error(
                    request, f"{type(exc).__name__}: {exc}"
                )

    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


def _annealing_solver(
    request: SolveRequest, registry: SolverRegistry
) -> Optional[QuantumAnnealingSolver]:
    """The request's solver when it can join the fused anneal, else ``None``.

    Unknown names and failing factories also yield ``None``, so the solo
    path reports them the way :func:`execute_request` always does.
    """
    if request.solver not in registry:
        return None
    try:
        solver = registry.create(request.solver)
    except Exception:  # noqa: BLE001 — let the solo path report it uniformly
        return None
    return solver if isinstance(solver, QuantumAnnealingSolver) else None
