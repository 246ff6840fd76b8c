"""Adapter exposing the quantum-annealing pipeline as an anytime solver.

The service registry and the portfolio scheduler speak the
:class:`~repro.baselines.anytime.AnytimeSolver` interface, so the QA
pipeline needs a thin adapter that

* translates a *device-time* budget into a number of annealing reads
  using the device's per-read duration (budget / time-per-read,
  clamped: 40 ms at 376 us per read is 106 reads),
* runs the exact presolve (:mod:`repro.mqo.presolve`) and anneals only
  the plans it leaves undecided, through an unchanged
  :class:`~repro.core.pipeline.QuantumMQO`, and
* lifts the answer back to the request's problem and reports the
  anytime trajectory on the *device time* axis, exactly as the paper's
  Figures 4 and 5 account for the annealer.

The reduced problem is not embedded afresh: the request's problem is
embedded as the pipeline always embeds it (native pattern first) and
that embedding is restricted to the kept plans, so no new embedding
search runs and the kept plans keep their chains.  A request whose
queries the presolve decides entirely is answered without annealing.

Repeated solves of one instance — portfolio racing, anytime restarts,
replayed batches — dominate service traffic, so the adapter keeps a
process-wide LRU of :class:`PresolvedProblem` entries (the presolve and
the reduced problem's :class:`~repro.core.pipeline.PreparedProblem`)
keyed by :func:`~repro.mqo.serialization.exact_problem_token`: the
presolve, embedding search and physical mapping run once per distinct
instance and every later solve goes straight to annealing.  A prepared
embedding is tied to concrete plan indices, so relabel-equivalent
instances (equal canonical hash, different token) get their own slots.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from repro.annealer.compile import CompileCache
from repro.baselines.anytime import AnytimeSolver, SolverTrajectory
from repro.chimera.hardware import DWAVE_2X, DWaveSpec
from repro.core.logical import LogicalMapping
from repro.core.pipeline import PreparedProblem, QuantumMQO, QuantumMQOResult
from repro.embedding.base import Embedding
from repro.mqo.presolve import Presolve, presolve
from repro.mqo.problem import MQOProblem
from repro.mqo.serialization import exact_problem_token
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["PresolvedProblem", "QuantumAnnealingSolver", "StagedSolve"]

#: Hit/miss counters of the process-wide prepared-pipeline cache.
_PREPARED_HITS = get_registry().counter(
    "repro_prepared_cache_hits_total", "Prepared-pipeline cache hits."
)
_PREPARED_MISSES = get_registry().counter(
    "repro_prepared_cache_misses_total", "Prepared-pipeline cache misses (compilations)."
)


class PresolvedProblem(NamedTuple):
    """One prepared-pipeline cache entry.

    The instance's presolve and the preparation of its reduced problem,
    ``None`` when the presolve decides every query and nothing is
    annealed.
    """

    presolve: Presolve
    prepared: Optional[PreparedProblem]


class StagedSolve(NamedTuple):
    """A request staged up to its anneal by :meth:`QuantumAnnealingSolver.stage`.

    ``problem`` is the request's problem; ``prepared`` is its reduced
    problem's preparation, ``None`` when nothing is left to anneal.
    ``rng`` is the request stream, positioned after the pipeline's
    construction; programming and annealing continue it.
    """

    problem: MQOProblem
    presolve: Presolve
    pipeline: QuantumMQO
    prepared: Optional[PreparedProblem]
    num_reads: int
    rng: np.random.Generator


class QuantumAnnealingSolver(AnytimeSolver):
    """Run the (simulated) annealer under the classical solver interface.

    Parameters
    ----------
    spec:
        Device generation to simulate (defect-free topology so behaviour
        is a pure function of the seed).
    embedder:
        Embedding strategy forwarded to :class:`QuantumMQO`.
    min_reads / max_reads:
        Clamp on the read count derived from the time budget.  The cap
        bounds the *host* cost of simulating the device; the paper-scale
        1000 reads cost ~140 ms of device time but far more simulation
        time.
    num_sweeps:
        Simulated-annealing sweeps per read.

    A solve runs in stages that the fused executor
    (:mod:`repro.service.fusion`) calls one by one: :meth:`stage`, the
    device's ``program_anneal``, the anneal, :meth:`QuantumMQO.decode
    <repro.core.pipeline.QuantumMQO.decode>` of the reduced problem and
    :meth:`trajectory`, which lifts the answer back.  A staged solve
    with nothing to anneal goes straight to :meth:`trajectory`.
    """

    name = "QA"

    #: Process-wide cache of prepared pipelines, keyed by
    #: ``(exact_problem_token, device, embedder)``; shared by every adapter
    #: instance so portfolio members and batch jobs warm each other.
    prepared_cache = CompileCache(maxsize=32)

    def __init__(
        self,
        spec: DWaveSpec = DWAVE_2X,
        embedder: str = "auto",
        min_reads: int = 10,
        max_reads: int = 200,
        num_sweeps: int = 100,
    ) -> None:
        if not 0 < min_reads <= max_reads:
            raise ValueError(f"need 0 < min_reads <= max_reads, got {min_reads}/{max_reads}")
        self.spec = spec
        self.embedder = embedder
        self.min_reads = min_reads
        self.max_reads = max_reads
        self.num_sweeps = num_sweeps

    @classmethod
    def default_max_plans(cls) -> int:
        """Capacity bound advertised in the registry (one qubit per plan
        is the best case, so the qubit count is a safe upper bound)."""
        return DWAVE_2X.total_qubits

    def reads_for_budget(self, time_budget_ms: float) -> int:
        """Translate a device-time budget into a clamped read count.

        The budget buys ``budget / time_per_read`` reads of device time
        (40 ms -> 106 reads on the D-Wave 2X), clamped to
        ``[min_reads, max_reads]``; host simulation time is not counted.
        """
        raw = int(time_budget_ms / self.spec.time_per_read_ms)
        return max(self.min_reads, min(self.max_reads, raw))

    # ------------------------------------------------------------------ #
    # Pipeline compilation cache
    # ------------------------------------------------------------------ #
    def _embedding_seed(self, problem: MQOProblem) -> int:
        """Deterministic seed for the embedding search of ``problem``.

        Deriving it from the canonical hash (not from the solve seed)
        makes the prepared pipeline a pure function of the instance, so
        cached and cold solves of the same (problem, seed) pair are
        indistinguishable.
        """
        return int(problem.canonical_hash()[:15], 16)

    def _build_pipeline(self, seed: SeedLike) -> QuantumMQO:
        """A fresh pipeline over an ideal (defect-free, noise-free) device."""
        from repro.annealer.device import DWaveSamplerSimulator
        from repro.annealer.noise import NoiseModel

        rng = ensure_rng(seed)
        device = DWaveSamplerSimulator(
            spec=self.spec,
            topology=self.spec.build_topology(perfect=True),
            noise=NoiseModel(0.0, 0.0),
            num_sweeps=self.num_sweeps,
            seed=rng,
        )
        return QuantumMQO(device=device, embedder=self.embedder, seed=rng)

    def prepare(
        self, problem: MQOProblem, pipeline: QuantumMQO | None = None
    ) -> PresolvedProblem:
        """Presolve and compile ``problem`` once, caching the result process-wide.

        The portfolio scheduler calls this before racing so the
        compilation happens outside the timed region; subsequent
        :meth:`solve` calls for the same instance hit the cache.  When
        ``pipeline`` is given, a cache miss reuses its device (saving a
        topology build) — the embedding search still runs under the
        instance-derived seed so the prepared result never depends on
        the solve seed or cache state.
        """
        # Keyed by the exact token, not the canonical hash: a prepared
        # embedding is tied to concrete plan indices, so a merely
        # isomorphic instance must not be served (nor evict this one).
        key = (exact_problem_token(problem), self.spec.name, str(self.embedder))
        entry = self.prepared_cache.get(key)
        if entry is not None:
            _PREPARED_HITS.inc()
            return entry
        _PREPARED_MISSES.inc()
        presolved = presolve(problem)
        prepared = None
        if presolved.reduced is not None:
            embedding_seed = self._embedding_seed(problem)
            if pipeline is None:
                compile_pipeline = self._build_pipeline(seed=embedding_seed)
            else:
                compile_pipeline = QuantumMQO(
                    device=pipeline.device, embedder=self.embedder, seed=embedding_seed
                )
            embedding = self._restricted_embedding(compile_pipeline, problem, presolved)
            prepared = QuantumMQO(
                device=compile_pipeline.device, embedder=embedding, seed=embedding_seed
            ).prepare(presolved.reduced)
        entry = PresolvedProblem(presolved, prepared)
        self.prepared_cache.put(key, entry)
        return entry

    @staticmethod
    def _restricted_embedding(
        pipeline: QuantumMQO, problem: MQOProblem, presolved: Presolve
    ) -> Embedding:
        """Embed ``problem`` as ``pipeline`` would, restricted to the kept plans.

        Reduced plan ``j`` gets the chain of original plan ``kept[j]``.
        Every coupling of the reduced problem joins two kept plans that
        the original problem couples too, so the restriction is a valid
        embedding of the reduced problem.
        """
        with get_tracer().span("mqo.embed", {"embedder": str(pipeline.embedder)}):
            mapping = LogicalMapping(problem, pipeline.logical_config)
            embedding = pipeline.build_embedding(problem, mapping)
        if presolved.reduced is problem:
            return embedding
        return Embedding(
            {plan: embedding.chain(kept) for plan, kept in enumerate(presolved.kept.tolist())}
        )

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def stage(
        self, problem: MQOProblem, time_budget_ms: float, seed: SeedLike = None
    ) -> StagedSolve:
        """Everything a solve does before annealing.

        Checks the budget, opens the request stream, builds a fresh
        pipeline on it and fetches the (cached) presolve and
        preparation; programming and annealing continue the returned
        stream.
        """
        self._check_budget(time_budget_ms)
        rng = ensure_rng(seed)
        pipeline = self._build_pipeline(seed=rng)
        presolved, prepared = self.prepare(problem, pipeline=pipeline)
        return StagedSolve(
            problem, presolved, pipeline, prepared, self.reads_for_budget(time_budget_ms), rng
        )

    def solve(
        self,
        problem,
        time_budget_ms: float,
        seed: SeedLike = None,
    ) -> SolverTrajectory:
        """Anneal what the presolve of ``problem`` leaves within ``time_budget_ms`` of device time."""
        staged = self.stage(problem, time_budget_ms, seed)
        if staged.prepared is None:
            return self.trajectory(staged)
        result = staged.pipeline.solve(
            staged.prepared.problem,
            num_reads=staged.num_reads,
            seed=staged.rng,
            prepared=staged.prepared,
        )
        return self.trajectory(staged, result)

    def trajectory(
        self, staged: StagedSolve, result: QuantumMQOResult | None = None
    ) -> SolverTrajectory:
        """Lift the reduced problem's run to the request's problem.

        The answer is the kept plans the run selected plus the decided
        plans, costed exactly by the request's problem.  The trajectory
        stays on the device-time axis with every cost raised by the
        presolve offset, and its last point is the answer's cost.
        Without a run (nothing left to anneal) the answer is the decided
        selection, optimal at time zero.
        """
        if result is None:
            solution = staged.problem.solution_from_selection(staged.presolve.decided.tolist())
            return SolverTrajectory(
                self.name, [(0.0, solution.cost)], solution, proved_optimal=True, total_time_ms=0.0
            )
        reduced = result.anytime_trajectory(self.name)
        solution = staged.problem.solution_from_selection(
            staged.presolve.lift(reduced.best_solution.selected_plans)
        )
        points = []
        for elapsed, cost in reduced.points[:-1]:
            lifted = cost + staged.presolve.offset
            # Adding the offset may round two costs together: stay strict.
            if solution.cost < lifted < (points[-1][1] if points else math.inf):
                points.append((elapsed, lifted))
        points += [(elapsed, solution.cost) for elapsed, _ in reduced.points[-1:]]
        return SolverTrajectory(self.name, points, solution, total_time_ms=reduced.total_time_ms)
