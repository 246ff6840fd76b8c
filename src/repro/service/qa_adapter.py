"""Adapter exposing the quantum-annealing pipeline as an anytime solver.

The service registry and the portfolio scheduler speak the
:class:`~repro.baselines.anytime.AnytimeSolver` interface, so the QA
pipeline needs a thin adapter that

* translates a *device-time* budget into a number of annealing reads
  using the device's per-read duration (budget / time-per-read,
  clamped: 40 ms at 376 us per read is 106 reads),
* runs :class:`~repro.core.pipeline.QuantumMQO` end to end, and
* reports the anytime trajectory on the *device time* axis, exactly as
  the paper's Figures 4 and 5 account for the annealer.

Repeated solves of one instance — portfolio racing, anytime restarts,
replayed batches — dominate service traffic, so the adapter keeps a
process-wide LRU of :class:`~repro.core.pipeline.PreparedProblem`
compilations keyed by
:func:`~repro.mqo.serialization.exact_problem_token`: the logical
mapping, embedding search and physical mapping run once per distinct
instance and every later solve goes straight to annealing.  A prepared
embedding is tied to concrete plan indices, so relabel-equivalent
instances (equal canonical hash, different token) get their own slots.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.annealer.compile import CompileCache
from repro.baselines.anytime import AnytimeSolver, SolverTrajectory
from repro.chimera.hardware import DWAVE_2X, DWaveSpec
from repro.core.pipeline import PreparedProblem, QuantumMQO, QuantumMQOResult
from repro.mqo.problem import MQOProblem
from repro.mqo.serialization import exact_problem_token
from repro.obs.metrics import get_registry
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["QuantumAnnealingSolver", "StagedSolve"]

#: Hit/miss counters of the process-wide prepared-pipeline cache.
_PREPARED_HITS = get_registry().counter(
    "repro_prepared_cache_hits_total", "Prepared-pipeline cache hits."
)
_PREPARED_MISSES = get_registry().counter(
    "repro_prepared_cache_misses_total", "Prepared-pipeline cache misses (compilations)."
)


class StagedSolve(NamedTuple):
    """A request staged up to its anneal by :meth:`QuantumAnnealingSolver.stage`.

    ``rng`` is the request stream, positioned after the pipeline's
    construction; programming and annealing continue it.
    """

    pipeline: QuantumMQO
    prepared: PreparedProblem
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
    <repro.core.pipeline.QuantumMQO.decode>` and :meth:`trajectory`.
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
        self.last_result: Optional[QuantumMQOResult] = None

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
    ) -> PreparedProblem:
        """Compile ``problem`` once, caching the result process-wide.

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
        prepared = self.prepared_cache.get(key)
        if prepared is not None:
            _PREPARED_HITS.inc()
            return prepared
        _PREPARED_MISSES.inc()
        embedding_seed = self._embedding_seed(problem)
        if pipeline is None:
            compile_pipeline = self._build_pipeline(seed=embedding_seed)
        else:
            compile_pipeline = QuantumMQO(
                device=pipeline.device, embedder=self.embedder, seed=embedding_seed
            )
        prepared = compile_pipeline.prepare(problem)
        self.prepared_cache.put(key, prepared)
        return prepared

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def stage(
        self, problem: MQOProblem, time_budget_ms: float, seed: SeedLike = None
    ) -> StagedSolve:
        """Everything a solve does before annealing.

        Checks the budget, opens the request stream, builds a fresh
        pipeline on it and fetches the (cached) preparation; programming
        and annealing continue the returned stream.
        """
        self._check_budget(time_budget_ms)
        rng = ensure_rng(seed)
        pipeline = self._build_pipeline(seed=rng)
        prepared = self.prepare(problem, pipeline=pipeline)
        return StagedSolve(pipeline, prepared, self.reads_for_budget(time_budget_ms), rng)

    def solve(
        self,
        problem,
        time_budget_ms: float,
        seed: SeedLike = None,
    ) -> SolverTrajectory:
        """Anneal ``problem`` within ``time_budget_ms`` of device time."""
        staged = self.stage(problem, time_budget_ms, seed)
        result = staged.pipeline.solve(
            problem, num_reads=staged.num_reads, seed=staged.rng, prepared=staged.prepared
        )
        return self.trajectory(result)

    def trajectory(self, result: QuantumMQOResult) -> SolverTrajectory:
        """Report a finished run on the device-time axis (kept as :attr:`last_result`)."""
        self.last_result = result
        return result.anytime_trajectory(self.name)
