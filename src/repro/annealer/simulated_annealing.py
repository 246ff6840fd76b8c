"""Vectorised simulated-annealing sampler over QUBO models.

This sampler is the classical stand-in for the quantum annealing
dynamics of the D-Wave hardware.  It runs many independent reads in
parallel and updates the variables colour class by colour class (a
proper colouring of the interaction graph guarantees that simultaneously
updated variables do not interact, so the update is equivalent to
sequential single-flip Metropolis within the class).

The sweep itself is the one annealing kernel of this package,
:class:`~repro.annealer.fusion.FusionWindow`: a solo sample is one group
with one block, and :meth:`SimulatedAnnealingSampler.sample_block_states`
anneals a batch of QUBOs as one group with many blocks, each block on
its own temperature ladder.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.annealer.compile import CompileCache, CompiledQUBO, default_compile_cache
from repro.annealer.fusion import FusionGroup, FusionWindow
from repro.annealer.schedule import AnnealingSchedule, check_schedule_length
from repro.exceptions import DeviceError
from repro.qubo.model import QUBOModel
from repro.utils.rng import SeedLike

__all__ = ["SimulatedAnnealingSampler"]

Variable = Hashable


class SimulatedAnnealingSampler:
    """Single-flip Metropolis annealer running many reads in parallel.

    Parameters
    ----------
    num_sweeps:
        Sweeps (full variable passes) per read.
    schedule:
        Optional explicit :class:`AnnealingSchedule` of ``num_sweeps``
        betas; when omitted a geometric schedule scaled to each
        problem's weights is used.
    compile_cache:
        Structure cache consulted when compiling QUBOs; defaults to the
        process-wide cache.  Pass ``CompileCache(maxsize=0)`` to disable.
    """

    def __init__(
        self,
        num_sweeps: int = 100,
        schedule: AnnealingSchedule | None = None,
        compile_cache: CompileCache | None = None,
    ) -> None:
        if num_sweeps <= 0:
            raise DeviceError(f"num_sweeps must be positive, got {num_sweeps}")
        check_schedule_length(schedule, num_sweeps)
        self.num_sweeps = num_sweeps
        self.schedule = schedule
        self.compile_cache = compile_cache if compile_cache is not None else default_compile_cache()

    def sample(
        self,
        qubo: QUBOModel,
        num_reads: int = 1,
        seed: SeedLike = None,
        initial_states: np.ndarray | None = None,
    ) -> Tuple[List[Dict[Variable, int]], List[float]]:
        """Draw ``num_reads`` annealed samples from ``qubo``.

        Returns
        -------
        (assignments, energies)
            One assignment dictionary and its energy per read, in read order.
        """
        states, compiled = self.sample_states(
            qubo, num_reads=num_reads, seed=seed, initial_states=initial_states
        )
        energies = compiled.energies(states)
        variables = compiled.variables
        assignments = [{var: int(states[r, i]) for i, var in enumerate(variables)} for r in range(num_reads)]
        return assignments, [float(e) for e in energies]

    def sample_states(
        self,
        qubo: QUBOModel,
        num_reads: int = 1,
        seed: SeedLike = None,
        initial_states: np.ndarray | None = None,
    ) -> Tuple[np.ndarray, CompiledQUBO]:
        """Anneal and return the raw ``(num_reads, n)`` state matrix.

        The array form skips the per-read dictionary construction of
        :meth:`sample`; batch consumers (vectorised chain read-out, the
        benchmarks) use it directly together with the compiled model.
        ``initial_states`` replaces the random start states.
        """
        block_states, compiled = self._anneal([qubo], num_reads, seed, initial_states)
        return block_states[0], compiled[0]

    def sample_block_states(
        self,
        qubos: Sequence[QUBOModel],
        num_reads: int = 1,
        seed: SeedLike = None,
    ) -> Tuple[List[np.ndarray], List[CompiledQUBO]]:
        """Anneal a batch of QUBOs as one block-diagonal problem.

        Returns ``(block_states, compiled)`` where ``block_states[b]`` is
        the ``(num_reads, n_b)`` 0/1 matrix of block ``b`` and
        ``compiled[b]`` its compiled model.  All blocks share the read
        count and the stream of ``seed``; each keeps the temperature
        ladder it would get alone.  The device simulator anneals a
        request's gauge batches through this call.
        """
        return self._anneal(qubos, num_reads, seed, None)

    def _anneal(
        self,
        qubos: Sequence[QUBOModel],
        num_reads: int,
        seed: SeedLike,
        initial_states: np.ndarray | None,
    ) -> Tuple[List[np.ndarray], List[CompiledQUBO]]:
        """Anneal ``qubos`` as one group of the kernel."""
        group = FusionGroup(
            qubos=list(qubos),
            num_reads=num_reads,
            rng=seed,
            num_sweeps=self.num_sweeps,
            schedule=self.schedule,
            initial_states=initial_states,
        )
        return FusionWindow(self.compile_cache).sample([group])[0]
