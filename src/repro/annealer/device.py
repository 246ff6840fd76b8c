"""The D-Wave device simulator.

:class:`DWaveSamplerSimulator` mimics the *interface and accounting* of
the D-Wave 2X annealer used in the paper:

* it only accepts QUBO problems whose variables are functional qubits of
  its Chimera topology and whose quadratic terms lie on physical couplers
  (anything else raises :class:`DeviceError`),
* reads are partitioned into gauge batches; each batch programs the
  (noisy) problem once and performs a block of annealing reads,
* one request's data stays in numpy arrays from gauge programming to
  the read-out: no per-term or per-read dictionaries are built,
* reported *device time* follows the paper's constants — 129 us anneal
  plus 247 us read-out per read (376 us per sample) — independently of
  how long the software simulation takes on the host.

The annealing dynamics themselves are produced by the classical
:class:`SimulatedAnnealingSampler`; see DESIGN.md for why this
substitution preserves the experiments' structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.annealer.fusion import FusionGroup, FusionWindow
from repro.annealer.noise import NoiseModel
from repro.annealer.sampleset import SampleSet
from repro.annealer.schedule import AnnealingSchedule
from repro.annealer.simulated_annealing import SimulatedAnnealingSampler
from repro.chimera.hardware import DWAVE_2X, DWaveSpec
from repro.chimera.topology import ChimeraGraph
from repro.exceptions import DeviceCapacityError, DeviceError
from repro.obs.metrics import get_registry
from repro.qubo.model import QUBOModel
from repro.utils.rng import SeedLike, ensure_rng

#: Annealing volume across all simulated devices in this process.
_READS_TOTAL = get_registry().counter(
    "repro_anneal_reads_total", "Annealing reads performed."
)
_GAUGES_TOTAL = get_registry().counter(
    "repro_anneal_gauge_batches_total", "Gauge batches programmed."
)

__all__ = ["DWaveSamplerSimulator", "ProgrammedAnneal"]


def _running_sum(*parts: np.ndarray) -> float:
    """Left-to-right float sum, equal bit for bit to a Python ``+=`` loop."""
    return float(np.cumsum(np.concatenate(parts))[-1])


@dataclass
class ProgrammedAnneal:
    """A request after gauge/noise programming, before any annealing.

    Splitting :meth:`DWaveSamplerSimulator.sample_qubo` at this seam
    lets the cross-request fusion path program many jobs first, anneal
    them all in one :class:`~repro.annealer.fusion.FusionWindow`, and
    assemble each job's :class:`SampleSet` afterwards — with exactly
    the draws the solo path would have made (programming consumes the
    request stream before any sweep does, in both paths).

    Attributes
    ----------
    qubo:
        The original (noiseless) physical QUBO energies are read under.
    gauges:
        ``(num_gauges, n)`` matrix of +/-1 gauge factors, one row per
        gauge batch, columns in ``qubo.variables`` order.
    programmed_qubos:
        Per gauge batch, the programmed (gauged, noise-perturbed) QUBO
        handed to the annealer.  All share ``qubo``'s variable order and
        one edge list.
    batch_sizes:
        Reads of each gauge batch (sums to ``num_reads``).
    num_reads:
        Total reads requested.
    rng:
        The request stream, positioned after the programming draws —
        the annealing stage continues it.
    """

    qubo: QUBOModel
    gauges: np.ndarray
    programmed_qubos: List[QUBOModel]
    batch_sizes: List[int]
    num_reads: int
    rng: np.random.Generator


class DWaveSamplerSimulator:
    """Software model of a Chimera-structured annealing device.

    Parameters
    ----------
    spec:
        Device generation (topology dimensions, timing constants,
        default read/gauge counts).  Defaults to the D-Wave 2X.
    topology:
        Explicit hardware graph.  When omitted, one is built from the
        spec (including randomly placed broken qubits).
    noise:
        Analog noise model; pass ``NoiseModel(0.0, 0.0)`` for an ideal
        device.
    num_sweeps:
        Sweeps per annealing read of the internal simulated annealer.
    schedule:
        Optional explicit temperature ladder of exactly ``num_sweeps``
        betas (a contradicting length raises :class:`DeviceError`).
    seed:
        Seed controlling the device's static bias, gauge draws and
        annealing randomness.

    All gauge batches of a request anneal as one group of the annealing
    kernel (one block per batch, see :meth:`fusion_group`), which
    amortises the numpy dispatch cost across batches.
    """

    def __init__(
        self,
        spec: DWaveSpec = DWAVE_2X,
        topology: ChimeraGraph | None = None,
        noise: NoiseModel | None = None,
        num_sweeps: int = 200,
        schedule: AnnealingSchedule | None = None,
        seed: SeedLike = None,
        programming_time_ms: float = 0.0,
    ) -> None:
        if programming_time_ms < 0:
            raise DeviceError("programming_time_ms must be non-negative")
        self.spec = spec
        self._rng = ensure_rng(seed)
        self.topology = topology if topology is not None else spec.build_topology(seed=self._rng)
        self.noise = noise if noise is not None else NoiseModel()
        #: The device's annealer: every gauge batch anneals through it.
        self.batched_sampler = SimulatedAnnealingSampler(num_sweeps=num_sweeps, schedule=schedule)
        self.programming_time_ms = programming_time_ms
        bias = self.noise.static_bias(self.topology.qubits, seed=self._rng)
        #: Static bias per qubit index (broken qubits keep 0.0).
        self._static_bias = np.zeros(self.topology.num_qubits_total)
        self._static_bias[list(bias)] = list(bias.values())

    # ------------------------------------------------------------------ #
    # Device properties
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        """Number of functional qubits of this device instance."""
        return self.topology.num_qubits

    @property
    def time_per_read_ms(self) -> float:
        """Anneal plus read-out time of a single read in milliseconds."""
        return self.spec.time_per_read_ms

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DWaveSamplerSimulator {self.spec.name}: {self.num_qubits} functional qubits, "
            f"{self.time_per_read_ms * 1000:.0f} us/read>"
        )

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate_problem(self, qubo: QUBOModel) -> None:
        """Check that ``qubo`` can be programmed onto this device.

        Works on the model's arrays against the topology's tables, so a
        lazily built model never materialises its dictionaries.  Labels
        may be Python or numpy integers.

        Raises
        ------
        DeviceCapacityError
            If a variable is not a functional qubit of the topology.
        DeviceError
            If a quadratic term connects qubits without a physical coupler.
        """
        topology = self.topology
        variables, _, edges, _ = qubo.to_arrays()
        try:
            labels = np.asarray(variables)
        except ValueError:  # ragged labels, e.g. tuples next to integers
            labels = np.asarray(())
        integral = labels.ndim == 1 and labels.dtype.kind in "biu"
        qubits = labels.astype(np.int64) if integral else np.full(len(variables), -1)
        functional = (qubits >= 0) & (qubits < topology.num_qubits_total)
        functional[functional] = topology.functional_mask[qubits[functional]]
        if not functional.all():
            for var in variables:
                if not isinstance(var, (int, np.integer)) or not topology.has_qubit(var):
                    raise DeviceCapacityError(
                        f"variable {var!r} is not a functional qubit of the device topology"
                    )
        u, v = qubits[edges[:, 0]], qubits[edges[:, 1]]
        coupled = (topology.neighbor_table[u] == v[:, None]).any(axis=1)
        if not coupled.all():
            slot = int(np.flatnonzero(~coupled)[0])
            low, high = sorted((variables[edges[slot, 0]], variables[edges[slot, 1]]))
            raise DeviceError(
                f"quadratic term between qubits {low} and {high} does not correspond to a "
                f"physical coupler"
            )

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_qubo(
        self,
        qubo: QUBOModel,
        num_reads: int | None = None,
        num_gauges: int | None = None,
        seed: SeedLike = None,
    ) -> SampleSet:
        """Run annealing reads for a physical QUBO.

        Composed of the three stages the fusion path splits apart:
        :meth:`program_anneal` (validation, gauge + noise draws),
        :meth:`anneal_programmed` (the annealing sweeps) and
        :meth:`assemble_samples` (gauge inversion, energies, timing).

        Parameters
        ----------
        qubo:
            The physical QUBO (variables are qubit indices).
        num_reads / num_gauges:
            Total reads and number of gauge batches; default to the
            paper's 1000 reads in 10 gauges.
        seed:
            Optional per-request seed (falls back to the device stream).
        """
        programmed = self.program_anneal(
            qubo, num_reads=num_reads, num_gauges=num_gauges, seed=seed
        )
        return self.assemble_samples(programmed, self.anneal_programmed(programmed))

    def program_anneal(
        self,
        qubo: QUBOModel,
        num_reads: int | None = None,
        num_gauges: int | None = None,
        seed: SeedLike = None,
    ) -> ProgrammedAnneal:
        """Validate a request and program its gauge batches.

        The QUBO is converted to Ising form once (``x = (s + 1) / 2``).
        Each gauge batch then draws a uniform +/-1 factor ``g`` per
        variable (a spin-reversal transform: ``h'_i = g_i h_i``,
        ``J'_ij = g_i g_j J_ij``), adds the device's static bias and fresh
        programming noise (:meth:`NoiseModel.perturb`) and converts back
        to the QUBO the annealer runs.  Every step works on whole arrays,
        yet sums in the order the term-by-term conversion did (each
        edge's two endpoints in turn, smaller qubit first), so the
        programmed weights are the same floats.

        All gauge and noise draws happen here, in batch order, leaving
        the returned :attr:`ProgrammedAnneal.rng` positioned exactly
        where the annealing stage expects it — whether the sweeps then
        run solo (:meth:`anneal_programmed`) or fused across requests
        (:class:`~repro.annealer.fusion.FusionWindow`).
        """
        num_reads = self.spec.default_num_reads if num_reads is None else num_reads
        num_gauges = self.spec.default_num_gauges if num_gauges is None else num_gauges
        if num_reads <= 0:
            raise DeviceError(f"num_reads must be positive, got {num_reads}")
        if num_gauges <= 0:
            raise DeviceError(f"num_gauges must be positive, got {num_gauges}")
        num_gauges = min(num_gauges, num_reads)
        self.validate_problem(qubo)

        rng = ensure_rng(seed) if seed is not None else self._rng
        variables, linear, edges, weights = qubo.to_arrays()
        qubits = np.asarray(variables, dtype=np.int64)
        flipped = qubits[edges[:, 0]] > qubits[edges[:, 1]]
        edges[flipped] = edges[flipped, ::-1]
        endpoints = edges.ravel()  # u0, v0, u1, v1, ...: per-edge accumulation order
        u, v = edges[:, 0], edges[:, 1]

        # Ising form: h = w_ii / 2 + sum w_ij / 4 over incident edges, J = w_ij / 4.
        half, quarter = linear / 2.0, weights / 4.0
        field = 0.0 + half
        np.add.at(field, endpoints, np.repeat(quarter, 2))
        coupling = 0.0 + quarter
        ising_offset = _running_sum([qubo.offset], half, quarter)
        scale = max(np.abs(field).max(initial=0.0), np.abs(coupling).max(initial=0.0))
        static_bias = self._static_bias[qubits]

        # The batches share the variables and the edges: check them once.
        structure = QUBOModel.from_arrays(variables, linear, edges, weights)
        batch_sizes = self._batch_sizes(num_reads, num_gauges)
        gauges = np.empty((num_gauges, len(variables)), dtype=np.int8)
        programmed_qubos: List[QUBOModel] = []
        for gauge in gauges:
            gauge[:] = rng.integers(0, 2, size=len(variables)) * 2 - 1
            h, j = self.noise.perturb(
                gauge * field, gauge[u] * gauge[v] * coupling, static_bias, scale, rng
            )
            # Back to QUBO form: w_ii = 2 h_i - 2 sum J_ij, w_ij = 4 J_ij.
            programmed_linear = 0.0 + 2.0 * h
            np.add.at(programmed_linear, endpoints, np.repeat(-2.0 * j, 2))
            programmed_qubos.append(
                structure.reweighted(
                    programmed_linear, 0.0 + 4.0 * j, offset=_running_sum([ising_offset], -h, j)
                )
            )
        return ProgrammedAnneal(
            qubo=qubo,
            gauges=gauges,
            programmed_qubos=programmed_qubos,
            batch_sizes=batch_sizes,
            num_reads=num_reads,
            rng=rng,
        )

    def fusion_group(self, programmed: ProgrammedAnneal) -> FusionGroup:
        """A programmed request as one group of the annealing kernel.

        One block per gauge batch, all on the request stream.  Fused
        blocks share one read count, so the group anneals the largest
        batch size and :meth:`batch_assignments` keeps each batch's first
        ``batch_size`` reads.  The solo anneal and the server's fusion
        window both build a request's group here.
        """
        return FusionGroup(
            qubos=programmed.programmed_qubos,
            num_reads=max(programmed.batch_sizes),
            rng=programmed.rng,
            num_sweeps=self.batched_sampler.num_sweeps,
            schedule=self.batched_sampler.schedule,
        )

    def anneal_programmed(self, programmed: ProgrammedAnneal) -> np.ndarray:
        """Anneal a programmed request alone into its read-out state matrix."""
        ((block_states, _compiled),) = FusionWindow(self.batched_sampler.compile_cache).sample(
            [self.fusion_group(programmed)]
        )
        return self.batch_assignments(programmed, block_states)

    @staticmethod
    def batch_assignments(
        programmed: ProgrammedAnneal, block_states: Sequence[np.ndarray]
    ) -> np.ndarray:
        """The request's reads, in the original frame, from annealed blocks.

        ``block_states[k]`` holds gauge batch ``k``'s reads in the gauged
        frame; its first ``batch_sizes[k]`` rows are kept and undone on
        the gauge's -1 columns (``x = 1 - x'``).  Returns the
        ``(num_reads, n)`` int8 matrix in gauge order.  Shared by the solo
        path and the cross-request fusion path so both read out fused
        states identically.
        """
        return np.concatenate(
            [
                np.where(gauge < 0, 1.0 - states[:batch_size], states[:batch_size])
                for gauge, states, batch_size in zip(
                    programmed.gauges, block_states, programmed.batch_sizes
                )
            ]
        ).astype(np.int8)

    def assemble_samples(self, programmed: ProgrammedAnneal, states: np.ndarray) -> SampleSet:
        """Account the original-frame reads into a :class:`SampleSet`.

        Energies are evaluated in one pass under the original
        (noiseless) QUBO; device time follows the spec's per-read
        constant regardless of how long the simulation took on the host.
        """
        qubo = programmed.qubo
        variables = qubo.variables
        num_gauges = len(programmed.batch_sizes)
        _READS_TOTAL.inc(programmed.num_reads)
        _GAUGES_TOTAL.inc(num_gauges)
        return SampleSet(
            states=states,
            variables=variables,
            read_energies=qubo.energies(states, variables),
            gauge_indices=np.repeat(np.arange(num_gauges), programmed.batch_sizes),
            per_read_time_ms=self.time_per_read_ms,
            programming_time_ms=self.programming_time_ms * num_gauges,
            info={
                "device": self.spec.name,
                "num_reads": programmed.num_reads,
                "num_gauges": num_gauges,
                "num_problem_qubits": len(variables),
            },
        )

    @staticmethod
    def _batch_sizes(num_reads: int, num_gauges: int) -> List[int]:
        """Split ``num_reads`` into ``num_gauges`` near-equal batches."""
        base, remainder = divmod(num_reads, num_gauges)
        return [base + (1 if i < remainder else 0) for i in range(num_gauges)]
