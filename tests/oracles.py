"""Reference implementations (test oracles).

The device simulator programs, reads out and decodes annealing requests
on whole numpy arrays.  The per-term and per-read dictionary forms below
are the straightforward statement of the same transformations; the
equivalence tests check the array path against them, weight for weight
and read for read.  The dense sweep states the annealing kernel the
same way: a dense coupling matrix, a gather and a scatter per colour
class.  They live here, not in ``src/``, so the library keeps one
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.annealer.compile import CompiledQUBO, compile_qubo
from repro.annealer.noise import NoiseModel
from repro.annealer.schedule import AnnealingSchedule, default_schedule_for
from repro.core.logical import LogicalMapping
from repro.core.physical import PhysicalMapping
from repro.embedding.base import Embedding
from repro.embedding.unembed import ChainGather, ChainReadout, resolve_chains
from repro.exceptions import DeviceError
from repro.mqo.problem import MQOSolution
from repro.qubo.ising import IsingModel, ising_to_qubo, qubo_to_ising
from repro.qubo.model import QUBOModel
from repro.utils.rng import SeedLike, ensure_rng

Variable = Hashable


# ---------------------------------------------------------------------- #
# Gauge transforms
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class GaugeTransform:
    """A per-variable +/-1 gauge factor.

    In Ising form a gauge ``g`` maps ``h'_i = g_i h_i`` and
    ``J'_ij = g_i g_j J_ij``; a sample ``s'`` of the transformed problem
    corresponds to ``s_i = g_i s'_i`` of the original, with equal energy.
    """

    factors: Dict[Variable, int]

    def __post_init__(self) -> None:
        for var, factor in self.factors.items():
            if factor not in (-1, 1):
                raise DeviceError(f"gauge factor for {var!r} must be -1 or +1, got {factor}")

    def factor(self, var: Variable) -> int:
        """Gauge factor of one variable (identity for unknown variables)."""
        return self.factors.get(var, 1)

    def apply_to_ising(self, ising: IsingModel) -> IsingModel:
        """The gauge-transformed Ising model."""
        h = {var: self.factor(var) * value for var, value in ising.h.items()}
        j = {
            (u, v): self.factor(u) * self.factor(v) * value
            for (u, v), value in ising.j.items()
        }
        return IsingModel(h=h, j=j, offset=ising.offset)

    def apply_to_spins(self, spins: Mapping[Variable, int]) -> Dict[Variable, int]:
        """Map spins between the original and the gauged frame (involution)."""
        return {var: self.factor(var) * int(value) for var, value in spins.items()}

    def apply_to_binary(self, sample: Mapping[Variable, int]) -> Dict[Variable, int]:
        """Map a 0/1 sample between the original and the gauged frame."""
        result = {}
        for var, value in sample.items():
            if value not in (0, 1):
                raise DeviceError(f"binary value for {var!r} must be 0 or 1, got {value}")
            result[var] = value if self.factor(var) == 1 else 1 - value
        return result

    @classmethod
    def identity(cls, variables: Sequence[Variable]) -> "GaugeTransform":
        """The identity gauge over the given variables."""
        return cls(factors={var: 1 for var in variables})


def random_gauge(variables: Sequence[Variable], seed: SeedLike = None) -> GaugeTransform:
    """Draw an independent uniform +/-1 gauge factor for every variable."""
    rng = ensure_rng(seed)
    signs = rng.integers(0, 2, size=len(variables)) * 2 - 1
    return GaugeTransform(factors={var: int(sign) for var, sign in zip(variables, signs)})


# ---------------------------------------------------------------------- #
# Annealing sweep
# ---------------------------------------------------------------------- #
def dense_coupling(compiled: CompiledQUBO) -> np.ndarray:
    """Symmetric dense ``(n, n)`` coupling matrix of a compiled QUBO."""
    n = compiled.num_variables
    coupling = np.zeros((n, n))
    edges = compiled.structure.edges
    if compiled.edge_weights.size:
        np.add.at(coupling, (edges[:, 0], edges[:, 1]), compiled.edge_weights)
        np.add.at(coupling, (edges[:, 1], edges[:, 0]), compiled.edge_weights)
    return coupling


def dense_anneal(
    qubos: Sequence[QUBOModel],
    num_reads: int,
    seed: SeedLike,
    num_sweeps: int,
    schedule: AnnealingSchedule | None = None,
    initial_states: np.ndarray | None = None,
) -> List[np.ndarray]:
    """One group's anneal against the dense block-diagonal coupling matrix.

    Colour class ``k`` of every block (the compiled colouring) merges
    into one class, in block order; every block cools on its own ladder.
    Per sweep and class: gather the class's states, take the field from
    the dense rows, draw one uniform block of the class's shape, accept
    where ``u < exp(-beta * delta)`` (probability 1 where ``delta <= 0``)
    and scatter back.  Returns each block's ``(num_reads, n_b)`` states.
    """
    rng = ensure_rng(seed)
    compiled = [compile_qubo(qubo) for qubo in qubos]
    offsets = np.cumsum([0] + [block.num_variables for block in compiled])
    coupling = np.zeros((offsets[-1], offsets[-1]))
    ladders = []
    for block, lo, hi in zip(compiled, offsets[:-1], offsets[1:]):
        coupling[lo:hi, lo:hi] = dense_coupling(block)
        ladders.append((schedule or default_schedule_for(block.max_abs_weight, num_sweeps)).as_array())
    linear = np.concatenate([block.linear for block in compiled])[:, None]
    betas = np.stack(ladders, axis=1)
    classes = []
    for k in range(max(block.num_classes for block in compiled)):
        parts = [
            (b, block.structure.classes[k].members)
            for b, block in enumerate(compiled)
            if k < block.num_classes
        ]
        classes.append(
            (
                np.concatenate([members + offsets[b] for b, members in parts]),
                np.concatenate([np.full(members.size, b) for b, members in parts]),
            )
        )
    if initial_states is None:
        initial_states = rng.integers(0, 2, size=(num_reads, offsets[-1]))
    states_t = np.array(initial_states, dtype=float).T.copy()
    for sweep in range(num_sweeps):
        for rows, block_of in classes:
            current = states_t[rows]
            delta = (1.0 - 2.0 * current) * (coupling[rows] @ states_t + linear[rows])
            uniforms = rng.random(current.shape)
            probability = np.ones_like(delta)
            np.exp(delta * -betas[sweep, block_of][:, None], out=probability, where=delta > 0)
            states_t[rows] = np.where(uniforms < probability, 1.0 - current, current)
    return [np.ascontiguousarray(states_t[lo:hi].T) for lo, hi in zip(offsets[:-1], offsets[1:])]


# ---------------------------------------------------------------------- #
# Device noise
# ---------------------------------------------------------------------- #
def perturb_ising(
    noise: NoiseModel,
    ising: IsingModel,
    static_bias: Dict[int, float],
    scale: float,
    seed: SeedLike = None,
) -> IsingModel:
    """Static bias plus fresh programming noise, term by term."""
    if scale < 0:
        raise DeviceError("scale must be non-negative")
    rng = ensure_rng(seed)
    h = dict(ising.h)
    j = dict(ising.j)
    for var in h:
        h[var] += scale * static_bias.get(var, 0.0)
        if noise.programming_noise_fraction:
            h[var] += scale * float(rng.normal(0.0, noise.programming_noise_fraction))
    if noise.programming_noise_fraction:
        for edge in j:
            j[edge] += scale * float(rng.normal(0.0, noise.programming_noise_fraction))
    return IsingModel(h=h, j=j, offset=ising.offset)


def program_gauges(
    qubo: QUBOModel,
    noise: NoiseModel,
    static_bias: Dict[int, float],
    num_gauges: int,
    rng: np.random.Generator,
) -> List[Tuple[GaugeTransform, QUBOModel]]:
    """Per gauge batch: ``ising_to_qubo(perturb(gauge(qubo_to_ising(q))))``."""
    ising = qubo_to_ising(qubo)
    scale = ising.max_abs_weight()
    programmed = []
    for _ in range(num_gauges):
        gauge = random_gauge(qubo.variables, seed=rng)
        noisy = perturb_ising(noise, gauge.apply_to_ising(ising), static_bias, scale, seed=rng)
        programmed.append((gauge, ising_to_qubo(noisy)))
    return programmed


# ---------------------------------------------------------------------- #
# Read-out and decode
# ---------------------------------------------------------------------- #
def read_out(
    qubo: QUBOModel,
    gauges: Sequence[GaugeTransform],
    block_states: Sequence[np.ndarray],
    block_variables: Sequence[Variable],
    batch_sizes: Sequence[int],
) -> List[Tuple[Dict[Variable, int], float, int]]:
    """``(assignment, energy, gauge index)`` per read, one dict per read."""
    reads = []
    for gauge_index, (gauge, states, size) in enumerate(zip(gauges, block_states, batch_sizes)):
        for row in range(size):
            gauged = {var: int(states[row, i]) for i, var in enumerate(block_variables)}
            original = gauge.apply_to_binary(gauged)
            reads.append((original, qubo.energy(original), gauge_index))
    return reads


def resolve_chains_batch(
    states: np.ndarray,
    qubit_order: Sequence[int],
    embedding: Embedding,
    readout: ChainReadout = ChainReadout.MAJORITY,
) -> Tuple[List[Dict[Variable, int]], List[bool]]:
    """Per-read assignment dicts from a state matrix via :class:`ChainGather`.

    Broken reads get an empty assignment under ``DISCARD``, matching
    :func:`resolve_chains`.
    """
    gather = ChainGather(embedding, qubit_order)
    matrix, broken = gather.resolve(states, readout)
    assignments: List[Dict[Variable, int]] = []
    for row, row_broken in zip(matrix, broken):
        if readout is ChainReadout.DISCARD and row_broken:
            assignments.append({})
        else:
            assignments.append({var: int(row[i]) for i, var in enumerate(gather.variables)})
    return assignments, [bool(flag) for flag in broken]


def decode_reads(
    mapping: LogicalMapping,
    physical: PhysicalMapping,
    assignments: Sequence[Mapping[int, int]],
) -> List[Tuple[bool, MQOSolution, MQOSolution]]:
    """Per read: ``(broken, raw solution, repaired solution)``."""
    decoded = []
    for assignment in assignments:
        logical, broken = resolve_chains(assignment, physical.embedding, physical.config.readout)
        raw = mapping.solution_from_assignment(logical)
        decoded.append((broken, raw, raw if raw.is_valid else mapping.repair(logical)))
    return decoded
