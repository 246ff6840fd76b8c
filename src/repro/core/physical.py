"""Physical mapping: logical QUBO -> physical QUBO on qubits (paper Section 5).

Given a logical QUBO (variables = plans) and a minor-embedding (variable
-> chain of qubits), the physical mapping produces a QUBO over physical
qubits in three steps:

1. every logical linear weight ``w_i`` is split equally over the qubits
   of the chain representing ``X_i`` (``w_i / |B|`` per qubit),
2. every logical quadratic weight ``w_ij`` is placed on *one* physical
   coupler joining the two chains,
3. equality-enforcing terms ``w_B * (b_u + b_v - 2 b_u b_v)`` are added
   along the chain's spanning-tree couplers so that all qubits of a chain
   "behave as one bit".

The chain strength ``w_B`` follows Choi's parameter-setting rule: for
each chain ``B`` compute, per qubit ``b``, the worst-case energy increase
``U_{0->1}(b) = v + sum_i max(v_i, 0)`` and ``U_{1->0}(b) = -v +
sum_i max(-v_i, 0)`` (``v`` = weight on ``b`` after steps 1-2, ``v_i`` =
couplings from ``b`` to qubits outside ``B``); then

    w_B = min( sum_b U_{1->0}(b), sum_b U_{0->1}(b) ) + epsilon .
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.chimera.topology import ChimeraGraph
from repro.embedding.base import Embedding
from repro.embedding.unembed import ChainGather, ChainReadout, resolve_chains
from repro.exceptions import EmbeddingError
from repro.qubo.model import QUBOModel

__all__ = ["PhysicalMappingConfig", "PhysicalMapping", "embed_logical_qubo"]

Variable = Hashable


@dataclass(frozen=True)
class PhysicalMappingConfig:
    """Tuning knobs of the physical mapping.

    Attributes
    ----------
    chain_strength_epsilon:
        Slack added on top of Choi's bound for the chain strength.
    uniform_chain_strength:
        When set, *all* chains use this fixed strength instead of the
        per-chain Choi bound (used by the chain-strength ablation).
    readout:
        Broken-chain resolution strategy applied when unembedding samples.
    """

    chain_strength_epsilon: float = 0.25
    uniform_chain_strength: float | None = None
    readout: ChainReadout = ChainReadout.MAJORITY

    def __post_init__(self) -> None:
        if self.chain_strength_epsilon <= 0:
            raise EmbeddingError(
                f"chain_strength_epsilon must be positive, got {self.chain_strength_epsilon}"
            )
        if self.uniform_chain_strength is not None and self.uniform_chain_strength <= 0:
            raise EmbeddingError(
                f"uniform_chain_strength must be positive, got {self.uniform_chain_strength}"
            )


@dataclass
class PhysicalMapping:
    """The result of embedding a logical QUBO onto physical qubits.

    Attributes
    ----------
    logical_qubo / physical_qubo:
        The input and output energy formulas.
    embedding:
        The variable-to-chain map used.
    topology:
        The target hardware graph.
    chain_strengths:
        Chain strength ``w_B`` per logical variable.
    interaction_couplers:
        The physical coupler chosen for each logical interaction.
    config:
        The configuration used to build the mapping.
    """

    logical_qubo: QUBOModel
    physical_qubo: QUBOModel
    embedding: Embedding
    topology: ChimeraGraph
    chain_strengths: Dict[Variable, float]
    interaction_couplers: Dict[Tuple[Variable, Variable], Tuple[int, int]]
    config: PhysicalMappingConfig = field(default_factory=PhysicalMappingConfig)

    @property
    def num_qubits(self) -> int:
        """Number of physical qubits used."""
        return self.embedding.num_qubits

    @property
    def qubits_per_variable(self) -> float:
        """Average chain length — the x-axis of Figure 6."""
        return self.embedding.average_chain_length()

    def unembed_sample(self, physical_sample: Mapping[int, int]) -> Tuple[Dict[Variable, int], bool]:
        """Convert a physical sample into a logical assignment.

        Returns the assignment and whether any chain was broken
        (``PhysicalMapping^-1`` in Algorithm 1).
        """
        return resolve_chains(physical_sample, self.embedding, self.config.readout)

    def unembed_samples(
        self, states: np.ndarray, qubit_order: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised chain read-out of a whole ``(num_reads, num_qubits)`` state matrix.

        ``qubit_order`` names the qubit of each column.  Returns
        ``(logical, broken)``: the ``(num_reads, num_variables)`` int8
        matrix with one column per variable of :attr:`logical_qubo`, in
        its order, and the per-read broken-chain flags.  Row by row this
        equals :meth:`unembed_sample` (a discarded read is all zeros
        rather than an empty assignment), but every read resolves in one
        gather plus one segmented reduction
        (:class:`~repro.embedding.unembed.ChainGather`).
        """
        gather = ChainGather(self.embedding, qubit_order, self.logical_qubo.variables)
        return gather.resolve(states, self.config.readout)

    def logical_energy(self, logical_assignment: Mapping[Variable, int]) -> float:
        """Energy of a logical assignment under the *logical* QUBO."""
        return self.logical_qubo.energy(logical_assignment)


def _distribute_linear_weights(
    logical_qubo: QUBOModel, embedding: Embedding, physical: QUBOModel
) -> None:
    for var, weight in logical_qubo.linear.items():
        chain = embedding.chain(var)
        share = weight / len(chain)
        for qubit in chain:
            physical.add_linear(qubit, share)


def _place_quadratic_weights(
    logical_qubo: QUBOModel,
    embedding: Embedding,
    topology: ChimeraGraph,
    physical: QUBOModel,
) -> Dict[Tuple[Variable, Variable], Tuple[int, int]]:
    placed: Dict[Tuple[Variable, Variable], Tuple[int, int]] = {}
    for (u, v), weight in logical_qubo.quadratic.items():
        coupler = embedding.coupler_between(u, v, topology)
        if coupler is None:
            raise EmbeddingError(
                f"the embedding provides no physical coupler for the logical interaction "
                f"({u!r}, {v!r})"
            )
        physical.add_quadratic(coupler[0], coupler[1], weight)
        placed[(u, v)] = coupler
    return placed


def _choi_chain_strength(
    chain: Tuple[int, ...],
    physical: QUBOModel,
    epsilon: float,
) -> float:
    """Chain strength for one chain following Choi's bound (Section 5)."""
    chain_set = set(chain)
    increase_to_one = 0.0
    increase_to_zero = 0.0
    for qubit in chain:
        weight = physical.get_linear(qubit)
        external_positive = 0.0
        external_negative = 0.0
        for neighbor, coupling in physical.neighbors(qubit).items():
            if neighbor in chain_set:
                continue
            external_positive += max(coupling, 0.0)
            external_negative += max(-coupling, 0.0)
        increase_to_one += weight + external_positive
        increase_to_zero += -weight + external_negative
    bound = min(increase_to_zero, increase_to_one)
    return max(bound, 0.0) + epsilon


def embed_logical_qubo(
    logical_qubo: QUBOModel,
    embedding: Embedding,
    topology: ChimeraGraph,
    config: PhysicalMappingConfig | None = None,
) -> PhysicalMapping:
    """Build the physical energy formula for ``logical_qubo`` (Algorithm 1, line 6).

    Raises
    ------
    EmbeddingError
        If a logical variable has no chain, a chain uses broken qubits or
        is disconnected, or a logical interaction has no physical coupler.
    """
    config = config or PhysicalMappingConfig()
    missing = [var for var in logical_qubo.variables if var not in embedding]
    if missing:
        raise EmbeddingError(f"embedding is missing chains for variables: {missing[:5]}")
    embedding.validate(topology, logical_qubo.quadratic.keys())

    physical = QUBOModel(offset=logical_qubo.offset)
    for var in logical_qubo.variables:
        for qubit in embedding.chain(var):
            physical.add_variable(qubit)

    _distribute_linear_weights(logical_qubo, embedding, physical)
    interaction_couplers = _place_quadratic_weights(logical_qubo, embedding, topology, physical)

    # Step 3: per-chain equality penalties.  The Choi bound is computed on
    # the weights *after* the logical weights have been distributed, and
    # chains are processed independently (the bound already over-estimates
    # the influence of neighbouring chains through the coupler weights).
    chain_strengths: Dict[Variable, float] = {}
    chain_edges: Dict[Variable, List[Tuple[int, int]]] = {}
    for var in logical_qubo.variables:
        chain = embedding.chain(var)
        chain_edges[var] = embedding.chain_edges(var, topology)
        if config.uniform_chain_strength is not None:
            chain_strengths[var] = config.uniform_chain_strength
        else:
            chain_strengths[var] = _choi_chain_strength(
                chain, physical, config.chain_strength_epsilon
            )

    for var, edges in chain_edges.items():
        strength = chain_strengths[var]
        for qubit_u, qubit_v in edges:
            physical.add_linear(qubit_u, strength)
            physical.add_linear(qubit_v, strength)
            physical.add_quadratic(qubit_u, qubit_v, -2.0 * strength)

    return PhysicalMapping(
        logical_qubo=logical_qubo,
        physical_qubo=physical,
        embedding=embedding,
        topology=topology,
        chain_strengths=chain_strengths,
        interaction_couplers=interaction_couplers,
        config=config,
    )
