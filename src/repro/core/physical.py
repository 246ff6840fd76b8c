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
from typing import Dict, Hashable, Mapping, Sequence, Tuple

import numpy as np

from repro.chimera.topology import ChimeraGraph
from repro.embedding.base import Embedding
from repro.embedding.unembed import ChainGather, ChainReadout, resolve_chains
from repro.exceptions import EmbeddingError
from repro.qubo.model import QUBOModel
from repro.utils.arrays import concat_ranges

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
        rather than an empty assignment), but all reads resolve together
        in a few whole-matrix gathers
        (:class:`~repro.embedding.unembed.ChainGather`).
        """
        gather = ChainGather(self.embedding, qubit_order, self.logical_qubo.variables)
        return gather.resolve(states, self.config.readout)

    def logical_energy(self, logical_assignment: Mapping[Variable, int]) -> float:
        """Energy of a logical assignment under the *logical* QUBO."""
        return self.logical_qubo.energy(logical_assignment)


def embed_logical_qubo(
    logical_qubo: QUBOModel,
    embedding: Embedding,
    topology: ChimeraGraph,
    config: PhysicalMappingConfig | None = None,
) -> PhysicalMapping:
    """Build the physical energy formula for ``logical_qubo`` (Algorithm 1, line 6).

    The physical QUBO is assembled on arrays in one
    :meth:`QUBOModel.from_arrays` call, with the layout and the floats of
    the term-by-term construction (``tests/oracles.py`` keeps that form):

    * variables: the chain qubits, in logical-variable order;
    * edges: the placed couplers in logical-quadratic order, then every
      chain's spanning-tree couplers in variable order, each stored
      smaller qubit first;
    * linear weights: ``0.0 + w_i / |B|`` per chain qubit, plus each
      chain strength at both endpoints of each tree coupler, accumulated
      in coupler order;
    * the Choi bound sums the external couplings per qubit in placement
      order, then per chain in chain order.

    Raises
    ------
    EmbeddingError
        If a logical variable has no chain, a chain uses broken qubits or
        is disconnected, or a logical interaction has no physical coupler.
    """
    config = config or PhysicalMappingConfig()
    variables, logical_linear, _, logical_weights = logical_qubo.to_arrays()
    qubits, starts, lengths, index = embedding.chain_arrays()
    chain_of = np.array([index.get(var, -1) for var in variables], dtype=np.int64)
    if (chain_of < 0).any():
        missing = [var for var, chain in zip(variables, chain_of.tolist()) if chain < 0]
        raise EmbeddingError(f"embedding is missing chains for variables: {missing[:5]}")
    tree_edges, tree_counts = embedding.chain_trees(topology)
    interactions = logical_qubo.interactions()
    couplers = embedding.interaction_couplers(topology, interactions)

    chain_lengths = lengths[chain_of]
    physical_qubits = qubits[concat_ranges(starts[chain_of], chain_lengths)]
    position = np.full(topology.num_qubits_total, -1, dtype=np.int64)
    position[physical_qubits] = np.arange(physical_qubits.size)
    tree_slots = np.cumsum(tree_counts) - tree_counts
    tree = tree_edges[concat_ranges(tree_slots[chain_of], tree_counts[chain_of])]
    tree_chain = np.repeat(np.arange(len(variables)), tree_counts[chain_of])

    # Steps 1-2: split the linear weights over the chains, place each
    # logical coupling on its coupler.
    linear = 0.0 + np.repeat(logical_linear / chain_lengths, chain_lengths)
    coupling = 0.0 + logical_weights
    placed = position[couplers]

    # Step 3: per-chain equality penalties.  The Choi bound is computed on
    # the weights *after* the logical weights have been distributed, and
    # chains are processed independently (the bound already over-estimates
    # the influence of neighbouring chains through the coupler weights).
    if config.uniform_chain_strength is not None:
        strengths = np.full(len(variables), float(config.uniform_chain_strength))
        chain_strengths = dict.fromkeys(variables, config.uniform_chain_strength)
    else:
        strengths = _choi_chain_strengths(linear, placed, coupling, chain_lengths)
        strengths = strengths + config.chain_strength_epsilon
        chain_strengths = dict(zip(variables, strengths.tolist()))
    tree_strength = strengths[tree_chain]
    np.add.at(linear, position[tree].reshape(-1), np.repeat(tree_strength, 2))

    edges = np.concatenate([position[np.sort(couplers, axis=1)], position[np.sort(tree, axis=1)]])
    weights = np.concatenate([coupling, 0.0 + -2.0 * tree_strength])
    physical = QUBOModel.from_arrays(
        physical_qubits.tolist(), linear, edges, weights, offset=logical_qubo.offset
    )
    return PhysicalMapping(
        logical_qubo=logical_qubo,
        physical_qubo=physical,
        embedding=embedding,
        topology=topology,
        chain_strengths=chain_strengths,
        interaction_couplers=dict(zip(interactions, map(tuple, couplers.tolist()))),
        config=config,
    )


def _choi_chain_strengths(
    linear: np.ndarray, placed: np.ndarray, coupling: np.ndarray, chain_lengths: np.ndarray
) -> np.ndarray:
    """Choi's bound ``max(min(sum U_{1->0}, sum U_{0->1}), 0)`` per chain (Section 5).

    ``placed`` holds the physical positions of each logical coupling's
    two endpoints.  Every sum runs left to right, as the per-term loop
    does: per qubit over its couplings in placement order, then per
    chain over its qubits in chain order.
    """
    endpoints = placed.reshape(-1)
    external_positive = np.zeros(linear.size)
    external_negative = np.zeros(linear.size)
    np.add.at(external_positive, endpoints, np.repeat(np.maximum(coupling, 0.0), 2))
    np.add.at(external_negative, endpoints, np.repeat(np.maximum(-coupling, 0.0), 2))
    chain = np.repeat(np.arange(chain_lengths.size), chain_lengths)
    increase_to_one = np.zeros(chain_lengths.size)
    increase_to_zero = np.zeros(chain_lengths.size)
    np.add.at(increase_to_one, chain, linear + external_positive)
    np.add.at(increase_to_zero, chain, -linear + external_negative)
    return np.maximum(np.minimum(increase_to_zero, increase_to_one), 0.0)
