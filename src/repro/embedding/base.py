"""The :class:`Embedding` container: logical variables mapped to qubit chains."""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.chimera.topology import ChimeraGraph
from repro.exceptions import EmbeddingError
from repro.utils.arrays import concat_ranges

__all__ = ["Embedding", "ChainArrays"]

Variable = Hashable

#: ``(qubits, starts, lengths, index)``: every chain's qubits concatenated
#: in variable order, each chain's start and length in ``qubits``, and
#: each variable's position in that order.
ChainArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[Variable, int]]


class Embedding:
    """A mapping from logical variables to disjoint chains of physical qubits.

    Parameters
    ----------
    chains:
        Mapping from each logical variable to the collection of physical
        qubit indices representing it.  Chains must be non-empty and
        pairwise disjoint.
    """

    def __init__(self, chains: Mapping[Variable, Iterable[int]]) -> None:
        self._chains: Dict[Variable, Tuple[int, ...]] = {}
        self._qubit_to_variable: Dict[int, Variable] = {}
        for var, qubits in chains.items():
            chain = tuple(dict.fromkeys(int(q) for q in qubits))
            if not chain:
                raise EmbeddingError(f"variable {var!r} has an empty chain")
            for q in chain:
                if q in self._qubit_to_variable:
                    raise EmbeddingError(
                        f"qubit {q} is used by both {self._qubit_to_variable[q]!r} and {var!r}"
                    )
                self._qubit_to_variable[q] = var
            self._chains[var] = chain
        self._arrays: ChainArrays | None = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> List[Variable]:
        """Embedded logical variables in insertion order."""
        return list(self._chains)

    @property
    def num_variables(self) -> int:
        """Number of embedded logical variables."""
        return len(self._chains)

    @property
    def num_qubits(self) -> int:
        """Total number of physical qubits used by all chains."""
        return len(self._qubit_to_variable)

    def chain(self, var: Variable) -> Tuple[int, ...]:
        """The chain of physical qubits representing ``var``."""
        try:
            return self._chains[var]
        except KeyError:
            raise EmbeddingError(f"variable {var!r} is not embedded") from None

    def chains(self) -> Dict[Variable, Tuple[int, ...]]:
        """Copy of the full variable-to-chain mapping."""
        return dict(self._chains)

    def chain_length(self, var: Variable) -> int:
        """Number of qubits in the chain of ``var``."""
        return len(self.chain(var))

    def max_chain_length(self) -> int:
        """Longest chain length (0 for an empty embedding)."""
        if not self._chains:
            return 0
        return max(len(chain) for chain in self._chains.values())

    def average_chain_length(self) -> float:
        """Mean chain length, i.e. qubits per logical variable."""
        if not self._chains:
            return 0.0
        return self.num_qubits / self.num_variables

    def chain_arrays(self) -> ChainArrays:
        """The chains as flat arrays (see :data:`ChainArrays`), built once."""
        if self._arrays is None:
            lengths = np.fromiter(map(len, self._chains.values()), np.int64, len(self._chains))
            qubits = np.fromiter(self._qubit_to_variable, np.int64, len(self._qubit_to_variable))
            index = {var: position for position, var in enumerate(self._chains)}
            starts = np.cumsum(lengths) - lengths
            for array in (qubits, starts, lengths):
                array.setflags(write=False)
            self._arrays = (qubits, starts, lengths, index)
        return self._arrays

    def variable_of_qubit(self, qubit: int) -> Variable:
        """The logical variable represented by ``qubit``."""
        try:
            return self._qubit_to_variable[qubit]
        except KeyError:
            raise EmbeddingError(f"qubit {qubit} is not part of any chain") from None

    def used_qubits(self) -> Set[int]:
        """All physical qubits used by the embedding."""
        return set(self._qubit_to_variable)

    def __contains__(self, var: Variable) -> bool:
        return var in self._chains

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Embedding {self.num_variables} variables -> {self.num_qubits} qubits, "
            f"max chain {self.max_chain_length()}>"
        )

    # ------------------------------------------------------------------ #
    # Structure queries against a topology
    # ------------------------------------------------------------------ #
    def chain_is_connected(self, var: Variable, topology: ChimeraGraph) -> bool:
        """Whether the chain of ``var`` uses functional qubits and induces a connected subgraph."""
        if not all(topology.has_qubit(q) for q in self.chain(var)):
            return False
        try:
            self.chain_edges(var, topology)
        except EmbeddingError:
            return False
        return True

    def coupler_between(
        self, var_u: Variable, var_v: Variable, topology: ChimeraGraph
    ) -> Tuple[int, int] | None:
        """One physical coupler joining the chains of two variables, if any."""
        chain_u = self.chain(var_u)
        chain_v_set = set(self.chain(var_v))
        for qu in chain_u:
            if not topology.has_qubit(qu):
                continue
            for neighbor in topology.neighbors(qu):
                if neighbor in chain_v_set:
                    return (qu, neighbor)
        return None

    def couplers_between(
        self, var_u: Variable, var_v: Variable, topology: ChimeraGraph
    ) -> List[Tuple[int, int]]:
        """All physical couplers joining the chains of two variables."""
        chain_u = self.chain(var_u)
        chain_v_set = set(self.chain(var_v))
        couplers = []
        for qu in chain_u:
            if not topology.has_qubit(qu):
                continue
            for neighbor in topology.neighbors(qu):
                if neighbor in chain_v_set:
                    couplers.append((qu, neighbor))
        return couplers

    def chain_edges(self, var: Variable, topology: ChimeraGraph) -> List[Tuple[int, int]]:
        """Spanning-tree couplers that hold the chain of ``var`` together.

        The physical mapping adds equality-enforcing terms along these
        edges.  For a single-qubit chain the list is empty.
        """
        chain = self.chain(var)
        if len(chain) == 1:
            return []
        chain_set = set(chain)
        visited = {chain[0]}
        frontier = [chain[0]]
        edges: List[Tuple[int, int]] = []
        while frontier:
            current = frontier.pop()
            for neighbor in topology.neighbors(current):
                if neighbor in chain_set and neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append(neighbor)
                    edges.append((current, neighbor))
        if len(visited) != len(chain_set):
            raise EmbeddingError(f"chain of variable {var!r} is not connected on the topology")
        return edges

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(
        self,
        topology: ChimeraGraph,
        interactions: Iterable[Tuple[Variable, Variable]] = (),
    ) -> None:
        """Check the three embedding constraints of paper Section 5.

        1. Every chain uses only functional qubits and is connected.
        2. Chains are pairwise disjoint (guaranteed at construction).
        3. For every logical interaction there is at least one physical
           coupler joining the two chains.

        Raises :class:`EmbeddingError` on the first violation, checking
        the chains in variable order, then the interactions in order.
        """
        self.chain_trees(topology)
        self.interaction_couplers(topology, interactions)

    def chain_trees(self, topology: ChimeraGraph) -> Tuple[np.ndarray, np.ndarray]:
        """Check every chain (constraint 1) and return its spanning-tree couplers.

        Returns ``(edges, counts)``: the ``(k, 2)`` int64 tree couplers of
        all chains, chain by chain in variable order, each chain's in
        :meth:`chain_edges` order, and the number of couplers per chain.
        Two-qubit chains are checked on arrays; longer chains walk
        :meth:`chain_edges`.  Raises :meth:`validate`'s error for the
        first chain, in variable order, with a broken or unknown qubit or
        that is disconnected.
        """
        qubits, starts, lengths, _ = self.chain_arrays()
        variables = list(self._chains)
        functional = (qubits >= 0) & (qubits < topology.num_qubits_total)
        functional[functional] = topology.functional_mask[qubits[functional]]
        broken = np.flatnonzero(~functional)
        checked = int(np.searchsorted(starts, broken[0], side="right")) - 1 if broken.size else len(variables)

        counts = np.zeros(len(variables), dtype=np.int64)
        pairs = np.flatnonzero(lengths[:checked] == 2)
        first, second = qubits[starts[pairs]], qubits[starts[pairs] + 1]
        linked = (topology.neighbor_table[first] == second[:, None]).any(axis=1)
        counts[pairs[linked]] = 1
        connected = np.ones(checked, dtype=bool)
        connected[pairs[~linked]] = False
        long_edges: Dict[int, List[Tuple[int, int]]] = {}
        for position in np.flatnonzero(lengths[:checked] > 2).tolist():
            try:
                long_edges[position] = self.chain_edges(variables[position], topology)
            except EmbeddingError:
                connected[position] = False
            else:
                counts[position] = len(long_edges[position])

        disconnected = np.flatnonzero(~connected)
        if disconnected.size:
            var = variables[disconnected[0]]
            raise EmbeddingError(f"chain of {var!r} is not connected: {self._chains[var]}")
        if broken.size:
            raise EmbeddingError(
                f"chain of {variables[checked]!r} uses broken or unknown qubit {qubits[broken[0]]}"
            )
        edges = np.empty((int(counts.sum()), 2), dtype=np.int64)
        slots = np.cumsum(counts) - counts
        edges[slots[pairs[linked]], 0] = first[linked]
        edges[slots[pairs[linked]], 1] = second[linked]
        for position, chain_edges in long_edges.items():
            edges[slots[position] : slots[position] + counts[position]] = chain_edges
        return edges, counts

    def interaction_couplers(
        self,
        topology: ChimeraGraph,
        interactions: Iterable[Tuple[Variable, Variable]],
    ) -> np.ndarray:
        """The physical coupler found for each interaction (constraint 3).

        Returns an ``(m, 2)`` int64 array with one row ``(q_u, q_v)`` per
        interaction ``(u, v)``: the coupler :meth:`coupler_between` finds,
        searching chain ``u`` in chain order and each qubit's neighbours
        in ``topology.neighbors`` order, for all pairs in one vectorised
        pass.  A pair of equal variables gets ``(-1, -1)``.  Raises
        :meth:`validate`'s error for the first interaction that names a
        variable without a chain or has no coupler.
        """
        pairs = list(interactions)
        qubits, starts, lengths, index = self.chain_arrays()
        ends = np.array([index.get(var, -1) for pair in pairs for var in pair], dtype=np.int64)
        ends = ends.reshape(len(pairs), 2)
        searched = np.flatnonzero((ends >= 0).all(axis=1) & (ends[:, 0] != ends[:, 1]))
        u, v = ends[searched, 0], ends[searched, 1]

        # Candidate k of slot s: neighbour k of the s-th qubit of chain u.
        slots = concat_ranges(starts[u], lengths[u])
        slot_pair = np.repeat(np.arange(searched.size), lengths[u])
        sources = qubits[slots]
        table = topology.neighbor_table
        known = (sources >= 0) & (sources < table.shape[0])
        candidates = np.full((sources.size, table.shape[1]), -1, dtype=np.int64)
        candidates[known] = table[sources[known]]
        # owner[q]: the chain holding qubit q; the trailing -1 catches padding.
        owner = np.full(table.shape[0] + 1, -1, dtype=np.int64)
        placed = (qubits >= 0) & (qubits < table.shape[0])
        owner[qubits[placed]] = np.repeat(np.arange(lengths.size), lengths)[placed]
        hits = np.flatnonzero(owner[candidates] == v[slot_pair, None])
        hit_pair = slot_pair[hits // table.shape[1]]
        first = np.ones(hits.size, dtype=bool)
        first[1:] = hit_pair[1:] != hit_pair[:-1]
        hits, hit_pair = hits[first], hit_pair[first]

        couplers = np.full((len(pairs), 2), -1, dtype=np.int64)
        couplers[searched[hit_pair], 0] = sources[hits // table.shape[1]]
        couplers[searched[hit_pair], 1] = candidates.reshape(-1)[hits]
        failed = (ends < 0).any(axis=1) | ((couplers[:, 0] < 0) & (ends[:, 0] != ends[:, 1]))
        for position in np.flatnonzero(failed).tolist():
            u_var, v_var = pairs[position]
            if u_var == v_var:
                continue
            if (ends[position] < 0).any():
                raise EmbeddingError(
                    f"interaction ({u_var!r}, {v_var!r}) references a variable without a chain"
                )
            raise EmbeddingError(f"no physical coupler connects the chains of {u_var!r} and {v_var!r}")
        return couplers

    def statistics(self) -> Dict[str, float]:
        """Summary statistics used by the experiment reports."""
        lengths = [len(chain) for chain in self._chains.values()]
        if not lengths:
            return {
                "num_variables": 0,
                "num_qubits": 0,
                "max_chain_length": 0,
                "qubits_per_variable": 0.0,
            }
        return {
            "num_variables": float(len(lengths)),
            "num_qubits": float(sum(lengths)),
            "max_chain_length": float(max(lengths)),
            "qubits_per_variable": sum(lengths) / len(lengths),
        }

    def subembedding(self, variables: Sequence[Variable]) -> "Embedding":
        """Restriction of the embedding to a subset of variables."""
        return Embedding({var: self.chain(var) for var in variables})
