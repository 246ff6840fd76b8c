"""Compact per-cell embedding for the paper's evaluation workloads.

The evaluation instances of Section 7 treat every query as its own
cluster with 2-5 alternative plans.  Packing each such small cluster into
a single Chimera unit cell (see :mod:`repro.embedding.cell_patterns`)
achieves the qubit-per-variable ratios reported in Figure 6 — close to
one qubit per variable for two plans per query, growing towards two as
the number of plans per query increases — and therefore also the maximal
problem sizes that fit on the 1097 functional qubits of the D-Wave 2X.

Clusters are assigned to unit cells along a serpentine (boustrophedon)
walk over the cell grid, so consecutive clusters sit in the same or in
adjacent cells and the leftover couplers can carry sharing links between
plans of neighbouring queries.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Sequence, Tuple

from repro.chimera.topology import ChimeraGraph
from repro.embedding.base import Embedding
from repro.embedding.cell_patterns import (
    intra_cell_clique_chains,
    max_clique_size_per_cell,
    positions_needed,
)
from repro.exceptions import EmbeddingError, EmbeddingNotFoundError

__all__ = ["NativeClusteredEmbedder"]

Variable = Hashable


class NativeClusteredEmbedder:
    """Pack small fully connected clusters into individual Chimera unit cells."""

    def __init__(self, topology: ChimeraGraph) -> None:
        self.topology = topology

    # ------------------------------------------------------------------ #
    # Cell inventory
    # ------------------------------------------------------------------ #
    def serpentine_cells(self) -> Iterator[Tuple[int, int]]:
        """Unit-cell coordinates in serpentine order (row 0 left-to-right, row 1
        right-to-left, ...)."""
        for row in range(self.topology.rows):
            cols = range(self.topology.cols)
            if row % 2 == 1:
                cols = reversed(cols)  # type: ignore[assignment]
            for col in cols:
                yield row, col

    def capacity(self, cluster_size: int) -> int:
        """Maximum number of equal-size clusters this topology can host.

        This is the quantity the paper uses to choose "the associated
        maximal number of queries that can be treated using the available
        qubits" for each plans-per-query setting.
        """
        if cluster_size > max_clique_size_per_cell(self.topology.shore):
            return 0
        needed = positions_needed(cluster_size)
        total = 0
        for row, col in self.serpentine_cells():
            total += len(self.topology.intact_positions(row, col)) // needed
        return total

    def qubits_per_variable(self, cluster_size: int) -> float:
        """Qubits consumed per logical variable for clusters of the given size."""
        if cluster_size <= 0:
            raise EmbeddingError(f"cluster_size must be positive, got {cluster_size}")
        if cluster_size == 1:
            return 1.0
        chains = intra_cell_clique_chains(
            [(2 * k, 2 * k + 1) for k in range(positions_needed(cluster_size))],
            cluster_size,
        )
        return sum(len(chain) for chain in chains) / cluster_size

    # ------------------------------------------------------------------ #
    # Embedding
    # ------------------------------------------------------------------ #
    def embed(
        self,
        clusters: Sequence[Sequence[Variable]],
        interactions: Sequence[Tuple[Variable, Variable]] = (),
    ) -> Embedding:
        """Embed each cluster as a clique inside (part of) one unit cell.

        Clusters are consumed in order; a cluster is never split across
        cells.  ``interactions`` (typically the sharing links between
        plans of different queries) are validated against the produced
        embedding and raise :class:`EmbeddingError` if a required physical
        coupler is missing.
        """
        if not clusters or any(not cluster for cluster in clusters):
            raise EmbeddingError("clusters must be non-empty sequences of variables")
        flat = [var for cluster in clusters for var in cluster]
        if len(set(flat)) != len(flat):
            raise EmbeddingError("variables must be unique across clusters")
        max_size = max_clique_size_per_cell(self.topology.shore)
        for cluster in clusters:
            if len(cluster) > max_size:
                raise EmbeddingNotFoundError(
                    f"a cluster of {len(cluster)} variables does not fit into a single "
                    f"unit cell (maximum {max_size}); use the TRIAD/clustered embedder"
                )

        chains: Dict[Variable, Tuple[int, ...]] = {}
        cell_iter = self.serpentine_cells()
        available: List[Tuple[int, int]] = []
        exhausted = False
        for cluster_index, cluster in enumerate(clusters):
            needed = positions_needed(len(cluster))
            while len(available) < needed:
                try:
                    row, col = next(cell_iter)
                except StopIteration:
                    exhausted = True
                    break
                # Positions left over in the previous cell cannot be combined
                # with a new cell for the same cluster (chains would be
                # disconnected), so start fresh per cell.
                available = self.topology.intact_positions(row, col)
            if exhausted or len(available) < needed:
                raise EmbeddingNotFoundError(
                    f"ran out of unit cells after embedding {cluster_index} of "
                    f"{len(clusters)} clusters"
                )
            used, available = available[:needed], available[needed:]
            cluster_chains = intra_cell_clique_chains(used, len(cluster))
            for var, chain in zip(cluster, cluster_chains):
                chains[var] = tuple(chain)

        embedding = Embedding(chains)
        # Each logical edge is checked once: the interactions usually hold
        # the intra-cluster pairs already (the logical QUBO's penalties).
        checked = list(interactions)
        seen = set(checked)
        for cluster in clusters:
            members = list(cluster)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    pair = (members[i], members[j])
                    if pair not in seen and pair[::-1] not in seen:
                        checked.append(pair)
        embedding.validate(self.topology, checked)
        return embedding

    def couplable_pairs(self, embedding: Embedding) -> List[Tuple[Variable, Variable]]:
        """All variable pairs whose chains are joined by a physical coupler.

        Workload generators use this to place sharing links only where the
        hardware can represent them ("test cases that map well to the
        quantum annealer", Section 7.1).
        """
        topo = self.topology
        chains = embedding.chains()
        qubit_to_var = {q: var for var, chain in chains.items() for q in chain}
        pairs = set()
        for u, v in topo.edges():
            var_u = qubit_to_var.get(u)
            var_v = qubit_to_var.get(v)
            if var_u is None or var_v is None or var_u == var_v:
                continue
            key = (var_u, var_v) if repr(var_u) <= repr(var_v) else (var_v, var_u)
            pairs.add(key)
        return sorted(pairs, key=repr)
