"""Chain read-out (unembedding) of physical samples.

After an annealing run, every physical qubit carries a binary value.  All
qubits of a chain *should* agree (the equality penalties of the physical
mapping drive them to), but disturbed runs can produce *broken chains*.
This module converts physical samples back into logical assignments and
offers the standard resolution strategies for broken chains.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.embedding.base import Embedding
from repro.exceptions import EmbeddingError
from repro.utils.arrays import concat_ranges

__all__ = [
    "ChainReadout",
    "ChainGather",
    "majority_vote",
    "resolve_chains",
]

Variable = Hashable


class ChainReadout(str, Enum):
    """Strategy for resolving broken chains during read-out.

    ``MAJORITY``
        Take the value held by the majority of the chain's qubits
        (ties resolve to 1, matching the convention of breaking towards
        selecting a plan, which the validity penalties then correct).
    ``FIRST``
        Take the value of the first qubit in the chain.
    ``DISCARD``
        Mark the whole sample as unusable when any chain is broken.
    """

    MAJORITY = "majority"
    FIRST = "first"
    DISCARD = "discard"


def majority_vote(values: Tuple[int, ...]) -> int:
    """Majority value of a tuple of 0/1 readings (ties resolve to 1)."""
    if not values:
        raise EmbeddingError("cannot take a majority vote over an empty chain")
    ones = sum(values)
    return 1 if 2 * ones >= len(values) else 0


def resolve_chains(
    physical_sample: Mapping[int, int],
    embedding: Embedding,
    readout: ChainReadout = ChainReadout.MAJORITY,
) -> Tuple[Dict[Variable, int], bool]:
    """Convert one physical sample into a logical assignment.

    Parameters
    ----------
    physical_sample:
        Mapping from physical qubit index to its 0/1 value.
    embedding:
        The embedding whose chains define the logical variables.
    readout:
        Broken-chain resolution strategy.

    Returns
    -------
    (assignment, any_chain_broken)
        The logical assignment and a flag telling whether at least one
        chain had inconsistent qubit values.  With
        :attr:`ChainReadout.DISCARD` the assignment is empty when a chain
        is broken.
    """
    assignment: Dict[Variable, int] = {}
    any_broken = False
    for var in embedding.variables:
        chain = embedding.chain(var)
        try:
            values = tuple(int(physical_sample[q]) for q in chain)
        except KeyError as exc:
            raise EmbeddingError(
                f"physical sample is missing qubit {exc} of the chain for {var!r}"
            ) from exc
        for value in values:
            if value not in (0, 1):
                raise EmbeddingError(
                    f"physical sample holds non-binary value {value} for variable {var!r}"
                )
        broken = len(set(values)) > 1
        any_broken = any_broken or broken
        if readout is ChainReadout.DISCARD and broken:
            return {}, True
        if readout is ChainReadout.FIRST:
            assignment[var] = values[0]
        else:
            assignment[var] = majority_vote(values)
    return assignment, any_broken


class ChainGather:
    """Precomputed flat gather for vectorised chain read-out.

    Resolving chains sample by sample costs a Python loop per qubit per
    read.  This helper flattens every chain's qubit positions (relative
    to a fixed qubit order) once, so a whole batch of reads resolves
    with one fancy-index plus one gather-and-add per qubit rank of the
    longest chain.

    Parameters
    ----------
    embedding:
        The embedding whose chains define the logical variables.
    qubit_order:
        The physical qubit corresponding to each column of the state
        matrices that will be resolved.
    variables:
        The logical variables to resolve, in output column order (all of
        the embedding's, in its order, by default).
    """

    def __init__(
        self,
        embedding: Embedding,
        qubit_order: Sequence[int],
        variables: Sequence[Variable] | None = None,
    ) -> None:
        self.variables: List[Variable] = list(
            embedding.variables if variables is None else variables
        )
        qubits, starts, lengths, index = embedding.chain_arrays()
        known = len(self.variables)
        if variables is not None:
            chain_of = np.array([index.get(var, -1) for var in self.variables], dtype=np.int64)
            unknown = np.flatnonzero(chain_of < 0)
            known = int(unknown[0]) if unknown.size else known
            lengths = lengths[chain_of[:known]]
            qubits = qubits[concat_ranges(starts[chain_of[:known]], lengths)]
        # Column of each chain qubit: the last column holding it, as a
        # qubit -> column dict built over ``qubit_order`` would give.
        order = np.asarray(qubit_order, dtype=np.int64).reshape(-1)
        sorter = np.argsort(order, kind="stable")
        found = np.searchsorted(order, qubits, side="right", sorter=sorter) - 1
        missing = found < 0
        columns = np.zeros_like(found)
        columns[~missing] = sorter[found[~missing]]
        missing[~missing] = order[columns[~missing]] != qubits[~missing]
        if missing.any():
            slot = int(np.flatnonzero(missing)[0])
            var = self.variables[int(np.searchsorted(np.cumsum(lengths), slot, side="right"))]
            raise EmbeddingError(
                f"qubit order is missing qubit {qubits[slot]} of the chain for {var!r}"
            )
        if known < len(self.variables):
            embedding.chain(self.variables[known])  # raises: not embedded
        self.flat = columns
        self.lengths = lengths
        self.starts = np.cumsum(self.lengths) - self.lengths

    def resolve(
        self, states: np.ndarray, readout: ChainReadout = ChainReadout.MAJORITY
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve a ``(num_reads, num_qubits)`` 0/1 state matrix.

        Returns ``(assignments, broken)`` where ``assignments`` is a
        ``(num_reads, num_variables)`` int8 matrix in the order of
        :attr:`variables` and ``broken`` flags reads with at least one
        inconsistent chain.  With :attr:`ChainReadout.DISCARD` the rows
        of broken reads are blanked to all zeros (the array form of
        :func:`resolve_chains`' empty assignment).
        """
        states = np.asarray(states)
        if states.ndim != 2:
            raise EmbeddingError(f"states must be 2-D, got shape {states.shape}")
        values = states[:, self.flat]
        if not (values == values.astype(bool)).all():
            raise EmbeddingError("physical samples hold non-binary values")
        # Per-chain count of ones, one gather per qubit rank: chains are
        # short, and this beats a segmented reduction over many segments.
        values = values.astype(np.int64, copy=False)
        ones = values[:, self.starts]
        for rank in range(1, int(self.lengths.max(initial=1))):
            longer = np.flatnonzero(self.lengths > rank)
            ones[:, longer] += values[:, self.starts[longer] + rank]
        broken_chains = (ones > 0) & (ones < self.lengths)
        broken = broken_chains.any(axis=1)
        if readout is ChainReadout.FIRST:
            assignments = values[:, self.starts]
        else:
            # Majority with ties resolving to 1, matching majority_vote.
            assignments = (2 * ones >= self.lengths).astype(np.int64)
        assignments = assignments.astype(np.int8)
        if readout is ChainReadout.DISCARD:
            assignments[broken] = 0
        return assignments, broken
