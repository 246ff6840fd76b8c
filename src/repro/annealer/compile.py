"""Sparse (CSR-style) compilation of QUBO models for the annealing hot path.

The simulated annealer historically compiled every QUBO into a dense
``(n, n)`` coupling matrix, so the per-sweep local-field update cost
``O(num_reads * n^2)`` regardless of how sparse the problem was.
Chimera-embedded QUBOs have degree at most six, which makes the dense
form almost entirely zeros at any interesting size.  This module
replaces it with flat arrays:

* the symmetric adjacency in CSR form, split by colour class: each
  class's rows (its members' neighbour indices and weights) are one
  small CSR matrix whose product with the state matrix is the class's
  local field — cost proportional to the non-zeros touching the class,
* the interaction list (each edge once) for vectorised energies.

The annealing kernel (:mod:`repro.annealer.fusion`) stitches the
per-class CSR rows of many compiled blocks into one fused sweep.

Compilation itself (greedy colouring + gather-plan construction) is the
expensive part, so the *structure* — everything that depends only on
the variable order and the sparsity pattern, not on the weights — is
reusable across QUBOs that share a pattern.  :class:`CompileCache` is a
small thread-safe LRU for exactly that: gauge batches, portfolio
re-races and anytime restarts all resubmit the same pattern with
different weights and skip the recompilation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.qubo.model import QUBOModel
from repro.utils.arrays import concat_ranges

__all__ = [
    "ClassUpdatePlan",
    "CompiledStructure",
    "CompiledQUBO",
    "CompileCache",
    "compile_qubo",
    "default_compile_cache",
    "greedy_coloring",
    "structure_key",
]

Variable = Hashable


def greedy_coloring(adjacency: List[List[int]]) -> List[List[int]]:
    """Partition variable indices into independent sets (colour classes).

    Nodes are coloured in order of decreasing degree with the smallest
    colour not used by a neighbour; variables in one class never
    interact, so a simultaneous Metropolis update of a class is
    equivalent to sequential single-flip updates within it.
    """
    num_vars = len(adjacency)
    colors = [-1] * num_vars
    order = sorted(range(num_vars), key=lambda i: -len(adjacency[i]))
    for node in order:
        taken = {colors[neighbor] for neighbor in adjacency[node] if colors[neighbor] >= 0}
        color = 0
        while color in taken:
            color += 1
        colors[node] = color
    classes: Dict[int, List[int]] = {}
    for node, color in enumerate(colors):
        classes.setdefault(color, []).append(node)
    return [classes[color] for color in sorted(classes)]


@dataclass(frozen=True)
class ClassUpdatePlan:
    """CSR rows for the local-field update of one colour class.

    Attributes
    ----------
    members:
        Variable indices of the class.
    neighbor_cols:
        Flat concatenation of every member's neighbour indices (the
        CSR ``indices`` restricted to the class's rows), ascending per
        member.
    data_slots:
        Position of each entry of :attr:`neighbor_cols` in the compiled
        symmetric data array (used to refresh weights cheaply).
    indptr:
        Per-class CSR row pointers: together with :attr:`neighbor_cols`
        and the gathered weights they form the ``(len(members), n)`` CSR
        matrix whose product with the state matrix is the class's
        coupling field.
    """

    members: np.ndarray
    neighbor_cols: np.ndarray
    data_slots: np.ndarray
    indptr: np.ndarray


@dataclass(frozen=True)
class CompiledStructure:
    """Weight-independent part of a compiled QUBO.

    Holds everything derived from the variable order and the sparsity
    pattern alone: the symmetric CSR permutation, the greedy colouring
    and the per-class gather plans.  Two QUBOs with the same variables
    and the same interaction list (in the same order) share a structure,
    which is what :class:`CompileCache` exploits.
    """

    variables: Tuple[Variable, ...]
    edges: np.ndarray
    sym_perm: np.ndarray
    classes: Tuple[ClassUpdatePlan, ...]

    @property
    def num_variables(self) -> int:
        """Number of variables."""
        return len(self.variables)

    @property
    def nnz(self) -> int:
        """Non-zeros of the symmetric adjacency (twice the edge count)."""
        return int(self.sym_perm.size)


@dataclass
class CompiledQUBO:
    """Array form of a QUBO used by the vectorised annealing sweeps.

    Pairs a (possibly shared) :class:`CompiledStructure` with the
    weight-dependent arrays: linear fields, per-edge weights, the
    symmetric CSR data and, pre-gathered per colour class, the
    neighbour weights of each class's CSR rows.
    """

    structure: CompiledStructure
    linear: np.ndarray
    edge_weights: np.ndarray
    sym_data: np.ndarray
    class_neighbor_data: List[np.ndarray]
    offset: float
    max_abs_weight: float

    @property
    def variables(self) -> List[Variable]:
        """Variable labels in compilation order."""
        return list(self.structure.variables)

    @property
    def num_variables(self) -> int:
        """Number of variables."""
        return self.structure.num_variables

    @property
    def num_classes(self) -> int:
        """Number of colour classes."""
        return len(self.structure.classes)

    def energies(self, states: np.ndarray) -> np.ndarray:
        """Vectorised energies of a ``(num_reads, n)`` 0/1 state matrix."""
        total = states @ self.linear + self.offset
        if self.edge_weights.size:
            edges = self.structure.edges
            total = total + (states[:, edges[:, 0]] * states[:, edges[:, 1]]) @ self.edge_weights
        return total

    def nbytes_sparse(self) -> int:
        """Bytes held by the sparse arrays (structure + weights)."""
        arrays: List[np.ndarray] = [self.linear, self.edge_weights, self.sym_data]
        arrays.extend(self.class_neighbor_data)
        arrays.append(self.structure.edges)
        arrays.append(self.structure.sym_perm)
        for plan in self.structure.classes:
            arrays.extend([plan.members, plan.neighbor_cols, plan.data_slots, plan.indptr])
        return int(sum(array.nbytes for array in arrays))


class CompileCache:
    """Thread-safe LRU cache for compiled artefacts.

    Used process-wide for compiled-QUBO structures (keyed by sparsity
    pattern) and by the service layer for prepared pipelines (keyed by
    :func:`~repro.mqo.serialization.exact_problem_token`).  ``maxsize=0``
    disables caching entirely, which the equivalence tests and the
    benchmark use to measure cold compilations.
    """

    def __init__(self, maxsize: int = 128, name: Optional[str] = None) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be non-negative, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        # A named cache mirrors its hit/miss counts into the process-wide
        # metrics registry (Prometheus series labelled by cache name).
        self._hit_counter = self._miss_counter = None
        if name:
            from repro.obs.metrics import get_registry

            registry = get_registry()
            labels = {"cache": name}
            self._hit_counter = registry.counter(
                "repro_compile_cache_hits_total", "Compile-cache hits.", labels
            )
            self._miss_counter = registry.counter(
                "repro_compile_cache_misses_total", "Compile-cache misses.", labels
            )

    def get(self, key: Any) -> Any:
        """The cached value for ``key``, or ``None`` (counts hit/miss)."""
        with self._lock:
            if key in self._entries:
                self.hits += 1
                if self._hit_counter is not None:
                    self._hit_counter.inc()
                self._entries.move_to_end(key)
                return self._entries[key]
            self.misses += 1
            if self._miss_counter is not None:
                self._miss_counter.inc()
            return None

    def put(self, key: Any, value: Any) -> None:
        """Insert ``value`` under ``key``, evicting the LRU entry if full."""
        if self.maxsize == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Snapshot of size and hit/miss counters."""
        with self._lock:
            return {"size": len(self._entries), "hits": self.hits, "misses": self.misses}

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CompileCache {len(self._entries)}/{self.maxsize} hits={self.hits} misses={self.misses}>"


_default_cache: CompileCache | None = None
_default_cache_lock = threading.Lock()


def default_compile_cache() -> CompileCache:
    """The process-wide structure cache shared by all samplers."""
    global _default_cache
    with _default_cache_lock:
        if _default_cache is None:
            _default_cache = CompileCache(maxsize=128, name="structure")
        return _default_cache


def _build_structure(variables: Sequence[Variable], edges: np.ndarray) -> CompiledStructure:
    """Build the weight-independent compilation of a sparsity pattern."""
    n = len(variables)
    num_edges = edges.shape[0]
    if num_edges:
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        sym_perm = np.lexsort((cols, rows)).astype(np.int64)
        rows_sorted = rows[sym_perm]
        cols_sorted = cols[sym_perm]
        counts = np.bincount(rows_sorted, minlength=n).astype(np.int64)
    else:
        sym_perm = np.empty(0, dtype=np.int64)
        cols_sorted = np.empty(0, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    neighbors, bounds = cols_sorted.tolist(), indptr.tolist()
    adjacency: List[List[int]] = [neighbors[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    classes: List[ClassUpdatePlan] = []
    for members_list in greedy_coloring(adjacency):
        members = np.asarray(members_list, dtype=np.int64)
        lengths = counts[members]
        data_slots = concat_ranges(indptr[members], lengths)
        classes.append(
            ClassUpdatePlan(
                members=members,
                neighbor_cols=cols_sorted[data_slots],
                data_slots=data_slots,
                indptr=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
            )
        )
    return CompiledStructure(
        variables=tuple(variables),
        edges=edges,
        sym_perm=sym_perm,
        classes=tuple(classes),
    )


def structure_key(variables: Sequence[Variable], edges: np.ndarray) -> Tuple:
    """Cache key of a sparsity pattern (variable order + edge sequence)."""
    return (tuple(variables), edges.tobytes())


def compile_qubo(qubo: QUBOModel, cache: CompileCache | None = None) -> CompiledQUBO:
    """Compile ``qubo`` into the flat-array form used by the samplers.

    When ``cache`` is given, the weight-independent structure (colouring
    and gather plans) is looked up by sparsity pattern and only the
    weight arrays are rebuilt — an ``O(nnz)`` refresh instead of a full
    recompilation.  Weights themselves are never cached because gauge
    transforms and noise perturb them on every device programming.
    """
    variables, linear, edges, weights = qubo.to_arrays()
    structure: CompiledStructure | None = None
    if cache is not None:
        key = structure_key(variables, edges)
        structure = cache.get(key)
    if structure is None:
        structure = _build_structure(variables, edges)
        if cache is not None:
            cache.put(key, structure)

    if weights.size:
        sym_data = np.concatenate([weights, weights])[structure.sym_perm]
        max_abs = max(
            float(np.max(np.abs(linear))) if linear.size else 0.0,
            float(np.max(np.abs(weights))),
        )
    else:
        sym_data = np.empty(0)
        max_abs = float(np.max(np.abs(linear))) if linear.size else 0.0
    return CompiledQUBO(
        structure=structure,
        linear=linear,
        edge_weights=weights,
        sym_data=sym_data,
        class_neighbor_data=[sym_data[plan.data_slots] for plan in structure.classes],
        offset=float(qubo.offset),
        max_abs_weight=max_abs,
    )
