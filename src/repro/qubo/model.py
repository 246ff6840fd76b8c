"""Sparse QUBO model container.

The model stores linear weights (diagonal terms ``w_ii``) and quadratic
weights (off-diagonal terms ``w_ij`` with ``i < j``) over hashable
variable labels.  The energy of an assignment ``x`` is

    E(x) = sum_i w_ii x_i + sum_{i<j} w_ij x_i x_j .

Variables may be arbitrary hashable labels (plan indices for the logical
QUBO, qubit indices for the physical QUBO).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.exceptions import QUBOError

__all__ = ["QUBOModel"]

Variable = Hashable
Edge = Tuple[Variable, Variable]


class QUBOModel:
    """A sparse QUBO over arbitrary hashable variable labels.

    The container is mutable (weights are accumulated with
    :meth:`add_linear` / :meth:`add_quadratic`) because the logical and
    physical mappings build energy formulas incrementally, term by term.

    Models can alternatively be built in one shot from flat arrays
    (:meth:`from_arrays`, the inverse of :meth:`to_arrays`).  Such
    models keep their arrays and materialise the per-term dictionaries
    lazily on first dict-level access, so the array-in / array-out hot
    path (logical mapping -> annealer compilation) never pays for dict
    construction at all.
    """

    def __init__(
        self,
        linear: Mapping[Variable, float] | None = None,
        quadratic: Mapping[Edge, float] | None = None,
        offset: float = 0.0,
    ) -> None:
        self._linear_store: Dict[Variable, float] | None = {}
        self._quadratic_store: Dict[Edge, float] | None = {}
        self._adjacency_store: Dict[Variable, Dict[Variable, float]] | None = {}
        #: Deferred array form (variables, linear, edges, weights) not yet
        #: expanded into the dict stores; exclusive with non-None stores.
        self._pending: Tuple[List[Variable], np.ndarray, np.ndarray, np.ndarray] | None = None
        #: Cached flat-array export in insertion order; dropped on mutation.
        self._array_cache: Tuple[List[Variable], np.ndarray, np.ndarray, np.ndarray] | None = None
        self.offset = float(offset)
        for var, weight in (linear or {}).items():
            self.add_linear(var, weight)
        for (u, v), weight in (quadratic or {}).items():
            self.add_quadratic(u, v, weight)

    # ------------------------------------------------------------------ #
    # Array backing (lazy dict materialisation)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(
        cls,
        variables: Sequence[Variable],
        linear: np.ndarray,
        edges: np.ndarray,
        weights: np.ndarray,
        offset: float = 0.0,
    ) -> "QUBOModel":
        """Build a model from the flat arrays :meth:`to_arrays` produces.

        ``linear`` holds one weight per entry of ``variables``;
        ``edges`` is an ``(m, 2)`` integer array of variable *positions*
        with the matching quadratic ``weights``.  Edges must reference
        distinct variables and each unordered pair may appear at most
        once (the whole-array builders guarantee this; violations
        raise).  The per-term dictionaries are materialised lazily, so
        consumers that only ever read the arrays back (the annealer
        compiler) skip dict construction entirely.
        """
        variables = list(variables)
        # Copied: the arrays become the model's canonical export, so a
        # caller mutating its inputs afterwards must not corrupt it.
        linear = np.array(linear, dtype=np.float64)
        edges = np.array(edges, dtype=np.int64)
        weights = np.array(weights, dtype=np.float64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        n = len(variables)
        if len(set(variables)) != n:
            raise QUBOError("from_arrays received duplicate variable labels")
        if linear.shape != (n,):
            raise QUBOError(f"linear must have shape ({n},), got {linear.shape}")
        if edges.ndim != 2 or edges.shape[1] != 2 or weights.shape != (edges.shape[0],):
            raise QUBOError(
                f"edges must have shape (m, 2) with matching weights, "
                f"got {edges.shape} and {weights.shape}"
            )
        if not np.isfinite(linear).all() or not np.isfinite(weights).all():
            raise QUBOError("QUBO weights must be finite")
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise QUBOError("edge endpoints must index into variables")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            if (lo == hi).any():
                raise QUBOError("edges may not couple a variable with itself")
            if len(np.unique(lo * np.int64(n) + hi)) != len(lo):
                raise QUBOError("from_arrays received a duplicate edge")
        return cls._from_checked(variables, linear, edges, weights, offset)

    @classmethod
    def _from_checked(
        cls,
        variables: List[Variable],
        linear: np.ndarray,
        edges: np.ndarray,
        weights: np.ndarray,
        offset: float,
    ) -> "QUBOModel":
        model = cls.__new__(cls)
        model.offset = cls._check_weight(offset)
        model._linear_store = None
        model._quadratic_store = None
        model._adjacency_store = None
        model._pending = (variables, linear, edges, weights)
        model._array_cache = (variables, linear, edges, weights)
        return model

    def reweighted(self, linear: np.ndarray, weights: np.ndarray, offset: float) -> "QUBOModel":
        """A model with this one's variables and edges and new weights.

        ``linear`` and ``weights`` follow :meth:`to_arrays`' variable and
        edge order.  Only the new weights are checked (shape, finite): the
        shared structure was checked when this model was built, so many
        models over one structure — the gauge batches of an annealing
        request — check it once.
        """
        variables, _, edges, _ = self._array_cache or self.to_arrays()
        linear = np.array(linear, dtype=np.float64)
        weights = np.array(weights, dtype=np.float64)
        if linear.shape != (len(variables),) or weights.shape != (edges.shape[0],):
            raise QUBOError(
                f"reweighted needs {len(variables)} linear and {edges.shape[0]} quadratic "
                f"weights, got {linear.shape} and {weights.shape}"
            )
        if not np.isfinite(linear).all() or not np.isfinite(weights).all():
            raise QUBOError("QUBO weights must be finite")
        return self._from_checked(variables, linear, edges, weights, offset)

    def _materialize(self) -> None:
        """Expand the deferred array backing into the dict stores."""
        assert self._pending is not None
        variables, linear, edges, weights = self._pending
        self._pending = None
        self._linear_store = dict(zip(variables, linear.tolist()))
        adjacency: Dict[Variable, Dict[Variable, float]] = {var: {} for var in variables}
        quadratic: Dict[Edge, float] = {}
        for ui, vi, weight in zip(edges[:, 0].tolist(), edges[:, 1].tolist(), weights.tolist()):
            u, v = variables[ui], variables[vi]
            quadratic[self._edge_key(u, v)] = weight
            adjacency[u][v] = weight
            adjacency[v][u] = weight
        self._quadratic_store = quadratic
        self._adjacency_store = adjacency

    @property
    def _linear(self) -> Dict[Variable, float]:
        if self._linear_store is None:
            self._materialize()
        return self._linear_store

    @property
    def _quadratic(self) -> Dict[Edge, float]:
        if self._quadratic_store is None:
            self._materialize()
        return self._quadratic_store

    @property
    def _adjacency(self) -> Dict[Variable, Dict[Variable, float]]:
        if self._adjacency_store is None:
            self._materialize()
        return self._adjacency_store

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_weight(weight: float) -> float:
        weight = float(weight)
        if not math.isfinite(weight):
            raise QUBOError(f"QUBO weights must be finite, got {weight!r}")
        return weight

    def add_variable(self, var: Variable) -> None:
        """Register ``var`` (with zero linear weight) if not yet present."""
        if var not in self._linear:
            self._array_cache = None
            self._linear[var] = 0.0
            self._adjacency.setdefault(var, {})

    def add_linear(self, var: Variable, weight: float) -> None:
        """Accumulate ``weight`` onto the linear term of ``var``."""
        weight = self._check_weight(weight)
        self.add_variable(var)
        self._array_cache = None
        self._linear[var] += weight

    def add_quadratic(self, u: Variable, v: Variable, weight: float) -> None:
        """Accumulate ``weight`` onto the quadratic term between ``u`` and ``v``.

        Adding a quadratic term between a variable and itself folds into
        the linear term because ``x^2 = x`` for binary variables.
        """
        weight = self._check_weight(weight)
        if u == v:
            self.add_linear(u, weight)
            return
        self.add_variable(u)
        self.add_variable(v)
        self._array_cache = None
        key = self._edge_key(u, v)
        self._quadratic[key] = self._quadratic.get(key, 0.0) + weight
        self._adjacency[u][v] = self._adjacency[u].get(v, 0.0) + weight
        self._adjacency[v][u] = self._adjacency[v].get(u, 0.0) + weight

    def add_offset(self, value: float) -> None:
        """Accumulate a constant offset onto the energy."""
        self.offset += self._check_weight(value)

    @staticmethod
    def _edge_key(u: Variable, v: Variable) -> Edge:
        # A deterministic canonical order for the pair; fall back to repr
        # ordering when the labels are not mutually comparable.
        try:
            return (u, v) if u <= v else (v, u)  # type: ignore[operator]
        except TypeError:
            return (u, v) if repr(u) <= repr(v) else (v, u)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> List[Variable]:
        """All variables in insertion order."""
        if self._pending is not None:
            return list(self._pending[0])
        return list(self._linear)

    @property
    def num_variables(self) -> int:
        """Number of variables."""
        if self._pending is not None:
            return len(self._pending[0])
        return len(self._linear)

    @property
    def num_interactions(self) -> int:
        """Number of non-zero quadratic entries."""
        if self._pending is not None:
            return len(self._pending[3])
        return len(self._quadratic)

    def interactions(self) -> List[Edge]:
        """The canonical ``(u, v)`` key of every quadratic term, in insertion order.

        The keys of :attr:`quadratic`, in the edge order of
        :meth:`to_arrays`, without materialising the per-term
        dictionaries of an array-built model.
        """
        if self._pending is None:
            return list(self._quadratic)
        variables, _, edges, _ = self._pending
        return [self._edge_key(variables[u], variables[v]) for u, v in edges.tolist()]

    @property
    def linear(self) -> Dict[Variable, float]:
        """Copy of the linear weights."""
        return dict(self._linear)

    @property
    def quadratic(self) -> Dict[Edge, float]:
        """Copy of the quadratic weights keyed by canonical pairs."""
        return dict(self._quadratic)

    def get_linear(self, var: Variable) -> float:
        """Linear weight of ``var`` (0.0 if the variable is unknown)."""
        return self._linear.get(var, 0.0)

    def get_quadratic(self, u: Variable, v: Variable) -> float:
        """Quadratic weight between ``u`` and ``v`` (0.0 if absent)."""
        if u == v:
            return 0.0
        return self._quadratic.get(self._edge_key(u, v), 0.0)

    def neighbors(self, var: Variable) -> Dict[Variable, float]:
        """Quadratic partners of ``var`` with their coupling weights."""
        return dict(self._adjacency.get(var, {}))

    def degree(self, var: Variable) -> int:
        """Number of variables coupled to ``var``."""
        return len(self._adjacency.get(var, {}))

    def max_degree(self) -> int:
        """Maximum coupling degree over all variables (0 for empty models)."""
        if not self._adjacency:
            return 0
        return max(len(partners) for partners in self._adjacency.values())

    def __contains__(self, var: Variable) -> bool:
        return var in self._linear

    def __iter__(self) -> Iterator[Variable]:
        if self._pending is not None:
            return iter(list(self._pending[0]))
        return iter(self._linear)

    def __len__(self) -> int:
        return self.num_variables

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QUBOModel {self.num_variables} variables, "
            f"{self.num_interactions} interactions, offset={self.offset:.3f}>"
        )

    # ------------------------------------------------------------------ #
    # Energy evaluation
    # ------------------------------------------------------------------ #
    def energy(self, assignment: Mapping[Variable, int]) -> float:
        """Energy of a single assignment (missing variables default to 0)."""
        total = self.offset
        for var, weight in self._linear.items():
            if weight and assignment.get(var, 0):
                total += weight
        for (u, v), weight in self._quadratic.items():
            if weight and assignment.get(u, 0) and assignment.get(v, 0):
                total += weight
        return total

    def energies(self, samples: np.ndarray, variable_order: Sequence[Variable]) -> np.ndarray:
        """Vectorised energies for a 2-D array of samples.

        Parameters
        ----------
        samples:
            Array of shape ``(num_samples, num_variables)`` with 0/1 entries.
        variable_order:
            The variable corresponding to each sample column.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != len(variable_order):
            raise QUBOError(
                f"samples must have shape (n, {len(variable_order)}), got {samples.shape}"
            )
        _, lin, edges, weights = self.to_arrays(variable_order)
        energies = samples @ lin + self.offset
        if len(weights):
            energies += (samples[:, edges[:, 0]] * samples[:, edges[:, 1]]) @ weights
        return energies

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def relabeled(self, mapping: Mapping[Variable, Variable]) -> "QUBOModel":
        """Return a copy with variables renamed according to ``mapping``.

        Variables absent from ``mapping`` keep their label.  The mapping
        must be injective on the model's variables.
        """
        new_labels = [mapping.get(v, v) for v in self._linear]
        if len(set(new_labels)) != len(new_labels):
            raise QUBOError("relabeling collapses distinct variables onto the same label")
        relabeled = QUBOModel(offset=self.offset)
        for var, weight in self._linear.items():
            relabeled.add_linear(mapping.get(var, var), weight)
        for (u, v), weight in self._quadratic.items():
            relabeled.add_quadratic(mapping.get(u, u), mapping.get(v, v), weight)
        return relabeled

    def copy(self) -> "QUBOModel":
        """Deep copy of the model."""
        return QUBOModel(self._linear, self._quadratic, self.offset)

    def scaled(self, factor: float) -> "QUBOModel":
        """Return a copy with all weights (and offset) multiplied by ``factor``."""
        factor = self._check_weight(factor)
        scaled = QUBOModel(offset=self.offset * factor)
        for var, weight in self._linear.items():
            scaled.add_linear(var, weight * factor)
        for (u, v), weight in self._quadratic.items():
            scaled.add_quadratic(u, v, weight * factor)
        return scaled

    def to_dense(self, variable_order: Sequence[Variable] | None = None) -> np.ndarray:
        """Upper-triangular dense matrix ``W`` with ``E(x) = x^T W x + offset``."""
        order = list(variable_order) if variable_order is not None else self.variables
        index = {var: i for i, var in enumerate(order)}
        matrix = np.zeros((len(order), len(order)))
        for var, weight in self._linear.items():
            matrix[index[var], index[var]] = weight
        for (u, v), weight in self._quadratic.items():
            i, j = index[u], index[v]
            if i > j:
                i, j = j, i
            matrix[i, j] += weight
        return matrix

    def to_arrays(
        self, variable_order: Sequence[Variable] | None = None
    ) -> Tuple[List[Variable], np.ndarray, np.ndarray, np.ndarray]:
        """Flat-array export of the model for the annealing hot path.

        Returns ``(variables, linear, edges, weights)`` where ``linear``
        has one entry per variable, ``edges`` is an ``(m, 2)`` int64
        array of variable *indices* (each interaction appears exactly
        once, in the model's insertion order) and ``weights`` holds the
        matching quadratic weights.  Unlike :meth:`to_dense` the output
        size scales with the number of interactions, not with the square
        of the variable count.
        """
        cache = self._array_cache
        if cache is not None:
            cached_order, linear, edges, weights = cache
            if variable_order is None or list(variable_order) == cached_order:
                # Copies so callers can never corrupt the cached export.
                return list(cached_order), linear.copy(), edges.copy(), weights.copy()
        order = list(variable_order) if variable_order is not None else self.variables
        index = {var: i for i, var in enumerate(order)}
        missing = [var for var in self._linear if var not in index]
        if missing:
            raise QUBOError(f"variable_order is missing QUBO variables: {missing[:5]}")
        linear = np.zeros(len(order))
        for var, weight in self._linear.items():
            linear[index[var]] = weight
        num_edges = len(self._quadratic)
        edges = np.empty((num_edges, 2), dtype=np.int64)
        weights = np.empty(num_edges)
        for slot, ((u, v), weight) in enumerate(self._quadratic.items()):
            edges[slot, 0] = index[u]
            edges[slot, 1] = index[v]
            weights[slot] = weight
        if variable_order is None and self._pending is None:
            self._array_cache = (order, linear.copy(), edges.copy(), weights.copy())
        return order, linear, edges, weights

    def energy_range_bounds(self) -> Tuple[float, float]:
        """Loose lower/upper bounds on the reachable energy.

        The bounds simply accumulate all negative (resp. positive) weights
        and are used to sanity-check penalty scaling, not for optimisation.
        """
        low = self.offset
        high = self.offset
        for weight in self._linear.values():
            low += min(0.0, weight)
            high += max(0.0, weight)
        for weight in self._quadratic.values():
            low += min(0.0, weight)
            high += max(0.0, weight)
        return low, high

    def subinteractions(self, variables: Iterable[Variable]) -> "QUBOModel":
        """Restriction of the model to the given variable subset."""
        keep = set(variables)
        sub = QUBOModel(offset=self.offset)
        for var in keep:
            if var in self._linear:
                sub.add_linear(var, self._linear[var])
        for (u, v), weight in self._quadratic.items():
            if u in keep and v in keep:
                sub.add_quadratic(u, v, weight)
        return sub
