"""Chimera graph construction and coordinate arithmetic.

A Chimera graph ``C(rows, cols, shore)`` is a ``rows x cols`` grid of
unit cells.  Each unit cell is a complete bipartite graph
``K_{shore,shore}`` between a *left column* (shore 0) and a *right
column* (shore 1) of qubits.  Inter-cell couplers connect:

* left-column qubits to the same-position left-column qubit in the cells
  directly above and below, and
* right-column qubits to the same-position right-column qubit in the
  cells directly to the left and right,

matching the description of Figure 1 in the paper.  Each qubit has at
most ``shore + 2`` couplers (six for the standard ``shore = 4``).

Qubits are identified by linear indices

    index = ((row * cols) + col) * 2 * shore + column * shore + k

or equivalently by :class:`ChimeraCoordinate` tuples
``(row, col, column, k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.exceptions import TopologyError

if TYPE_CHECKING:  # pragma: no cover - networkx is an optional dependency
    import networkx as nx

__all__ = ["ChimeraCoordinate", "ChimeraGraph"]


@dataclass(frozen=True, order=True)
class ChimeraCoordinate:
    """Position of a qubit in the Chimera grid.

    Attributes
    ----------
    row / col:
        Unit-cell position in the grid.
    column:
        0 for the left column (vertical inter-cell couplers),
        1 for the right column (horizontal inter-cell couplers).
    k:
        Position within the column, ``0 <= k < shore``.
    """

    row: int
    col: int
    column: int
    k: int


class ChimeraGraph:
    """A Chimera topology with an optional set of broken (unusable) qubits.

    Parameters
    ----------
    rows / cols:
        Grid dimensions in unit cells.
    shore:
        Qubits per column in each unit cell (4 on all D-Wave machines).
    broken_qubits:
        Linear indices of qubits that are not functional.  Broken qubits
        and every coupler incident to them are removed from the usable
        graph, mirroring how the D-Wave system exposes its working graph.
    broken_couplers:
        Additional couplers (pairs of linear indices) that are broken even
        though both endpoints work.
    """

    def __init__(
        self,
        rows: int,
        cols: int | None = None,
        shore: int = 4,
        broken_qubits: Iterable[int] = (),
        broken_couplers: Iterable[Tuple[int, int]] = (),
    ) -> None:
        cols = rows if cols is None else cols
        if rows <= 0 or cols <= 0 or shore <= 0:
            raise TopologyError(
                f"Chimera dimensions must be positive, got rows={rows}, cols={cols}, "
                f"shore={shore}"
            )
        self.rows = rows
        self.cols = cols
        self.shore = shore

        self._num_qubits_total = rows * cols * 2 * shore
        self._broken_qubits: FrozenSet[int] = frozenset(int(q) for q in broken_qubits)
        for q in self._broken_qubits:
            if not 0 <= q < self._num_qubits_total:
                raise TopologyError(f"broken qubit index {q} out of range")

        self._broken_couplers: Set[Tuple[int, int]] = set()
        for u, v in broken_couplers:
            self._broken_couplers.add(self._canonical_edge(int(u), int(v)))

        self._adjacency: Dict[int, Set[int]] = {}
        self._build_adjacency()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _canonical_edge(u: int, v: int) -> Tuple[int, int]:
        if u == v:
            raise TopologyError(f"a coupler cannot connect qubit {u} to itself")
        return (u, v) if u < v else (v, u)

    def _build_adjacency(self) -> None:
        usable = set(range(self._num_qubits_total)) - self._broken_qubits
        self._adjacency = {q: set() for q in usable}
        for u, v in self._iter_all_couplers():
            if u in self._broken_qubits or v in self._broken_qubits:
                continue
            if self._canonical_edge(u, v) in self._broken_couplers:
                continue
            self._adjacency[u].add(v)
            self._adjacency[v].add(u)

    def _iter_all_couplers(self) -> Iterator[Tuple[int, int]]:
        """All couplers of the defect-free topology."""
        for row in range(self.rows):
            for col in range(self.cols):
                # Intra-cell: complete bipartite between the two columns.
                for k_left in range(self.shore):
                    left = self.coordinate_to_index(ChimeraCoordinate(row, col, 0, k_left))
                    for k_right in range(self.shore):
                        right = self.coordinate_to_index(
                            ChimeraCoordinate(row, col, 1, k_right)
                        )
                        yield left, right
                # Inter-cell vertical couplers (left column, towards the cell below).
                if row + 1 < self.rows:
                    for k in range(self.shore):
                        upper = self.coordinate_to_index(ChimeraCoordinate(row, col, 0, k))
                        lower = self.coordinate_to_index(
                            ChimeraCoordinate(row + 1, col, 0, k)
                        )
                        yield upper, lower
                # Inter-cell horizontal couplers (right column, towards the cell right).
                if col + 1 < self.cols:
                    for k in range(self.shore):
                        left_cell = self.coordinate_to_index(ChimeraCoordinate(row, col, 1, k))
                        right_cell = self.coordinate_to_index(
                            ChimeraCoordinate(row, col + 1, 1, k)
                        )
                        yield left_cell, right_cell

    # ------------------------------------------------------------------ #
    # Coordinates
    # ------------------------------------------------------------------ #
    def coordinate_to_index(self, coord: ChimeraCoordinate) -> int:
        """Linear index of a coordinate (validity is checked)."""
        if not (0 <= coord.row < self.rows and 0 <= coord.col < self.cols):
            raise TopologyError(f"cell ({coord.row}, {coord.col}) outside the grid")
        if coord.column not in (0, 1):
            raise TopologyError(f"column must be 0 or 1, got {coord.column}")
        if not 0 <= coord.k < self.shore:
            raise TopologyError(f"k must be in [0, {self.shore}), got {coord.k}")
        cell = coord.row * self.cols + coord.col
        return cell * 2 * self.shore + coord.column * self.shore + coord.k

    def index_to_coordinate(self, index: int) -> ChimeraCoordinate:
        """Coordinate of a linear qubit index (validity is checked)."""
        if not 0 <= index < self._num_qubits_total:
            raise TopologyError(f"qubit index {index} out of range")
        cell, within = divmod(index, 2 * self.shore)
        column, k = divmod(within, self.shore)
        row, col = divmod(cell, self.cols)
        return ChimeraCoordinate(row=row, col=col, column=column, k=k)

    def cell_qubits(self, row: int, col: int, include_broken: bool = False) -> List[int]:
        """Linear indices of the qubits in one unit cell."""
        qubits = [
            self.coordinate_to_index(ChimeraCoordinate(row, col, column, k))
            for column in (0, 1)
            for k in range(self.shore)
        ]
        if include_broken:
            return qubits
        return [q for q in qubits if q not in self._broken_qubits]

    # ------------------------------------------------------------------ #
    # Graph accessors
    # ------------------------------------------------------------------ #
    @property
    def num_cells(self) -> int:
        """Number of unit cells in the grid."""
        return self.rows * self.cols

    @property
    def num_qubits_total(self) -> int:
        """Number of qubit sites including broken ones."""
        return self._num_qubits_total

    @property
    def num_qubits(self) -> int:
        """Number of usable (non-broken) qubits."""
        return len(self._adjacency)

    @property
    def broken_qubits(self) -> FrozenSet[int]:
        """The broken qubit indices."""
        return self._broken_qubits

    @property
    def qubits(self) -> List[int]:
        """Sorted usable qubit indices."""
        return sorted(self._adjacency)

    def edges(self) -> List[Tuple[int, int]]:
        """Sorted usable couplers as canonical pairs."""
        seen: Set[Tuple[int, int]] = set()
        for u, partners in self._adjacency.items():
            for v in partners:
                seen.add(self._canonical_edge(u, v))
        return sorted(seen)

    @property
    def num_couplers(self) -> int:
        """Number of usable couplers."""
        return sum(len(p) for p in self._adjacency.values()) // 2

    def has_qubit(self, index: int) -> bool:
        """Whether ``index`` refers to a usable qubit."""
        return index in self._adjacency

    def has_coupler(self, u: int, v: int) -> bool:
        """Whether a usable coupler connects ``u`` and ``v``."""
        return u in self._adjacency and v in self._adjacency[u]

    def neighbors(self, index: int) -> Set[int]:
        """Usable neighbours of a qubit."""
        if index not in self._adjacency:
            raise TopologyError(f"qubit {index} is broken or out of range")
        return set(self._adjacency[index])

    # ------------------------------------------------------------------ #
    # Array tables (built once per topology; the graph never changes)
    # ------------------------------------------------------------------ #
    @cached_property
    def functional_mask(self) -> np.ndarray:
        """Read-only ``bool[num_qubits_total]``: whether each qubit site is usable."""
        mask = np.zeros(self._num_qubits_total, dtype=bool)
        mask[list(self._adjacency)] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def neighbor_table(self) -> np.ndarray:
        """Read-only ``(num_qubits_total, max_degree)`` usable neighbours, ``-1`` padded.

        Row ``q`` lists ``neighbors(q)`` in that set's iteration order, so
        a vectorised first-match search over a row finds the neighbour a
        loop over :meth:`neighbors` finds first.  Broken sites have
        all-padding rows.
        """
        table = np.full((self._num_qubits_total, max(self.max_degree(), 1)), -1, dtype=np.int64)
        for qubit in self._adjacency:
            partners = list(self.neighbors(qubit))
            table[qubit, : len(partners)] = partners
        table.setflags(write=False)
        return table

    @cached_property
    def _cell_positions(self) -> List[List[Tuple[int, int]]]:
        cells = []
        for row in range(self.rows):
            for col in range(self.cols):
                positions = []
                for k in range(self.shore):
                    left = self.coordinate_to_index(ChimeraCoordinate(row, col, 0, k))
                    right = self.coordinate_to_index(ChimeraCoordinate(row, col, 1, k))
                    if self.has_coupler(left, right):
                        positions.append((left, right))
                cells.append(positions)
        return cells

    def intact_positions(self, row: int, col: int) -> List[Tuple[int, int]]:
        """Usable ``(left_qubit, right_qubit)`` position pairs of one unit cell.

        Position ``k`` is intact when both of its qubits work and the
        coupler between them does.  Computed for every cell on first use.
        """
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise TopologyError(f"cell ({row}, {col}) outside the grid")
        return list(self._cell_positions[row * self.cols + col])

    def degree(self, index: int) -> int:
        """Number of usable couplers incident to a qubit."""
        return len(self.neighbors(index))

    def max_degree(self) -> int:
        """Maximum usable degree over all qubits."""
        if not self._adjacency:
            return 0
        return max(len(p) for p in self._adjacency.values())

    def to_networkx(self) -> "nx.Graph":
        """The usable topology as a :class:`networkx.Graph` (with coordinates).

        Requires the optional networkx package.
        """
        import networkx as nx

        graph = nx.Graph()
        for q in self.qubits:
            graph.add_node(q, chimera_coordinate=self.index_to_coordinate(q))
        graph.add_edges_from(self.edges())
        return graph

    def with_defects(
        self,
        broken_qubits: Iterable[int],
        broken_couplers: Iterable[Tuple[int, int]] = (),
    ) -> "ChimeraGraph":
        """A copy of this topology with additional defects applied."""
        return ChimeraGraph(
            rows=self.rows,
            cols=self.cols,
            shore=self.shore,
            broken_qubits=set(self._broken_qubits) | {int(q) for q in broken_qubits},
            broken_couplers=set(self._broken_couplers)
            | {self._canonical_edge(int(u), int(v)) for u, v in broken_couplers},
        )

    def render_ascii(self, max_cells: int = 4) -> str:
        """A small ASCII rendering of the first ``max_cells`` x ``max_cells`` cells.

        Used by the Figure 1 benchmark to visualise the structure; broken
        qubits are marked with ``x``.
        """
        rows = min(self.rows, max_cells)
        cols = min(self.cols, max_cells)
        lines: List[str] = []
        for row in range(rows):
            for k in range(self.shore):
                cells = []
                for col in range(cols):
                    left = self.coordinate_to_index(ChimeraCoordinate(row, col, 0, k))
                    right = self.coordinate_to_index(ChimeraCoordinate(row, col, 1, k))
                    left_mark = "x" if left in self._broken_qubits else "o"
                    right_mark = "x" if right in self._broken_qubits else "o"
                    cells.append(f"{left_mark}={right_mark}")
                lines.append("   ".join(cells))
            lines.append("")
        return "\n".join(lines).rstrip()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ChimeraGraph C({self.rows},{self.cols},{self.shore}): "
            f"{self.num_qubits}/{self.num_qubits_total} qubits, "
            f"{self.num_couplers} couplers>"
        )
