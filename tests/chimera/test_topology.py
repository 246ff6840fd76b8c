"""Tests for the Chimera topology model (paper Figure 1 structure)."""

import pytest

from repro.chimera.topology import ChimeraCoordinate, ChimeraGraph
from repro.exceptions import TopologyError


class TestConstruction:
    def test_counts_of_c2(self, tiny_chimera):
        # 2x2 cells x 8 qubits = 32 qubits.
        assert tiny_chimera.num_qubits_total == 32
        assert tiny_chimera.num_qubits == 32
        assert tiny_chimera.num_cells == 4

    def test_coupler_count_of_c2(self, tiny_chimera):
        # Intra-cell: 4 cells x 16 = 64. Inter-cell: 2 vertical pairs x 4 +
        # 2 horizontal pairs x 4 = 16. Total 80.
        assert tiny_chimera.num_couplers == 80

    def test_dwave2x_dimensions(self):
        full = ChimeraGraph(12, 12)
        assert full.num_qubits_total == 1152
        assert full.num_cells == 144

    def test_invalid_dimensions(self):
        with pytest.raises(TopologyError):
            ChimeraGraph(0, 2)
        with pytest.raises(TopologyError):
            ChimeraGraph(2, 2, shore=0)

    def test_rectangular_grid(self):
        graph = ChimeraGraph(2, 3)
        assert graph.num_cells == 6
        assert graph.num_qubits_total == 48


class TestDegreeStructure:
    def test_max_degree_is_six(self):
        graph = ChimeraGraph(3, 3)
        assert graph.max_degree() == 6

    def test_every_qubit_has_degree_at_most_six(self):
        graph = ChimeraGraph(3, 3)
        assert all(graph.degree(q) <= 6 for q in graph.qubits)

    def test_intra_cell_structure_is_complete_bipartite(self, tiny_chimera):
        cell = tiny_chimera.cell_qubits(0, 0)
        left, right = cell[:4], cell[4:]
        for l_qubit in left:
            for r_qubit in right:
                assert tiny_chimera.has_coupler(l_qubit, r_qubit)
        # No couplers within a column.
        for i in range(4):
            for j in range(i + 1, 4):
                assert not tiny_chimera.has_coupler(left[i], left[j])
                assert not tiny_chimera.has_coupler(right[i], right[j])

    def test_left_column_couples_vertically(self, tiny_chimera):
        upper = tiny_chimera.coordinate_to_index(ChimeraCoordinate(0, 0, 0, 2))
        lower = tiny_chimera.coordinate_to_index(ChimeraCoordinate(1, 0, 0, 2))
        assert tiny_chimera.has_coupler(upper, lower)

    def test_right_column_couples_horizontally(self, tiny_chimera):
        left_cell = tiny_chimera.coordinate_to_index(ChimeraCoordinate(0, 0, 1, 3))
        right_cell = tiny_chimera.coordinate_to_index(ChimeraCoordinate(0, 1, 1, 3))
        assert tiny_chimera.has_coupler(left_cell, right_cell)

    def test_no_cross_column_inter_cell_couplers(self, tiny_chimera):
        left_col = tiny_chimera.coordinate_to_index(ChimeraCoordinate(0, 0, 0, 0))
        right_col_next_row = tiny_chimera.coordinate_to_index(ChimeraCoordinate(1, 0, 1, 0))
        assert not tiny_chimera.has_coupler(left_col, right_col_next_row)

    def test_chimera_graph_is_bipartite(self):
        nx = pytest.importorskip("networkx")

        graph = ChimeraGraph(3, 3).to_networkx()
        assert nx.is_bipartite(graph)

    def test_chimera_graph_is_connected(self):
        nx = pytest.importorskip("networkx")

        graph = ChimeraGraph(3, 3).to_networkx()
        assert nx.is_connected(graph)


class TestCoordinates:
    def test_roundtrip_all_qubits(self, tiny_chimera):
        for q in range(tiny_chimera.num_qubits_total):
            coord = tiny_chimera.index_to_coordinate(q)
            assert tiny_chimera.coordinate_to_index(coord) == q

    def test_out_of_range_coordinate(self, tiny_chimera):
        with pytest.raises(TopologyError):
            tiny_chimera.coordinate_to_index(ChimeraCoordinate(5, 0, 0, 0))
        with pytest.raises(TopologyError):
            tiny_chimera.coordinate_to_index(ChimeraCoordinate(0, 0, 2, 0))
        with pytest.raises(TopologyError):
            tiny_chimera.coordinate_to_index(ChimeraCoordinate(0, 0, 0, 4))

    def test_out_of_range_index(self, tiny_chimera):
        with pytest.raises(TopologyError):
            tiny_chimera.index_to_coordinate(32)

    def test_cell_qubits(self, tiny_chimera):
        qubits = tiny_chimera.cell_qubits(1, 1)
        assert len(qubits) == 8
        coords = [tiny_chimera.index_to_coordinate(q) for q in qubits]
        assert all(c.row == 1 and c.col == 1 for c in coords)


class TestDefects:
    def test_broken_qubits_removed(self):
        graph = ChimeraGraph(2, 2, broken_qubits=[0, 5])
        assert graph.num_qubits == 30
        assert not graph.has_qubit(0)
        assert 0 in graph.broken_qubits

    def test_broken_qubit_couplers_removed(self):
        graph = ChimeraGraph(2, 2, broken_qubits=[0])
        for q in graph.qubits:
            assert 0 not in graph.neighbors(q)

    def test_broken_coupler(self):
        base = ChimeraGraph(1, 1)
        u, v = base.edges()[0]
        graph = ChimeraGraph(1, 1, broken_couplers=[(u, v)])
        assert not graph.has_coupler(u, v)
        assert graph.has_qubit(u) and graph.has_qubit(v)

    def test_with_defects_copy(self, tiny_chimera):
        defective = tiny_chimera.with_defects([3])
        assert tiny_chimera.has_qubit(3)
        assert not defective.has_qubit(3)

    def test_broken_index_out_of_range(self):
        with pytest.raises(TopologyError):
            ChimeraGraph(1, 1, broken_qubits=[99])

    def test_neighbors_of_broken_qubit_raises(self):
        graph = ChimeraGraph(1, 1, broken_qubits=[2])
        with pytest.raises(TopologyError):
            graph.neighbors(2)

    def test_self_coupler_rejected(self):
        with pytest.raises(TopologyError):
            ChimeraGraph(1, 1, broken_couplers=[(1, 1)])


class TestRendering:
    def test_ascii_rendering_marks_broken(self):
        graph = ChimeraGraph(2, 2, broken_qubits=[0])
        art = graph.render_ascii()
        assert "x" in art
        assert "o" in art

    def test_ascii_rendering_shape(self, tiny_chimera):
        art = tiny_chimera.render_ascii(max_cells=2)
        # 2 cell-rows x 4 shore rows plus a blank line between cell rows.
        assert len([line for line in art.splitlines() if line.strip()]) == 8
