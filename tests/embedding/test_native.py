"""Tests for the compact per-cell (native) embedder."""

import pytest

from repro.chimera.defects import DefectModel
from repro.chimera.topology import ChimeraGraph
from repro.embedding.native import NativeClusteredEmbedder
from repro.exceptions import EmbeddingError, EmbeddingNotFoundError


def _clusters(num_queries, plans_per_query):
    return [
        [q * plans_per_query + j for j in range(plans_per_query)] for q in range(num_queries)
    ]


class TestCapacity:
    def test_capacity_matches_paper_scale_on_perfect_chimera(self):
        embedder = NativeClusteredEmbedder(ChimeraGraph(12, 12))
        # Perfect 12x12 Chimera: 144 cells x 4 positions.
        assert embedder.capacity(2) == 576
        assert embedder.capacity(3) == 288
        # 4 and 5 plans both need a dedicated cell per query (3 resp. 4
        # of the 4 positions), hence 144 queries on a perfect grid --
        # bracketing the paper's 140 (4 plans) and 108 (5 plans) on its
        # defective machine.
        assert embedder.capacity(4) == 144
        assert embedder.capacity(5) == 144

    def test_capacity_with_paper_yield_is_close_to_paper_numbers(self):
        topology = DefectModel().apply(ChimeraGraph(12, 12), seed=0)
        embedder = NativeClusteredEmbedder(topology)
        # The paper reports 537 queries for 2 plans and 108 for 5 plans on
        # its specific machine; our defect sample should land in the same
        # ballpark (broken qubits reduce the perfect-yield capacity).
        assert 480 <= embedder.capacity(2) <= 576
        assert 90 <= embedder.capacity(5) <= 144

    def test_oversized_cluster_capacity_is_zero(self, small_chimera):
        assert NativeClusteredEmbedder(small_chimera).capacity(6) == 0

    def test_qubits_per_variable_increases_with_cluster_size(self, small_chimera):
        embedder = NativeClusteredEmbedder(small_chimera)
        ratios = [embedder.qubits_per_variable(size) for size in (2, 3, 4, 5)]
        assert ratios == sorted(ratios)
        assert ratios[0] == pytest.approx(1.0)
        assert ratios[-1] <= 2.0

    def test_qubits_per_variable_invalid(self, small_chimera):
        with pytest.raises(EmbeddingError):
            NativeClusteredEmbedder(small_chimera).qubits_per_variable(0)


class TestSerpentine:
    def test_serpentine_covers_all_cells(self, small_chimera):
        cells = list(NativeClusteredEmbedder(small_chimera).serpentine_cells())
        assert len(cells) == 16
        assert len(set(cells)) == 16

    def test_serpentine_consecutive_cells_adjacent(self, small_chimera):
        cells = list(NativeClusteredEmbedder(small_chimera).serpentine_cells())
        for (r1, c1), (r2, c2) in zip(cells, cells[1:]):
            assert abs(r1 - r2) + abs(c1 - c2) == 1

    def test_intact_positions_of_perfect_cell(self, small_chimera):
        positions = small_chimera.intact_positions(0, 0)
        assert len(positions) == 4

    def test_intact_positions_with_broken_qubit(self):
        topology = ChimeraGraph(2, 2, broken_qubits=[0])  # left qubit of position 0
        positions = topology.intact_positions(0, 0)
        assert len(positions) == 3


class TestEmbedding:
    @pytest.mark.parametrize("plans_per_query", [2, 3, 4, 5])
    def test_intra_query_cliques_realised(self, small_chimera, plans_per_query):
        clusters = _clusters(4, plans_per_query)
        embedding = NativeClusteredEmbedder(small_chimera).embed(clusters)
        for cluster in clusters:
            for i in range(len(cluster)):
                for j in range(i + 1, len(cluster)):
                    assert (
                        embedding.coupler_between(cluster[i], cluster[j], small_chimera)
                        is not None
                    )

    def test_multiple_small_queries_share_a_cell(self, small_chimera):
        clusters = _clusters(4, 2)
        embedding = NativeClusteredEmbedder(small_chimera).embed(clusters)
        # Four 2-plan queries need exactly one cell (8 qubits).
        cells = {
            small_chimera.index_to_coordinate(q).row * 10
            + small_chimera.index_to_coordinate(q).col
            for q in embedding.used_qubits()
        }
        assert len(cells) == 1

    def test_capacity_exhaustion_raises(self, tiny_chimera):
        clusters = _clusters(30, 2)  # 2x2 Chimera fits at most 16 such queries
        with pytest.raises(EmbeddingNotFoundError):
            NativeClusteredEmbedder(tiny_chimera).embed(clusters)

    def test_cluster_larger_than_cell_raises(self, small_chimera):
        with pytest.raises(EmbeddingNotFoundError):
            NativeClusteredEmbedder(small_chimera).embed([list(range(6))])

    def test_duplicate_variables_rejected(self, small_chimera):
        with pytest.raises(EmbeddingError):
            NativeClusteredEmbedder(small_chimera).embed([[0, 1], [1, 2]])

    @pytest.mark.parametrize("interactions", [[], [("a", "c")], [("c", "a"), ("a", "b")]])
    def test_intra_cluster_pairs_checked_once_listed_or_not(self, interactions):
        """The clique's pairs are checked whether or not the interactions list
        them; (0, 5) is the only coupler between the chains of a and c."""
        topology = ChimeraGraph(2, 2, broken_couplers=[(0, 5)])
        with pytest.raises(EmbeddingError, match="chains of 'a' and 'c'|chains of 'c' and 'a'"):
            NativeClusteredEmbedder(topology).embed([["a", "b", "c"]], interactions)

    def test_embedding_avoids_broken_qubits(self):
        topology = DefectModel(broken_fraction=0.1).apply(ChimeraGraph(4, 4), seed=3)
        clusters = _clusters(10, 3)
        embedding = NativeClusteredEmbedder(topology).embed(clusters)
        embedding.validate(topology)
        assert not (embedding.used_qubits() & set(topology.broken_qubits))

    def test_couplable_pairs_are_physical(self, small_chimera):
        clusters = _clusters(6, 2)
        embedder = NativeClusteredEmbedder(small_chimera)
        embedding = embedder.embed(clusters)
        for u, v in embedder.couplable_pairs(embedding):
            assert embedding.coupler_between(u, v, small_chimera) is not None

    def test_couplable_pairs_include_cross_query_links(self, small_chimera):
        clusters = _clusters(6, 2)
        embedder = NativeClusteredEmbedder(small_chimera)
        embedding = embedder.embed(clusters)
        pairs = embedder.couplable_pairs(embedding)
        cross = [
            (u, v)
            for u, v in pairs
            if u // 2 != v // 2  # different queries
        ]
        assert cross, "expected at least one couplable cross-query plan pair"
