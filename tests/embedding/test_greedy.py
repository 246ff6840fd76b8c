"""Tests for the general greedy chain-growth embedder."""

import pytest

from repro.chimera.topology import ChimeraGraph
from repro.embedding.greedy import GreedyEmbedder
from repro.exceptions import EmbeddingError, EmbeddingNotFoundError


class TestGreedyEmbedder:
    def test_embeds_a_path_graph(self, small_chimera):
        interactions = [(i, i + 1) for i in range(9)]
        embedding = GreedyEmbedder(small_chimera).embed(interactions, seed=0)
        embedding.validate(small_chimera, interactions)
        assert embedding.num_variables == 10

    def test_embeds_a_cycle(self, small_chimera):
        interactions = [(i, (i + 1) % 8) for i in range(8)]
        embedding = GreedyEmbedder(small_chimera).embed(interactions, seed=1)
        embedding.validate(small_chimera, interactions)

    def test_embeds_small_clique(self, small_chimera):
        nodes = list(range(6))
        interactions = [(i, j) for i in nodes for j in nodes if i < j]
        embedding = GreedyEmbedder(small_chimera).embed(interactions, seed=2)
        embedding.validate(small_chimera, interactions)

    def test_embeds_random_sparse_graph(self, small_chimera):
        nx = pytest.importorskip("networkx")
        graph = nx.gnm_random_graph(12, 18, seed=5)
        interactions = list(graph.edges())
        embedding = GreedyEmbedder(small_chimera).embed(
            interactions, variables=list(graph.nodes()), seed=3
        )
        embedding.validate(small_chimera, interactions)
        assert embedding.num_variables == 12

    def test_isolated_variables_get_single_qubits(self, tiny_chimera):
        embedding = GreedyEmbedder(tiny_chimera).embed([], variables=["a", "b"], seed=0)
        assert embedding.chain_length("a") == 1
        assert embedding.chain_length("b") == 1

    def test_nothing_to_embed_raises(self, tiny_chimera):
        with pytest.raises(EmbeddingError):
            GreedyEmbedder(tiny_chimera).embed([])

    def test_self_interaction_rejected(self, tiny_chimera):
        with pytest.raises(EmbeddingError):
            GreedyEmbedder(tiny_chimera).embed([("a", "a")])

    def test_impossible_problem_raises(self):
        # A clique on 10 variables cannot embed into a single unit cell.
        topology = ChimeraGraph(1, 1)
        nodes = list(range(10))
        interactions = [(i, j) for i in nodes for j in nodes if i < j]
        with pytest.raises(EmbeddingNotFoundError):
            GreedyEmbedder(topology, max_attempts=2).embed(interactions, seed=0)

    def test_invalid_max_attempts(self, tiny_chimera):
        with pytest.raises(EmbeddingError):
            GreedyEmbedder(tiny_chimera, max_attempts=0)

    def test_deterministic_given_seed(self, small_chimera):
        interactions = [(i, i + 1) for i in range(5)]
        a = GreedyEmbedder(small_chimera).embed(interactions, seed=7)
        b = GreedyEmbedder(small_chimera).embed(interactions, seed=7)
        assert a.chains() == b.chains()
