"""Tests for query clustering (work-sharing communities)."""

import pytest

from repro.exceptions import InvalidProblemError
from repro.mqo.clustering import (
    cluster_queries,
    cross_cluster_savings,
    query_sharing_graph,
    split_oversized_clusters,
)
from repro.mqo.generator import generate_clustered_problem, generate_paper_testcase
from repro.mqo.problem import MQOProblem


class TestQuerySharingGraph:
    @pytest.fixture(autouse=True)
    def _needs_networkx(self):
        pytest.importorskip("networkx")

    def test_nodes_are_queries(self, small_problem):
        graph = query_sharing_graph(small_problem)
        assert set(graph.nodes) == {0, 1, 2, 3}

    def test_edge_weights_accumulate_savings(self):
        problem = MQOProblem(
            plans_per_query=[[1.0, 1.0], [1.0, 1.0]],
            savings={(0, 2): 2.0, (1, 3): 3.0},
        )
        graph = query_sharing_graph(problem)
        assert graph[0][1]["weight"] == pytest.approx(5.0)

    def test_no_savings_means_no_edges(self):
        problem = MQOProblem([[1.0], [2.0], [3.0]])
        assert query_sharing_graph(problem).number_of_edges() == 0


class TestSplitOversizedClusters:
    def test_split(self):
        assert split_oversized_clusters([[0, 1, 2, 3, 4]], 2) == [[0, 1], [2, 3], [4]]

    def test_no_split_needed(self):
        assert split_oversized_clusters([[0, 1], [2]], 5) == [[0, 1], [2]]

    def test_invalid_size(self):
        with pytest.raises(InvalidProblemError):
            split_oversized_clusters([[0]], 0)


class TestClusterQueries:
    def test_covers_every_query_once(self):
        problem = generate_paper_testcase(20, 2, seed=1)
        clusters = cluster_queries(problem)
        covered = sorted(q for cluster in clusters for q in cluster)
        assert covered == list(range(20))

    def test_singletons_without_savings(self):
        problem = MQOProblem([[1.0], [2.0], [3.0]])
        assert cluster_queries(problem) == [[0], [1], [2]]

    def test_respects_max_cluster_size(self):
        problem = generate_paper_testcase(30, 2, seed=2)
        clusters = cluster_queries(problem, max_cluster_size=5)
        assert all(len(cluster) <= 5 for cluster in clusters)

    def test_recovers_planted_clusters(self):
        """Dense intra-cluster sharing with no inter-cluster sharing is recovered."""
        problem = generate_clustered_problem(
            3, 4, 2, intra_cluster_density=1.0, inter_cluster_density=0.0, seed=3
        )
        clusters = cluster_queries(problem)
        planted = [set(range(c * 4, (c + 1) * 4)) for c in range(3)]
        recovered = [set(cluster) for cluster in clusters]
        for block in planted:
            assert block in recovered

    def test_deterministic(self):
        problem = generate_paper_testcase(15, 3, seed=4)
        assert cluster_queries(problem) == cluster_queries(problem)


class TestCrossClusterSavings:
    def test_planted_clusters_have_no_inter_savings(self):
        problem = generate_clustered_problem(
            2, 3, 2, intra_cluster_density=1.0, inter_cluster_density=0.0, seed=5
        )
        clusters = [[0, 1, 2], [3, 4, 5]]
        intra, inter = cross_cluster_savings(problem, clusters)
        assert inter == 0.0
        assert intra == pytest.approx(sum(problem.savings.values()))

    def test_totals_sum_to_all_savings(self):
        problem = generate_paper_testcase(12, 2, seed=6)
        clusters = cluster_queries(problem, max_cluster_size=4)
        intra, inter = cross_cluster_savings(problem, clusters)
        assert intra + inter == pytest.approx(sum(problem.savings.values()))

    def test_clustering_beats_arbitrary_split_on_intra_share(self):
        """Modularity clustering keeps at least as much savings inside clusters
        as an arbitrary contiguous split with the same size cap."""
        problem = generate_paper_testcase(24, 2, seed=7)
        smart = cluster_queries(problem, max_cluster_size=6)
        naive = [list(range(start, min(start + 6, 24))) for start in range(0, 24, 6)]
        smart_intra, _ = cross_cluster_savings(problem, smart)
        naive_intra, _ = cross_cluster_savings(problem, naive)
        assert smart_intra >= naive_intra * 0.5
