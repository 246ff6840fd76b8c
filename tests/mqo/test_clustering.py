"""Tests for query clustering (work-sharing communities)."""

from repro.mqo.clustering import cluster_queries, internal_weights
from repro.mqo.generator import generate_clustered_problem, generate_paper_testcase
from repro.mqo.problem import MQOProblem


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
    def test_clustering_beats_arbitrary_split_on_intra_share(self):
        """Modularity clustering keeps at least as much savings inside clusters
        as an arbitrary contiguous split with the same size cap."""
        problem = generate_paper_testcase(24, 2, seed=7)
        smart = cluster_queries(problem, max_cluster_size=6)
        naive = [list(range(start, min(start + 6, 24))) for start in range(0, 24, 6)]
        smart_intra = internal_weights(problem, smart).sum()
        naive_intra = internal_weights(problem, naive).sum()
        assert smart_intra >= naive_intra * 0.5
