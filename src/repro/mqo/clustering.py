"""Query clustering based on work-sharing structure (array-native).

The paper's physical mapping exploits a clustering of queries "based on
structural properties in a preprocessing step such that queries in
different clusters are less likely to share intermediate results"
(Section 5, citing Le et al.).  This module provides that preprocessing
step over the columnar :class:`~repro.mqo.arrays.ProblemArrays` view:

1. the savings triplets are aggregated into weighted query-pair edges in
   one vectorised pass (:meth:`ProblemArrays.query_edges`),
2. connected components of that query graph are found with a union-find
   sweep — queries in different components provably share nothing, so
   components are the ideal cut,
3. components larger than the size cap are split by a greedy heavy-edge
   agglomeration (the query-intersection-graph style partition): each
   chunk grows from its strongest remaining member by repeatedly pulling
   in the neighbour with the largest total savings into the chunk, so
   heavy sharing edges stay inside chunks and only light edges are cut.

The old networkx greedy-modularity pass scaled as the community
algorithm's superlinear cost over a Python object graph and took minutes
at 50k plans; this path is a few milliseconds of NumPy plus an
O(E log E) Python sweep over the (much smaller) query-edge list.

Two uses inside this library:

* the clustered embedding pattern places one TRIAD per cluster,
* the decomposition solver (:mod:`repro.core.decomposition`) solves one
  QUBO per cluster, which is the paper's proposed route to problems that
  exceed the qubit budget.

:func:`query_sharing_graph` (the networkx view) is kept for inspection
and compatibility; the clustering itself no longer builds it.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidProblemError
from repro.mqo.problem import MQOProblem

if TYPE_CHECKING:  # pragma: no cover - networkx is an optional dependency
    import networkx as nx

__all__ = [
    "query_sharing_graph",
    "query_components",
    "cluster_queries",
    "cluster_edges",
    "internal_weights",
    "split_oversized_clusters",
    "split_component",
    "cross_cluster_savings",
]


def query_sharing_graph(problem: MQOProblem) -> "nx.Graph":
    """The weighted query-interaction graph (networkx view, for inspection).

    Nodes are query indices; an edge carries the accumulated savings
    between plans of the two queries.  Requires the optional networkx
    package.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(query.index for query in problem.queries)
    q1, q2, weight = problem.arrays().query_edges()
    for a, b, w in zip(q1.tolist(), q2.tolist(), weight.tolist()):
        graph.add_edge(a, b, weight=w)
    return graph


# ---------------------------------------------------------------------- #
# Connected components (union-find over the query-edge list)
# ---------------------------------------------------------------------- #
def _find(parent: np.ndarray, node: int) -> int:
    """Union-find root of ``node`` with path halving."""
    while parent[node] != node:
        parent[node] = parent[parent[node]]
        node = parent[node]
    return int(node)


def query_components(problem: MQOProblem) -> List[List[int]]:
    """Connected components of the query-sharing graph, as sorted lists.

    Components are returned sorted by their smallest query index;
    queries that share nothing with anyone form singleton components.
    """
    arrays = problem.arrays()
    parent = np.arange(arrays.num_queries, dtype=np.int64)
    q1, q2, _ = arrays.query_edges()
    for a, b in zip(q1.tolist(), q2.tolist()):
        root_a = _find(parent, a)
        root_b = _find(parent, b)
        if root_a != root_b:
            if root_a < root_b:  # smaller index wins: deterministic roots
                parent[root_b] = root_a
            else:
                parent[root_a] = root_b
    members: Dict[int, List[int]] = {}
    for node in range(arrays.num_queries):
        members.setdefault(_find(parent, node), []).append(node)
    return [members[root] for root in sorted(members)]


# ---------------------------------------------------------------------- #
# Size-capped splitting
# ---------------------------------------------------------------------- #
def split_oversized_clusters(
    clusters: Sequence[Sequence[int]], max_cluster_size: int
) -> List[List[int]]:
    """Split clusters larger than ``max_cluster_size`` into contiguous chunks."""
    if max_cluster_size <= 0:
        raise InvalidProblemError(f"max_cluster_size must be positive, got {max_cluster_size}")
    result: List[List[int]] = []
    for cluster in clusters:
        members = list(cluster)
        for start in range(0, len(members), max_cluster_size):
            result.append(members[start : start + max_cluster_size])
    return result


def split_component(
    members: Sequence[int],
    adjacency: Dict[int, Dict[int, float]],
    max_cluster_size: int,
) -> List[List[int]]:
    """Split one connected component into size-capped chunks.

    Greedy heavy-edge agglomeration: each chunk is seeded with the
    remaining member of the largest total edge weight (ties to the
    smallest index, so the split is deterministic) and grown by
    repeatedly absorbing the unassigned neighbour with the largest total
    weight into the chunk.  Heavy edges end up inside chunks; only the
    lighter fringe is cut.
    """
    if max_cluster_size <= 0:
        raise InvalidProblemError(f"max_cluster_size must be positive, got {max_cluster_size}")
    remaining = set(members)
    strength = {
        node: sum(adjacency.get(node, {}).values()) for node in members
    }
    # Seeds in strength-descending order, smallest index first on ties.
    seed_order = sorted(members, key=lambda node: (-strength[node], node))
    chunks: List[List[int]] = []
    for seed in seed_order:
        if seed not in remaining:
            continue
        chunk = [seed]
        remaining.discard(seed)
        # Max-heap of (weight-to-chunk, node); lazily updated — stale
        # entries are skipped, improved ones pushed again.
        gain: Dict[int, float] = {}
        heap: List[Tuple[float, int]] = []
        for neighbour, weight in adjacency.get(seed, {}).items():
            if neighbour in remaining:
                gain[neighbour] = weight
                heapq.heappush(heap, (-weight, neighbour))
        while len(chunk) < max_cluster_size and heap:
            negative_weight, node = heapq.heappop(heap)
            if node not in remaining or gain.get(node, 0.0) != -negative_weight:
                continue  # stale entry
            chunk.append(node)
            remaining.discard(node)
            for neighbour, weight in adjacency.get(node, {}).items():
                if neighbour in remaining:
                    gain[neighbour] = gain.get(neighbour, 0.0) + weight
                    heapq.heappush(heap, (-gain[neighbour], neighbour))
        chunks.append(sorted(chunk))
    return chunks


def _component_adjacency(
    q1: np.ndarray, q2: np.ndarray, weight: np.ndarray
) -> Dict[int, Dict[int, float]]:
    """Adjacency dictionaries of the aggregated query graph."""
    adjacency: Dict[int, Dict[int, float]] = {}
    for a, b, w in zip(q1.tolist(), q2.tolist(), weight.tolist()):
        adjacency.setdefault(a, {})[b] = w
        adjacency.setdefault(b, {})[a] = w
    return adjacency


# ---------------------------------------------------------------------- #
# The partitioner
# ---------------------------------------------------------------------- #
def cluster_queries(
    problem: MQOProblem,
    max_cluster_size: int | None = None,
) -> List[List[int]]:
    """Partition the queries into work-sharing clusters.

    Clusters are the connected components of the query-sharing graph;
    queries that share nothing with anyone form singleton clusters.
    When ``max_cluster_size`` is given, larger components are split by
    greedy heavy-edge agglomeration (:func:`split_component`) so every
    cluster respects the limit (needed when each cluster must fit a
    device sub-region or sub-QUBO).

    The returned clusters are sorted by their smallest query index
    (the *canonical* cluster order — callers that solve in a different
    order must record that order separately, see
    :class:`~repro.core.decomposition.DecompositionResult`) and together
    cover every query exactly once.
    """
    if max_cluster_size is not None and max_cluster_size <= 0:
        raise InvalidProblemError(f"max_cluster_size must be positive, got {max_cluster_size}")
    components = query_components(problem)
    if max_cluster_size is None:
        clusters = components
    else:
        oversized = [c for c in components if len(c) > max_cluster_size]
        clusters = [c for c in components if len(c) <= max_cluster_size]
        if oversized:
            q1, q2, weight = problem.arrays().query_edges()
            adjacency = _component_adjacency(q1, q2, weight)
            for component in oversized:
                clusters.extend(split_component(component, adjacency, max_cluster_size))
    clusters.sort(key=lambda cluster: cluster[0])

    covered = [q for cluster in clusters for q in cluster]
    if sorted(covered) != list(range(problem.num_queries)):
        raise InvalidProblemError("clustering failed to cover every query exactly once")
    return clusters


def _cluster_of_queries(
    problem: MQOProblem, clusters: Sequence[Sequence[int]]
) -> np.ndarray:
    """int64[|Q|] — cluster index per query (``len(clusters)`` = unassigned)."""
    cluster_of = np.full(problem.num_queries, len(clusters), dtype=np.int64)
    for index, cluster in enumerate(clusters):
        for query in cluster:
            if not 0 <= query < problem.num_queries:
                raise InvalidProblemError(f"cluster {index} names unknown query {query}")
            cluster_of[query] = index
    return cluster_of


def internal_weights(
    problem: MQOProblem, clusters: Sequence[Sequence[int]]
) -> np.ndarray:
    """float64[len(clusters)] — total savings internal to each cluster.

    One segmented pass over the savings triplets: a pair contributes to
    cluster ``k`` exactly when both its endpoint queries live in cluster
    ``k``.  Per-cluster sums accumulate in savings insertion order —
    bit-identical to the legacy per-cluster Python loop over
    ``problem.interaction_pairs()``.
    """
    arrays = problem.arrays()
    num_clusters = len(clusters)
    if arrays.num_savings == 0 or num_clusters == 0:
        return np.zeros(num_clusters)
    cluster_of = _cluster_of_queries(problem, clusters)
    qa, qb = arrays.savings_query_pair
    ca = cluster_of[qa]
    mask = ca == cluster_of[qb]
    # The sentinel bucket (queries outside every cluster) is sliced off.
    weights = np.bincount(
        ca[mask], weights=arrays.savings_value[mask], minlength=num_clusters + 1
    )
    return weights[:num_clusters]


def cluster_edges(
    problem: MQOProblem, clusters: Sequence[Sequence[int]]
) -> List[Tuple[int, int]]:
    """Cluster pairs connected by at least one savings pair.

    The returned edges are ``(a, b)`` with ``a < b`` (cluster indices in
    the given order), sorted — this is the dependency structure the wave
    scheduler conditions on: clusters without an edge can be solved in
    parallel with no loss versus the sequential schedule.
    """
    arrays = problem.arrays()
    if arrays.num_savings == 0:
        return []
    cluster_of = _cluster_of_queries(problem, clusters)
    qa, qb = arrays.savings_query_pair
    ca = cluster_of[qa]
    cb = cluster_of[qb]
    mask = (ca != cb) & (ca < len(clusters)) & (cb < len(clusters))
    if not mask.any():
        return []
    lo = np.minimum(ca[mask], cb[mask])
    hi = np.maximum(ca[mask], cb[mask])
    keys = np.unique(lo * np.int64(len(clusters)) + hi)
    return [
        (int(key // len(clusters)), int(key % len(clusters))) for key in keys
    ]


def cross_cluster_savings(
    problem: MQOProblem, clusters: Sequence[Sequence[int]]
) -> Tuple[float, float]:
    """Savings volume inside versus across clusters.

    Returns ``(intra, inter)`` — the total savings between plans whose
    queries share a cluster and the total savings crossing cluster
    boundaries (pairs touching a query outside every cluster count as
    crossing).  A good clustering keeps ``inter`` small; the
    decomposition solver can only realise intra-cluster savings exactly.
    """
    arrays = problem.arrays()
    if arrays.num_savings == 0:
        return 0.0, 0.0
    cluster_of = _cluster_of_queries(problem, clusters)
    qa, qb = arrays.savings_query_pair
    ca = cluster_of[qa]
    mask = (ca == cluster_of[qb]) & (ca < len(clusters))
    intra = float(arrays.savings_value[mask].sum())
    inter = float(arrays.savings_value[~mask].sum())
    return intra, inter
