"""Pinned answers of decomposed solves.

Each case fixes an instance, a cluster cap, the cluster solver, a
per-cluster budget and a seed, and pins the stitched cost and the sorted
selection.  GREEDY cluster solves are deterministic and QA cluster solves
spend their budget as a read count, so none of these answers depends on
the host; a change to partitioning, scheduling, conditioning or
stitching that moves an answer fails here.
"""

import pytest

from repro.core.decomposition import ParallelDecomposition
from repro.mqo.generator import generate_clustered_problem, generate_paper_testcase
from repro.service.cache import ResultCache
from repro.service.frontend import ServiceFrontend

#: (instance, cluster solvers, max cluster size, per-cluster budget ms,
#: seed, pinned cost, pinned sorted selection)
CASES = {
    "paper-greedy": (
        lambda: generate_paper_testcase(24, 3, seed=11),
        ("GREEDY",), 4, 50.0, 5, 53.0,
        [0, 3, 7, 9, 13, 15, 19, 22, 24, 29, 32, 34, 38, 39, 42, 47, 49, 53, 54, 59, 61, 64,
         68, 71],
    ),
    "clustered-greedy": (
        lambda: generate_clustered_problem(
            6, 4, 3, intra_cluster_density=0.8, inter_cluster_density=0.2, seed=12
        ),
        ("GREEDY",), 3, 50.0, 6, -72.0,
        [1, 4, 7, 11, 14, 16, 18, 21, 25, 27, 30, 33, 37, 39, 44, 46, 49, 52, 54, 57, 61, 64,
         67, 70],
    ),
    "paper-qa": (
        lambda: generate_paper_testcase(12, 2, seed=13),
        ("QA",), 4, 10.0, 7, 44.0,
        [1, 3, 4, 7, 8, 10, 12, 15, 16, 18, 21, 22],
    ),
    "clustered-qa": (
        lambda: generate_clustered_problem(
            4, 4, 3, intra_cluster_density=0.9, inter_cluster_density=0.3, seed=14
        ),
        ("QA",), 4, 10.0, 7, -42.0,
        [0, 4, 8, 11, 12, 15, 19, 23, 24, 29, 32, 33, 38, 39, 42, 46],
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_decomposed_answer_is_pinned(case, workers):
    make, solvers, cap, cluster_budget_ms, seed, cost, selection = CASES[case]
    pipeline = ParallelDecomposition(
        frontend=ServiceFrontend(cache=ResultCache(capacity=8)),
        max_cluster_size=cap,
        cluster_solvers=solvers,
        max_workers=workers,
        cluster_budget_ms=cluster_budget_ms,
    )
    outcome = pipeline.decompose(make(), time_budget_ms=1000.0, seed=seed)
    assert not outcome.errors
    assert outcome.num_waves > 1  # conditioning takes part in every case
    assert (outcome.best_cost, sorted(outcome.solution.selected_plans)) == (cost, selection)
