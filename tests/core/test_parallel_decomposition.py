"""Tests for the parallel partition–solve–stitch pipeline.

Covers the wave scheduler, the vectorised internal-weight ordering (an
equality check against the legacy per-cluster loop), the decomposition
progress hook, and — via hypothesis — the stitch contract: the merged
solution selects exactly one plan per query, costs exactly what
``problem.solution_from_selection`` says, never exceeds the
no-sharing-across-components bound, and is byte-deterministic under a
fixed seed regardless of cluster completion order.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.decomposition import (
    DecomposedAnytimeSolver,
    DecomposedQuantumMQO,
    ParallelDecomposition,
    build_wave_schedule,
    current_progress_observers,
    observe_decomposition_progress,
)
from repro.exceptions import InvalidProblemError, SolverError
from repro.mqo.clustering import cluster_edges, cluster_queries, internal_weights
from repro.mqo.generator import generate_clustered_problem, generate_paper_testcase
from repro.mqo.problem import MQOProblem
from repro.service.cache import ResultCache
from repro.service.frontend import ServiceFrontend


@st.composite
def stitchable_problems(draw):
    """Small random MQO problems with non-trivial sharing structure."""
    num_queries = draw(st.integers(min_value=2, max_value=8))
    plans_per_query = [
        [
            float(draw(st.integers(min_value=0, max_value=30)))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        ]
        for _ in range(num_queries)
    ]
    skeleton = MQOProblem(plans_per_query)
    plan_query = {p.index: p.query_index for p in skeleton.plans}
    candidates = [
        (p1, p2)
        for p1 in plan_query
        for p2 in plan_query
        if p1 < p2 and plan_query[p1] != plan_query[p2]
    ]
    savings = {}
    for pair in candidates:
        if draw(st.booleans()):
            savings[pair] = float(draw(st.integers(min_value=1, max_value=10)))
    return MQOProblem(plans_per_query, savings)


def _pipeline(max_workers, **kwargs):
    """A pipeline with an isolated frontend (no cross-run cache leaks)."""
    kwargs.setdefault("cluster_solvers", ("GREEDY",))
    kwargs.setdefault("max_cluster_size", 3)
    return ParallelDecomposition(
        frontend=ServiceFrontend(cache=ResultCache(capacity=8)),
        max_workers=max_workers,
        **kwargs,
    )


class TestWaveSchedule:
    def test_no_edges_is_one_wide_wave(self):
        schedule = build_wave_schedule(4, [], [3.0, 9.0, 1.0, 9.0])
        assert schedule.waves == [[0, 1, 2, 3]]
        assert schedule.solve_order == [1, 3, 0, 2]
        assert schedule.max_wave_size == 4

    def test_chain_of_dependencies_is_fully_sequential(self):
        schedule = build_wave_schedule(3, [(0, 1), (1, 2)], [5.0, 3.0, 1.0])
        assert schedule.solve_order == [0, 1, 2]
        assert schedule.waves == [[0], [1], [2]]

    def test_dependency_points_at_the_stronger_cluster(self):
        # Cluster 1 has the heavier internal sharing, so 0 waits for it.
        schedule = build_wave_schedule(2, [(0, 1)], [1.0, 5.0])
        assert schedule.solve_order == [1, 0]
        assert schedule.waves == [[1], [0]]

    def test_solve_order_matches_legacy_stable_sort(self):
        weights = [2.0, 7.0, 2.0, 7.0, 0.0]
        schedule = build_wave_schedule(5, [], weights)
        legacy = sorted(range(5), key=lambda i: weights[i], reverse=True)
        assert schedule.solve_order == legacy

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_waves_never_put_connected_clusters_together(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        weights = [float(data.draw(st.integers(0, 10))) for _ in range(n)]
        edges = sorted(
            {
                tuple(sorted(pair))
                for pair in data.draw(
                    st.lists(
                        st.tuples(
                            st.integers(0, n - 1), st.integers(0, n - 1)
                        ).filter(lambda p: p[0] != p[1]),
                        max_size=12,
                    )
                )
            }
        )
        schedule = build_wave_schedule(n, edges, weights)
        assert sorted(c for wave in schedule.waves for c in wave) == list(range(n))
        wave_of = {c: w for w, wave in enumerate(schedule.waves) for c in wave}
        rank = {c: r for r, c in enumerate(schedule.solve_order)}
        for a, b in edges:
            assert wave_of[a] != wave_of[b]
            earlier, later = (a, b) if rank[a] < rank[b] else (b, a)
            assert wave_of[earlier] < wave_of[later]


class TestInternalWeightVectorization:
    def test_matches_legacy_per_cluster_loop(self):
        problem = generate_clustered_problem(
            num_clusters=4,
            queries_per_cluster=3,
            plans_per_query=2,
            intra_cluster_density=0.7,
            inter_cluster_density=0.2,
            seed=11,
        )
        clusters = cluster_queries(problem, max_cluster_size=3)
        vectorized = internal_weights(problem, clusters)

        def legacy_internal_weight(cluster):
            cluster_set = set(cluster)
            weight = 0.0
            for (p1, p2), saving in problem.interaction_pairs():
                q1 = problem.plan(p1).query_index
                q2 = problem.plan(p2).query_index
                if q1 in cluster_set and q2 in cluster_set:
                    weight += saving
            return weight

        legacy = [legacy_internal_weight(cluster) for cluster in clusters]
        # Bit-identical, not approximately equal: the vectorised pass
        # accumulates in the same savings insertion order per cluster.
        assert vectorized.tolist() == legacy

    @given(stitchable_problems())
    @settings(max_examples=25, deadline=None)
    def test_solve_order_identical_to_legacy_sort(self, problem):
        clusters = cluster_queries(problem, max_cluster_size=3)
        weights = internal_weights(problem, clusters)
        vectorized_order = sorted(
            range(len(clusters)), key=lambda i: (-float(weights[i]), i)
        )
        legacy_order = sorted(
            range(len(clusters)), key=lambda i: float(weights[i]), reverse=True
        )
        assert vectorized_order == legacy_order


class TestStitchContract:
    @given(stitchable_problems(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_one_plan_per_query_and_exact_cost(self, problem, seed):
        outcome = _pipeline(max_workers=2).solve(problem, time_budget_ms=500.0, seed=seed)
        solution = outcome.solution
        assert solution.is_valid
        per_query = [problem.plan(p).query_index for p in solution.selected_plans]
        assert sorted(per_query) == list(range(problem.num_queries))
        reference = problem.solution_from_selection(sorted(solution.selected_plans))
        assert solution.cost == reference.cost

    @given(stitchable_problems(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_never_exceeds_no_cross_sharing_bound(self, problem, seed):
        outcome = _pipeline(max_workers=2).solve(problem, time_budget_ms=500.0, seed=seed)
        selected = sorted(outcome.solution.selected_plans)
        bound = sum(
            problem.selection_cost(
                [p for p in selected if problem.plan(p).query_index in set(cluster)]
            )
            for cluster in outcome.clusters
        )
        assert outcome.solution.cost <= bound + 1e-9

    @given(stitchable_problems(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_deterministic_regardless_of_completion_order(self, problem, seed):
        selections = []
        costs = []
        for workers in (1, 4, 4):
            outcome = _pipeline(max_workers=workers).solve(
                problem, time_budget_ms=500.0, seed=seed
            )
            selections.append(sorted(outcome.solution.selected_plans))
            costs.append(outcome.solution.cost)
        assert selections[0] == selections[1] == selections[2]
        assert costs[0] == costs[1] == costs[2]

    def test_trajectory_is_monotone_and_ends_at_the_solution(self):
        problem = generate_clustered_problem(
            num_clusters=5,
            queries_per_cluster=3,
            plans_per_query=2,
            intra_cluster_density=0.9,
            inter_cluster_density=0.1,
            seed=3,
        )
        outcome = _pipeline(max_workers=4).solve(problem, time_budget_ms=500.0, seed=9)
        costs = [cost for _, cost in outcome.trajectory.points]
        assert costs == sorted(costs, reverse=True)
        assert outcome.trajectory.best_solution is outcome.solution
        assert outcome.trajectory.points, "the baseline selection must be recorded"

    def test_failed_clusters_degrade_to_the_baseline(self):
        problem = generate_clustered_problem(
            num_clusters=3,
            queries_per_cluster=2,
            plans_per_query=2,
            intra_cluster_density=0.8,
            seed=5,
        )
        pipeline = _pipeline(max_workers=2, cluster_solvers=("no-such-solver",))
        outcome = pipeline.solve(problem, time_budget_ms=200.0, seed=1)
        assert len(outcome.errors) == outcome.num_clusters
        assert outcome.solution.is_valid
        arrays = problem.arrays()
        baseline = arrays.choices_to_plans(arrays.cheapest_choices())
        assert sorted(outcome.solution.selected_plans) == sorted(baseline.tolist())


class TestParallelDecompositionResult:
    def test_records_canonical_clusters_and_solve_order(self):
        problem = generate_clustered_problem(
            num_clusters=4,
            queries_per_cluster=3,
            plans_per_query=2,
            intra_cluster_density=0.9,
            seed=2,
        )
        outcome = _pipeline(max_workers=2, max_cluster_size=4).solve(
            problem, time_budget_ms=300.0, seed=0
        )
        assert outcome.clusters == [
            tuple(c) for c in cluster_queries(problem, max_cluster_size=4)
        ]
        assert sorted(outcome.solve_order) == list(range(outcome.num_clusters))
        # Independent clusters (inter density 0) collapse into one wave.
        assert outcome.num_waves == 1
        assert all(result is not None for result in outcome.cluster_results)

    def test_conditioned_clusters_span_multiple_waves(self):
        problem = generate_clustered_problem(
            num_clusters=4,
            queries_per_cluster=3,
            plans_per_query=2,
            intra_cluster_density=0.9,
            inter_cluster_density=0.4,
            seed=2,
        )
        outcome = _pipeline(max_workers=2, max_cluster_size=4).solve(
            problem, time_budget_ms=300.0, seed=0
        )
        edges = cluster_edges(problem, [list(c) for c in outcome.clusters])
        if edges:
            assert outcome.num_waves > 1

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(InvalidProblemError):
            ParallelDecomposition(max_cluster_size=0)
        with pytest.raises(SolverError):
            ParallelDecomposition(cluster_solvers=())
        with pytest.raises(SolverError):
            ParallelDecomposition(max_workers=0)
        with pytest.raises(SolverError):
            _pipeline(max_workers=1).solve(
                generate_paper_testcase(3, 2, seed=0), time_budget_ms=0.0
            )


class TestProgressObservers:
    def test_observers_install_per_thread_and_nest(self):
        seen = []
        assert current_progress_observers() == ()
        with observe_decomposition_progress(seen.append):
            assert len(current_progress_observers()) == 1
            with observe_decomposition_progress(seen.append):
                assert len(current_progress_observers()) == 2
            assert len(current_progress_observers()) == 1
        assert current_progress_observers() == ()

    def test_solve_reports_every_cluster_completion(self):
        problem = generate_clustered_problem(
            num_clusters=4,
            queries_per_cluster=2,
            plans_per_query=2,
            intra_cluster_density=0.8,
            seed=7,
        )
        events = []

        def observer(solver, completed, total):
            events.append((solver, completed, total))

        with observe_decomposition_progress(observer):
            outcome = _pipeline(max_workers=2).solve(problem, time_budget_ms=300.0, seed=4)
        assert len(events) == outcome.num_clusters
        assert [completed for _, completed, _ in events] == list(
            range(1, outcome.num_clusters + 1)
        )
        assert all(total == outcome.num_clusters for _, _, total in events)
        assert all(solver == "decomposed_qa" for solver, _, _ in events)

    def test_observer_exceptions_are_swallowed(self):
        problem = generate_clustered_problem(
            num_clusters=2,
            queries_per_cluster=2,
            plans_per_query=2,
            intra_cluster_density=0.8,
            seed=7,
        )

        def bad_observer(solver, completed, total):
            raise RuntimeError("misbehaving listener")

        with observe_decomposition_progress(bad_observer):
            outcome = _pipeline(max_workers=1).solve(problem, time_budget_ms=200.0, seed=4)
        assert outcome.solution.is_valid


class TestDecomposedAnytimeSolver:
    def test_returns_a_named_monotone_trajectory(self):
        problem = generate_clustered_problem(
            num_clusters=3,
            queries_per_cluster=2,
            plans_per_query=2,
            intra_cluster_density=0.8,
            seed=1,
        )
        solver = DecomposedAnytimeSolver(
            frontend=ServiceFrontend(cache=ResultCache(capacity=8))
        )
        trajectory = solver.solve(problem, time_budget_ms=400.0, seed=6)
        assert trajectory.solver_name == "decomposed_qa"
        assert trajectory.best_solution is not None
        assert trajectory.best_solution.is_valid
        assert trajectory.best_cost == trajectory.best_solution.cost

    def test_cluster_cap_shrinks_with_wide_queries(self):
        solver = DecomposedAnytimeSolver(max_cluster_size=32)
        narrow = generate_paper_testcase(6, 2, seed=0)
        wide = generate_paper_testcase(6, 40, seed=0)
        assert solver._cluster_cap(narrow) == 32
        assert 1 <= solver._cluster_cap(wide) < 32


class TestSequentialSolverStillAgrees:
    def test_sequential_conditioning_mode_matches_cluster_count(self):
        problem = generate_clustered_problem(
            num_clusters=4,
            queries_per_cluster=2,
            plans_per_query=2,
            intra_cluster_density=0.8,
            inter_cluster_density=0.3,
            seed=8,
        )
        outcome = _pipeline(
            max_workers=1, sequential_conditioning=True
        ).solve(problem, time_budget_ms=300.0, seed=2)
        assert outcome.num_waves == outcome.num_clusters
        assert outcome.solution.is_valid

    def test_legacy_result_records_solve_order(self):
        problem = generate_clustered_problem(
            num_clusters=3,
            queries_per_cluster=2,
            plans_per_query=2,
            intra_cluster_density=0.9,
            seed=4,
        )
        result = DecomposedQuantumMQO(max_queries_per_cluster=2).solve(
            problem, num_reads=30
        )
        assert result.clusters == [
            tuple(c) for c in cluster_queries(problem, max_cluster_size=2)
        ]
        assert sorted(result.solve_order) == list(range(result.num_clusters))
        weights = internal_weights(problem, [list(c) for c in result.clusters])
        ordered = [float(weights[i]) for i in result.solve_order]
        assert ordered == sorted(ordered, reverse=True)
