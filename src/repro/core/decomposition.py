"""Decomposition: solve one MQO problem as a series of QUBO problems.

The paper's outlook (Section 9) proposes mapping "one MQO problem
instance into a series of QUBO problems ... which should in principle
allow to treat larger problem instances".  :class:`ParallelDecomposition`
implements that extension for instances beyond device/QUBO capacity: an
array-native partition (:mod:`repro.mqo.clustering`), cluster
sub-problems farmed through a
:class:`~repro.service.frontend.ServiceFrontend` under a
dependency-ordered **wave schedule**, and per-cluster selections
stitched into one monotone anytime trajectory for the whole instance.
The registry serves it as the ``decomposed_qa`` solver.

The wave schedule returns the answer of the fully sequential scheme, in
which clusters solve one at a time in internal-weight order and each is
conditioned on every selection made before it, whenever a cluster
solver's answer depends only on its sub-problem, budget and seed (GREEDY
and QA; not the wall-clock-budgeted heuristics): two clusters that share
savings never run in the same wave (the weaker-sharing one waits and
conditions on the stronger one's selection), while clusters without any
shared savings solve in parallel with *zero* loss — conditioning on a
cluster you share nothing with is a no-op.

The decomposition is a heuristic — cross-cluster savings are only
considered greedily in conditioning order — but it removes the hard
qubit-budget limit of the single-QUBO mapping.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.baselines.anytime import (
    AnytimeSolver,
    SolverTrajectory,
    TrajectoryRecorder,
)
from repro.exceptions import InvalidProblemError, SolverError
from repro.mqo.clustering import cluster_edges, cluster_queries, internal_weights
from repro.mqo.problem import MQOProblem, MQOSolution
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.utils.arrays import concat_ranges
from repro.utils.rng import SeedLike, derive_seed

if TYPE_CHECKING:  # pragma: no cover - service imported lazily (cycle guard)
    from repro.service.frontend import ServiceFrontend
    from repro.service.jobs import SolveResult

__all__ = [
    "ClusterSubproblem",
    "WaveSchedule",
    "build_wave_schedule",
    "build_subproblem",
    "ParallelDecomposition",
    "ParallelDecompositionResult",
    "DECOMPOSED_SOLVER_NAME",
    "observe_decomposition_progress",
    "current_progress_observers",
    "default_decomposition_frontend",
]

#: Registry name of the decomposition-backed anytime solver.
DECOMPOSED_SOLVER_NAME = "decomposed_qa"

#: Clusters produced across all decomposed solves (one increment per
#: sub-problem, so rate ≈ decomposition fan-out).
_COMPONENTS = get_registry().counter(
    "repro_decomposition_components_total",
    "Cluster sub-problems produced by decomposed solves.",
)
#: Size of the decomposition wave currently dispatching (last wave when idle).
_WAVE_SIZE = get_registry().gauge(
    "repro_decomposition_wave_size",
    "Clusters dispatched concurrently in the current decomposition wave.",
)

# ---------------------------------------------------------------------- #
# Progress observers (per-thread, like anytime improvement observers)
# ---------------------------------------------------------------------- #
#: Callback invoked after every cluster completion of a decomposed solve:
#: ``observer(solver_name, completed, total)``.
DecompositionProgressObserver = Callable[[str, int, int], None]

_PROGRESS = threading.local()


def current_progress_observers() -> Tuple[DecompositionProgressObserver, ...]:
    """Progress observers installed for the current thread (empty when none).

    The solver server uses this the way it uses anytime improvement
    observers: it installs a forwarder around the solve call, and every
    cluster completion of a decomposed solve running on that thread is
    streamed to the job's subscribers as a ``progress`` frame.
    """
    return getattr(_PROGRESS, "installed", ())


@contextmanager
def observe_decomposition_progress(
    *observers: DecompositionProgressObserver,
) -> Iterator[None]:
    """Register ``observers`` for cluster completions on this thread.

    Contexts nest (inner registrations append to the outer ones) and the
    previous set is restored on exit; observer exceptions are swallowed
    so a misbehaving listener cannot fail a solve.
    """
    previous = getattr(_PROGRESS, "installed", ())
    _PROGRESS.installed = previous + tuple(observers)
    try:
        yield
    finally:
        _PROGRESS.installed = previous


def _notify_progress(
    observers: Tuple[DecompositionProgressObserver, ...],
    solver_name: str,
    completed: int,
    total: int,
) -> None:
    for observer in observers:
        try:
            observer(solver_name, completed, total)
        except Exception:  # noqa: BLE001 — a bad listener must not fail the solve
            pass


# ---------------------------------------------------------------------- #
# Sub-problem construction (array-native)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ClusterSubproblem:
    """One cluster's sub-problem together with its plan-index mapping.

    Attributes
    ----------
    cluster_queries:
        Original query indices covered by this sub-problem.
    problem:
        The standalone MQO instance for those queries.  Plan costs are
        discounted by savings realisable with plans already selected for
        earlier clusters, then shifted per query so they stay non-negative
        (a per-query constant shift never changes which plan is optimal).
    plan_map:
        Sub-problem plan index -> original plan index.
    """

    cluster_queries: Tuple[int, ...]
    problem: MQOProblem
    plan_map: Dict[int, int]


def build_subproblem(
    problem: MQOProblem,
    cluster: Sequence[int],
    already_selected: Sequence[int] = (),
) -> ClusterSubproblem:
    """Build the standalone sub-problem for one query cluster.

    ``already_selected`` holds original plan indices chosen for other
    clusters; savings with those plans are subtracted from the costs of
    the cluster's plans (sequential conditioning).  The whole
    construction is one pass over the cluster's adjacency rows of the
    columnar view — per-plan sums accumulate in savings insertion order,
    bit-identical to the legacy per-plan dictionary loop.
    """
    cluster = tuple(sorted(int(q) for q in cluster))
    if not cluster:
        raise InvalidProblemError("a cluster must contain at least one query")
    arrays = problem.arrays()
    if cluster[0] < 0 or cluster[-1] >= arrays.num_queries:
        raise InvalidProblemError(f"unknown query index {cluster[0] if cluster[0] < 0 else cluster[-1]}")
    cluster_array = np.asarray(cluster, dtype=np.int64)

    in_cluster_query = np.zeros(arrays.num_queries, dtype=bool)
    in_cluster_query[cluster_array] = True
    selected_mask = np.zeros(arrays.num_plans, dtype=bool)
    for plan in already_selected:
        plan = int(plan)
        if 0 <= plan < arrays.num_plans:
            selected_mask[plan] = True
    # Conditioning partners: selected plans whose query is outside the cluster.
    external_partner = selected_mask & ~in_cluster_query[arrays.plan_query]

    offsets = arrays.query_offsets
    per_query_counts = (offsets[cluster_array + 1] - offsets[cluster_array]).astype(np.int64)
    cluster_plans = concat_ranges(offsets[cluster_array], per_query_counts)

    # External savings per cluster plan: segment sums over adjacency rows.
    row_starts = arrays.adj_indptr[cluster_plans]
    row_counts = (arrays.adj_indptr[cluster_plans + 1] - row_starts).astype(np.int64)
    entries = concat_ranges(row_starts, row_counts)
    contributions = np.where(
        external_partner[arrays.adj_indices[entries]], arrays.adj_values[entries], 0.0
    )
    segments = np.repeat(np.arange(len(cluster_plans), dtype=np.int64), row_counts)
    external = np.bincount(segments, weights=contributions, minlength=len(cluster_plans))
    adjusted = arrays.plan_cost[cluster_plans] - external

    # Shift per query so every cost is non-negative; within a query a
    # constant shift does not change which plan is preferable.
    local_starts = np.cumsum(per_query_counts) - per_query_counts
    minima = np.minimum.reduceat(adjusted, local_starts)
    shifts = np.where(minima < 0, minima, 0.0)
    adjusted = adjusted - np.repeat(shifts, per_query_counts)

    plans_per_query: List[List[float]] = []
    for position in range(len(cluster)):
        lo = int(local_starts[position])
        plans_per_query.append(adjusted[lo : lo + int(per_query_counts[position])].tolist())

    # Intra-cluster savings, re-indexed to local plan indices in the
    # original insertion order (the mask preserves triplet order).
    local_of = np.full(arrays.num_plans, -1, dtype=np.int64)
    local_of[cluster_plans] = np.arange(len(cluster_plans), dtype=np.int64)
    keep = (local_of[arrays.savings_p1] >= 0) & (local_of[arrays.savings_p2] >= 0)
    sub_problem = MQOProblem.from_columns(
        plans_per_query,
        local_of[arrays.savings_p1[keep]],
        local_of[arrays.savings_p2[keep]],
        arrays.savings_value[keep],
        name=f"{problem.name or 'mqo'}-cluster-{cluster[0]}",
    )
    plan_map = {local: int(original) for local, original in enumerate(cluster_plans)}
    return ClusterSubproblem(
        cluster_queries=cluster, problem=sub_problem, plan_map=plan_map
    )


# ---------------------------------------------------------------------- #
# Wave scheduling
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class WaveSchedule:
    """Dependency-ordered execution plan over canonical cluster indices.

    Attributes
    ----------
    solve_order:
        Canonical cluster indices in conditioning order — internal
        weight descending, canonical index on ties (the order of the
        fully sequential scheme).
    waves:
        Cluster indices grouped into execution waves.  Clusters in one
        wave share no savings with each other, so they can solve
        concurrently; every cluster conditions only on clusters from
        strictly earlier waves.
    """

    solve_order: List[int]
    waves: List[List[int]]

    @property
    def num_waves(self) -> int:
        """Number of sequential execution steps."""
        return len(self.waves)

    @property
    def max_wave_size(self) -> int:
        """Widest wave (the attainable solve parallelism)."""
        return max((len(wave) for wave in self.waves), default=0)


def build_wave_schedule(
    num_clusters: int,
    edges: Sequence[Tuple[int, int]],
    weights: Sequence[float],
) -> WaveSchedule:
    """Build the dependency-ordered wave schedule for a clustering.

    ``edges`` are cluster pairs that share at least one savings pair
    (:func:`~repro.mqo.clustering.cluster_edges`); ``weights`` the
    per-cluster internal savings.  For every edge, the cluster that the
    sequential scheme solves *later* (weaker internal sharing) depends
    on the earlier one, so it can condition on the earlier selection.
    Waves are the topological levels of that DAG: wave 0 holds every
    independent cluster, wave ``k`` the clusters whose deepest
    dependency sits in wave ``k - 1``.
    """
    order = sorted(range(num_clusters), key=lambda index: (-float(weights[index]), index))
    rank = {cluster: position for position, cluster in enumerate(order)}
    dependencies: Dict[int, List[int]] = {cluster: [] for cluster in range(num_clusters)}
    for a, b in edges:
        if rank[a] < rank[b]:
            dependencies[b].append(a)
        else:
            dependencies[a].append(b)
    wave_of: Dict[int, int] = {}
    for cluster in order:  # dependencies always have lower rank
        deps = dependencies[cluster]
        wave_of[cluster] = 1 + max((wave_of[d] for d in deps), default=-1)
    waves: List[List[int]] = [[] for _ in range(max(wave_of.values(), default=-1) + 1)]
    for cluster in order:
        waves[wave_of[cluster]].append(cluster)
    for wave in waves:
        wave.sort()
    return WaveSchedule(solve_order=order, waves=waves)


# ---------------------------------------------------------------------- #
# The parallel partition–solve–stitch pipeline
# ---------------------------------------------------------------------- #
_shared_frontend: Optional["ServiceFrontend"] = None
_shared_frontend_lock = threading.Lock()


def default_decomposition_frontend() -> "ServiceFrontend":
    """The process-wide frontend decomposed solves farm clusters through.

    Shared so repeated solves of overlapping instances reuse one result
    cache: two clusters with the same canonical hash, solver, budget and
    seed resolve to one execution.
    """
    global _shared_frontend
    with _shared_frontend_lock:
        if _shared_frontend is None:
            from repro.service.cache import ResultCache
            from repro.service.frontend import ServiceFrontend

            _shared_frontend = ServiceFrontend(cache=ResultCache(capacity=512))
        return _shared_frontend


@dataclass
class ParallelDecompositionResult:
    """Outcome of a parallel partition–solve–stitch run.

    Attributes
    ----------
    problem / solution:
        The original instance and the stitched whole-instance solution
        (deterministic for a fixed seed, independent of cluster
        completion order).
    clusters / solve_order / waves:
        The canonical clustering, the conditioning order, and the wave
        schedule that was executed.
    cluster_results:
        Per-cluster service results indexed by *canonical* cluster index
        (``None`` for clusters whose solve failed).
    trajectory:
        Monotone anytime trajectory of the stitched global incumbent.
    partition_ms:
        Wall-clock spent partitioning and scheduling.
    errors:
        Failure messages keyed by canonical cluster index; failed
        clusters keep their baseline (cheapest-plan) selection.
    """

    problem: MQOProblem
    solution: MQOSolution
    clusters: List[Tuple[int, ...]]
    solve_order: List[int]
    waves: List[List[int]]
    cluster_results: List[Optional["SolveResult"]]
    trajectory: SolverTrajectory
    partition_ms: float = 0.0
    errors: Dict[int, str] = field(default_factory=dict)

    @property
    def num_clusters(self) -> int:
        """Number of cluster sub-problems."""
        return len(self.clusters)

    @property
    def num_waves(self) -> int:
        """Number of sequential execution waves."""
        return len(self.waves)

    @property
    def best_cost(self) -> float:
        """Cost of the stitched solution."""
        return self.solution.cost


def _realized_with(
    arrays, plans: np.ndarray, partner_mask: np.ndarray
) -> float:
    """Total savings between ``plans`` and the plans set in ``partner_mask``."""
    if len(plans) == 0:
        return 0.0
    starts = arrays.adj_indptr[plans]
    counts = (arrays.adj_indptr[plans + 1] - starts).astype(np.int64)
    entries = concat_ranges(starts, counts)
    if len(entries) == 0:
        return 0.0
    hit = partner_mask[arrays.adj_indices[entries]]
    return float(arrays.adj_values[entries][hit].sum())


def _intra_savings(arrays, plans: np.ndarray, scratch: np.ndarray) -> float:
    """Total savings among ``plans`` (each pair counted once)."""
    if len(plans) < 2:
        return 0.0
    scratch[plans] = True
    value = _realized_with(arrays, plans, scratch) / 2.0
    scratch[plans] = False
    return value


class ParallelDecomposition(AnytimeSolver):
    """Partition–solve–stitch decomposition over the service frontend.

    Registered as the ``decomposed_qa`` anytime solver, with a
    ``min_plans`` capability one past the annealer's device capacity, so
    the portfolio and the server route instances *beyond* embedding
    capacity here instead of failing, while small instances keep their
    solver line-up.  :meth:`solve` returns the stitched anytime
    trajectory; :meth:`decompose` returns the whole
    :class:`ParallelDecompositionResult`.

    Parameters
    ----------
    frontend:
        The :class:`~repro.service.frontend.ServiceFrontend` cluster
        sub-problems are submitted through (the shared decomposition
        frontend when omitted) — its result cache deduplicates repeated
        cluster solves by canonical hash.
    max_cluster_size:
        Query-count cap per cluster (see
        :func:`~repro.mqo.clustering.cluster_queries`).  Every solve
        lowers it to as many queries as keep the worst-case sub-QUBO
        within the device (:meth:`_cluster_cap`).
    cluster_solvers:
        Solver-name preference per cluster: the first registered solver
        whose capabilities accept the sub-problem runs it (the last name
        is used unconditionally as the fallback).
    max_workers:
        Concurrent cluster solves (defaults to the CPU count); 1 makes
        the dispatch sequential on the same wave schedule, which is the
        baseline the decomposition benchmark compares against.
    cluster_budget_ms:
        Optional fixed per-cluster time budget; by default the solve
        budget is split evenly across waves (deterministic, so cluster
        cache keys are stable across runs).
    """

    name = DECOMPOSED_SOLVER_NAME

    #: Default per-cluster solver preference (first supported name wins).
    DEFAULT_CLUSTER_SOLVERS: Tuple[str, ...] = ("QA", "CLIMB")

    #: Floor for the per-cluster budget so tiny global budgets still
    #: give every cluster a runnable slice.
    MIN_CLUSTER_BUDGET_MS = 25.0

    def __init__(
        self,
        frontend: "ServiceFrontend | None" = None,
        max_cluster_size: int = 32,
        cluster_solvers: Sequence[str] = DEFAULT_CLUSTER_SOLVERS,
        max_workers: int | None = None,
        cluster_budget_ms: float | None = None,
    ) -> None:
        if max_cluster_size <= 0:
            raise InvalidProblemError(
                f"max_cluster_size must be positive, got {max_cluster_size}"
            )
        if not cluster_solvers:
            raise SolverError("cluster_solvers must name at least one solver")
        if max_workers is not None and max_workers <= 0:
            raise SolverError(f"max_workers must be positive, got {max_workers}")
        self._frontend = frontend
        self.max_cluster_size = max_cluster_size
        self.cluster_solvers = tuple(cluster_solvers)
        self.max_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        self.cluster_budget_ms = cluster_budget_ms

    @property
    def frontend(self) -> "ServiceFrontend":
        """The frontend clusters are farmed through (created lazily)."""
        if self._frontend is None:
            self._frontend = default_decomposition_frontend()
        return self._frontend

    def _pick_solver(self, subproblem: MQOProblem) -> str:
        """First preferred solver whose capabilities accept ``subproblem``."""
        registry = self.frontend.registry
        for name in self.cluster_solvers[:-1]:
            if name in registry and registry.get(name).capabilities.supports(subproblem):
                return name
        return self.cluster_solvers[-1]

    def _cluster_cap(self, problem: MQOProblem) -> int:
        """Largest query count whose worst-case sub-QUBO fits the device."""
        from repro.service.qa_adapter import QuantumAnnealingSolver

        device_plans = QuantumAnnealingSolver.default_max_plans()
        widest_query = int(problem.arrays().plans_per_query.max())
        return max(1, min(self.max_cluster_size, device_plans // max(1, widest_query)))

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(
        self,
        problem: MQOProblem,
        time_budget_ms: float,
        seed: SeedLike = None,
    ) -> SolverTrajectory:
        """Run :meth:`decompose` and return the stitched anytime trajectory."""
        base_seed = None if seed is None else int(seed)  # SeedLike -> request seed
        return self.decompose(problem, time_budget_ms=time_budget_ms, seed=base_seed).trajectory

    def decompose(
        self,
        problem: MQOProblem,
        time_budget_ms: float = 1000.0,
        seed: Optional[int] = None,
    ) -> ParallelDecompositionResult:
        """Partition ``problem``, farm the clusters out, stitch the result.

        The stitched solution is deterministic for a fixed seed: cluster
        sub-requests carry seeds derived from the *canonical* cluster
        index, conditioning sets are frozen per wave, and a cluster
        selection is only merged when it does not worsen the global cost
        (its delta is order-independent within a wave), so the final
        merged selection does not depend on completion order.
        """
        self._check_budget(time_budget_ms)
        from repro.service.jobs import SolveRequest

        tracer = get_tracer()
        recorder = TrajectoryRecorder(self.name)
        progress_observers = current_progress_observers()

        with tracer.span("mqo.partition", {"plans": problem.num_plans}) as span:
            clusters = cluster_queries(problem, max_cluster_size=self._cluster_cap(problem))
            weights = internal_weights(problem, clusters)
            edges = cluster_edges(problem, clusters)
            schedule = build_wave_schedule(len(clusters), edges, weights)
            span.set_attribute("clusters", len(clusters))
            span.set_attribute("waves", schedule.num_waves)
        _COMPONENTS.inc(len(clusters))
        partition_ms = recorder.elapsed_ms()

        arrays = problem.arrays()
        total = len(clusters)
        budget = self.cluster_budget_ms
        if budget is None:
            budget = max(
                self.MIN_CLUSTER_BUDGET_MS,
                min(time_budget_ms, time_budget_ms / max(1, schedule.num_waves)),
            )

        # The stitch starts from the always-feasible cheapest-plan
        # selection, so the global incumbent is finite before the first
        # cluster completes.
        choices = arrays.cheapest_choices().copy()
        selected_mask = np.zeros(arrays.num_plans, dtype=bool)
        selected_mask[arrays.choices_to_plans(choices)] = True
        scratch = np.zeros(arrays.num_plans, dtype=bool)
        current_cost = float(
            arrays.selection_cost_batch(choices[np.newaxis, :], validate=False)[0]
        )
        recorder.record(
            MQOSolution.from_precomputed(
                problem,
                arrays.choices_to_plans(choices).tolist(),
                current_cost,
                True,
            )
        )

        cluster_results: List[Optional["SolveResult"]] = [None] * total
        errors: Dict[int, str] = {}
        completed = 0
        query_done = np.zeros(arrays.num_queries, dtype=bool)
        conditioning: Tuple[int, ...] = ()

        def run_cluster(
            cluster_index: int, already: Tuple[int, ...]
        ) -> Tuple[Optional[ClusterSubproblem], Optional["SolveResult"], Optional[str]]:
            """Solve one cluster: ``(subproblem, result, error)``, never raising."""
            try:
                subproblem = build_subproblem(problem, clusters[cluster_index], already)
                request = SolveRequest(
                    problem=subproblem.problem,
                    solver=self._pick_solver(subproblem.problem),
                    time_budget_ms=budget,
                    seed=derive_seed(seed, cluster_index),
                    job_id=f"{self.name}-c{cluster_index}",
                )
                result = self.frontend.submit(request)
            except Exception as exc:  # noqa: BLE001 — cluster failures
                # degrade to the baseline selection, never the solve.
                return None, None, f"{type(exc).__name__}: {exc}"
            return subproblem, result, result.error

        def merge(
            cluster_index: int,
            subproblem: Optional[ClusterSubproblem],
            result: Optional["SolveResult"],
            error: Optional[str],
        ) -> None:
            nonlocal current_cost, completed
            completed += 1
            if error is not None:
                errors[cluster_index] = error
                _notify_progress(progress_observers, self.name, completed, total)
                return
            cluster_results[cluster_index] = result
            new_plans = np.asarray(
                sorted(subproblem.plan_map[p] for p in result.selected_plans),
                dtype=np.int64,
            )
            queries = arrays.plan_query[new_plans].astype(np.int64)
            old_plans = arrays.choices_to_plans(choices)[queries]
            # Global delta of swapping this cluster's queries from their
            # current plans to the solver's selection.  Same-wave clusters
            # share no savings with this one, so the delta is independent
            # of completion order.
            selected_mask[old_plans] = False
            delta = (
                float(arrays.plan_cost[new_plans].sum())
                - float(arrays.plan_cost[old_plans].sum())
                - _realized_with(arrays, new_plans, selected_mask)
                - _intra_savings(arrays, new_plans, scratch)
                + _realized_with(arrays, old_plans, selected_mask)
                + _intra_savings(arrays, old_plans, scratch)
            )
            if delta <= 1e-12:
                selected_mask[new_plans] = True
                choices[queries] = new_plans - arrays.query_offsets[queries]
                current_cost += delta
                recorder.record(
                    MQOSolution.from_precomputed(
                        problem,
                        arrays.choices_to_plans(choices).tolist(),
                        current_cost,
                        True,
                    )
                )
            else:  # solver's pick would worsen the stitched cost: keep baseline
                selected_mask[old_plans] = True
            _notify_progress(progress_observers, self.name, completed, total)

        workers = max(1, min(self.max_workers, schedule.max_wave_size))
        if workers > 1:
            executor: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="decomp"
            )
        else:
            executor = None
        try:
            for wave in schedule.waves:
                _WAVE_SIZE.set(len(wave))
                if executor is not None and len(wave) > 1:
                    futures = {
                        executor.submit(run_cluster, index, conditioning): index
                        for index in wave
                    }
                    outcomes = ((futures[f], f.result()) for f in as_completed(futures))
                else:
                    outcomes = ((index, run_cluster(index, conditioning)) for index in wave)
                for cluster_index, outcome in outcomes:
                    merge(cluster_index, *outcome)
                # Freeze the conditioning set for the next wave: whatever is
                # now selected for every finished cluster's queries (the
                # solver picks, or the baseline where a solve failed).
                for index in wave:
                    query_done[np.asarray(clusters[index], dtype=np.int64)] = True
                conditioning = tuple(
                    int(p)
                    for p in arrays.choices_to_plans(choices)[query_done].tolist()
                )
        finally:
            if executor is not None:
                executor.shutdown(wait=True)

        with tracer.span("mqo.stitch", {"clusters": total}) as span:
            selected = arrays.choices_to_plans(choices).tolist()
            solution = problem.solution_from_selection(selected)
            recorder.record(solution)
            span.set_attribute("failed", len(errors))
            span.set_attribute("cost", solution.cost)
        trajectory = recorder.finish()
        trajectory.best_solution = solution

        return ParallelDecompositionResult(
            problem=problem,
            solution=solution,
            clusters=[tuple(cluster) for cluster in clusters],
            solve_order=list(schedule.solve_order),
            waves=[list(wave) for wave in schedule.waves],
            cluster_results=cluster_results,
            trajectory=trajectory,
            partition_ms=partition_ms,
            errors=errors,
        )
