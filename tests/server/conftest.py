"""Shared fixtures of the server test suite.

The end-to-end tests need *deterministic* anytime behaviour, so instead
of racing real solvers they register scripted ones: a
:class:`SteppingSolver` that walks the full solution ranking of a tiny
instance with a configurable pause between improvements (guaranteeing a
known number of streamed updates), and a :class:`SleepySolver` that
holds a worker busy for a known duration (for coalescing, backpressure
and drain scenarios).
"""

from __future__ import annotations

import time
from itertools import product
from typing import List

import pytest

from repro.baselines.anytime import AnytimeSolver, TrajectoryRecorder
from repro.core.decomposition import current_progress_observers
from repro.mqo.problem import MQOProblem, MQOSolution
from repro.server.app import ServerConfig, run_server_in_thread
from repro.server.readiness import wait_for_server
from repro.service.frontend import ServiceFrontend
from repro.service.registry import SolverRegistry


def wait_until(predicate, timeout_s: float = 15.0, interval_s: float = 0.05):
    """Poll ``predicate`` until truthy; fail the test on timeout.

    Condition polling instead of fixed sleeps: returns on the first
    pass on a fast machine and cannot race a loaded CI runner.  Shared
    by the fault-injection and cluster-observability suites.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError(f"condition not reached within {timeout_s}s: {predicate}")


def tiny_problem(name: str = "server-test") -> MQOProblem:
    """The paper's worked example: 3 distinct solution costs (5, 3, 2)."""
    return MQOProblem(
        plans_per_query=[[2.0, 4.0], [3.0, 1.0]],
        savings={(1, 2): 5.0},
        name=name,
    )


def solution_ranking(problem: MQOProblem) -> List[MQOSolution]:
    """Valid selections ordered worst-to-best with strictly distinct costs."""
    combos = product(*[query.plan_indices for query in problem.queries])
    solutions = sorted(
        (MQOSolution(problem=problem, selected_plans=frozenset(c)) for c in combos),
        key=lambda solution: -solution.cost,
    )
    unique: List[MQOSolution] = []
    for solution in solutions:
        if not unique or solution.cost < unique[-1].cost - 1e-12:
            unique.append(solution)
    return unique


class SteppingSolver(AnytimeSolver):
    """Walks the solution ranking with a pause between improvements.

    On the tiny problem this records exactly three improvements (costs
    5 → 3 → 2), each ``step_ms`` apart, after an initial
    ``start_delay_ms`` — a deterministic anytime stream for the
    subscription tests.
    """

    name = "STEP"

    def __init__(self, step_ms: float = 40.0, start_delay_ms: float = 0.0) -> None:
        self.step_ms = step_ms
        self.start_delay_ms = start_delay_ms

    def solve(self, problem, time_budget_ms, seed=None):
        """Record every ranking step, sleeping between improvements."""
        recorder = TrajectoryRecorder(self.name)
        if self.start_delay_ms:
            time.sleep(self.start_delay_ms / 1000.0)
        for solution in solution_ranking(problem):
            recorder.record(solution)
            time.sleep(self.step_ms / 1000.0)
        return recorder.finish()


class SleepySolver(AnytimeSolver):
    """Holds a worker busy for a fixed duration, then answers."""

    name = "SLEEPY"

    def __init__(self, sleep_ms: float = 400.0) -> None:
        self.sleep_ms = sleep_ms

    def solve(self, problem, time_budget_ms, seed=None):
        """Sleep, then record the optimum."""
        recorder = TrajectoryRecorder(self.name)
        time.sleep(self.sleep_ms / 1000.0)
        recorder.record(solution_ranking(problem)[-1])
        return recorder.finish()


class ProgressSolver(SteppingSolver):
    """STEP that also reports one decomposition progress step per improvement.

    On the tiny problem this streams three ``update`` and three
    ``progress`` frames (``completed`` 1..3 of 3), interleaved.
    """

    name = "PROGRESS"

    def solve(self, problem, time_budget_ms, seed=None):
        """Record every ranking step, then report it as one cluster done."""
        recorder = TrajectoryRecorder(self.name)
        ranking = solution_ranking(problem)
        for completed, solution in enumerate(ranking, start=1):
            recorder.record(solution)
            for observer in current_progress_observers():
                observer(self.name, completed, len(ranking))
            time.sleep(self.step_ms / 1000.0)
        return recorder.finish()


def scripted_registry() -> SolverRegistry:
    """STEP (fast stream), SLOW-STEP (late first update), SLEEPY (busy), PROGRESS (progress)."""
    registry = SolverRegistry()
    registry.register("STEP", lambda: SteppingSolver(step_ms=40.0))
    registry.register("PROGRESS", lambda: ProgressSolver(step_ms=20.0))
    registry.register(
        "SLOW-STEP", lambda: SteppingSolver(step_ms=150.0, start_delay_ms=250.0)
    )
    registry.register("SLEEPY", lambda: SleepySolver(sleep_ms=400.0))
    return registry


def scripted_shard_frontend() -> ServiceFrontend:
    """Module-level shard frontend factory over the scripted registry.

    Shard processes rebuild their frontend from this factory; it must be
    a plain module-level function (not a fixture closure) to stay
    picklable under the forkserver/spawn start methods shards boot with.
    """
    return ServiceFrontend(registry=scripted_registry())


@pytest.fixture()
def scripted_frontend() -> ServiceFrontend:
    """A service frontend over the scripted solver registry (no cache)."""
    return ServiceFrontend(registry=scripted_registry())


@pytest.fixture()
def server_factory(scripted_frontend):
    """Start servers on background threads; stop them all at teardown.

    Sharded configs (``config.shards != 0``) automatically get the
    scripted shard-frontend factory, and readiness additionally waits
    for every shard process to report ready.
    """
    handles = []

    def start(config: ServerConfig | None = None, frontend: ServiceFrontend | None = None):
        config = config if config is not None else ServerConfig()
        sharded = config.shards != 0
        handle = run_server_in_thread(
            config,
            frontend if frontend is not None else scripted_frontend,
            frontend_factory=scripted_shard_frontend if sharded else None,
        )
        handles.append(handle)
        # Same readiness probe CI uses: a served ping, not a sleep.
        min_shards = config.shards if sharded and config.shards > 0 else None
        wait_for_server(port=handle.port, timeout_s=15.0, min_shards=min_shards)
        return handle

    yield start
    for handle in handles:
        handle.stop()
