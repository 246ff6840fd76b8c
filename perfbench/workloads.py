"""The benchmark's two workloads.

Each workload builds its inputs from the run seed alone, and the program
sees only those generated inputs.  A workload has three steps:

* ``setup()`` — everything before the timed window (instance
  generation, GREEDY references, server start, cache warm-up);
* ``run(seconds=..., jobs=..., between_blocks=...)`` — the timed window,
  returning a :class:`Pass`; it runs whole blocks of jobs and stops at
  the first block boundary after ``seconds`` (or after exactly ``jobs``
  jobs, to replay another pass), calling ``between_blocks`` untimed
  after each block;
* ``teardown()`` — stop the server and close the connection.

A QA workload also has ``replay(records)``: it solves the given jobs
again from cold caches, so a run can check that QA is deterministic.

Parameters come from ``perfbench/spec.json``; see its ``why`` lines for
what each workload is meant to stress.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.loadgen import Connection, Outcome, closed_loop
from repro.annealer.compile import default_compile_cache
from repro.baselines.greedy import GreedyConstructiveSolver
from repro.chimera.hardware import DWAVE_2X
from repro.embedding.native import NativeClusteredEmbedder
from repro.exceptions import ReproError
from repro.mqo.problem import MQOProblem
from repro.mqo.serialization import problem_to_dict
from repro.server.app import ServerConfig, run_server_in_thread
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest
from repro.service.qa_adapter import QuantumAnnealingSolver
from repro.workloads.base import get_family
from repro.workloads.embedded import generate_embedded_testcase

__all__ = ["Record", "Pass", "WORKLOADS"]


def _seed(*parts: int) -> int:
    """A 63-bit seed derived from the run seed and a position."""
    state = np.random.SeedSequence([abs(int(part)) for part in parts]).generate_state(2)
    return int((int(state[0]) << 32 | int(state[1])) & ((1 << 63) - 1))


def _clear_process_caches() -> None:
    """Forget prepared pipelines and compiled QUBO structures.

    Both caches are process-wide; clearing them makes every set-up start
    from the same cold state, so repeated set-ups time the same work.
    """
    QuantumAnnealingSolver.prepared_cache.clear()
    default_compile_cache().clear()


def greedy_cost(problem: MQOProblem) -> float:
    """The GREEDY reference cost the quality metric is relative to."""
    return GreedyConstructiveSolver().solve(problem, 1000.0, seed=0).best_cost


@dataclass
class Record:
    """One attempted job: its input, the reference and what came back."""

    problem: MQOProblem
    greedy: float
    latency_ms: float
    result: Optional[Dict[str, Any]]
    interval: Tuple[float, float]
    seed: int = 0
    ok: bool = False

    def check(self) -> bool:
        """Whether the result is a valid selection that costs ``best_cost``."""
        result = self.result
        self.ok = False
        if result is None or result.get("error") or result.get("best_cost") is None:
            return False
        try:
            solution = self.problem.solution_from_selection(result["selected_plans"])
        except ReproError:
            return False
        self.ok = solution.is_valid and math.isclose(
            solution.cost, result["best_cost"], rel_tol=1e-9, abs_tol=1e-6
        )
        return self.ok


@dataclass
class Pass:
    """What one timed window produced.

    ``blocks`` holds ``(jobs, wall seconds)`` of each block in run order;
    the blocks partition ``records``.
    """

    records: List[Record]
    blocks: List[Tuple[int, float]]
    server: Dict[str, float] = field(default_factory=dict)

    def block_records(self) -> List[Tuple[List[Record], float]]:
        """Each block's records with its wall time."""
        out, start = [], 0
        for jobs, wall_s in self.blocks:
            out.append((self.records[start : start + jobs], wall_s))
            start += jobs
        return out


def _records_from(
    outcomes: List[Outcome], problems: List[MQOProblem], greedy: List[float]
) -> List[Record]:
    return [
        Record(
            problem=problem,
            greedy=reference,
            latency_ms=outcome.latency_ms if outcome.done is not None else math.inf,
            result=outcome.result,
            interval=(outcome.sent, outcome.done if outcome.done is not None else outcome.sent),
        )
        for outcome, problem, reference in zip(outcomes, problems, greedy)
    ]


class PaperClasses:
    """Section 7.1 instances on the full D-Wave 2X, in-process, closed loop."""

    def __init__(self, params: Dict[str, Any], seed: int) -> None:
        self.params = params
        self.seed = seed

    def setup(self) -> None:
        _clear_process_caches()
        self.topology = DWAVE_2X.build_topology(perfect=True)
        capacity = NativeClusteredEmbedder(self.topology).capacity
        self.sizes = [
            (plans, max(2, round(capacity(plans) * fraction)))
            for fraction in self.params["query_fractions"]
            for plans in self.params["plans_per_query"]
        ]
        self.frontend = ServiceFrontend()
        self.first_cycle = self._cycle(0)

    def _cycle(self, cycle: int) -> List[MQOProblem]:
        """One instance of every (plans, queries) size; distinct per cycle."""
        return [
            generate_embedded_testcase(
                num_queries=queries,
                plans_per_query=plans,
                topology=self.topology,
                sharing_density=self.params["sharing_density"],
                seed=_seed(self.seed, 1, cycle, index),
            ).problem
            for index, (plans, queries) in enumerate(self.sizes)
        ]

    def _request(self, problem: MQOProblem, seed: int) -> SolveRequest:
        return SolveRequest(
            problem=problem,
            solver=self.params["solver"],
            time_budget_ms=self.params["budget_ms"],
            seed=seed,
        )

    def run(
        self,
        seconds: float | None = None,
        jobs: int | None = None,
        between_blocks: Callable[[], None] = lambda: None,
    ) -> Pass:
        records: List[Record] = []
        results = []
        blocks: List[Tuple[int, float]] = []
        wall = 0.0
        cycle = 0
        # Whole cycles (one block each) until the time is up and there
        # are ``min_jobs`` jobs.
        while (
            jobs is None and (wall < seconds or len(records) < self.params["min_jobs"])
        ) or (jobs is not None and len(records) < jobs):
            # Later cycles are generated outside the timed window.
            problems = self.first_cycle if cycle == 0 else self._cycle(cycle)
            started = time.perf_counter()
            for index, problem in enumerate(problems):
                seed = _seed(self.seed, 2, cycle, index)
                request = self._request(problem, seed)
                begin = time.perf_counter()
                result = self.frontend.submit(request)
                end = time.perf_counter()
                results.append(result)
                records.append(
                    Record(problem, math.nan, (end - begin) * 1000.0, None, (begin, end), seed)
                )
            blocks.append((len(problems), time.perf_counter() - started))
            wall += blocks[-1][1]
            cycle += 1
            between_blocks()
        # GREEDY runs after the window: it would otherwise build the
        # problems' memoised arrays that the timed QA jobs have to build.
        for record, result in zip(records, results):
            record.result = result.to_dict()
            record.greedy = greedy_cost(record.problem)
        return Pass(records=records, blocks=blocks)

    def replay(self, records: List[Record]) -> List[Optional[Dict[str, Any]]]:
        """Solve the records' requests again, from cold process caches.

        Returns each result as a dict, or ``None`` where the solve failed.
        """
        _clear_process_caches()
        frontend = ServiceFrontend()
        results = [frontend.submit(self._request(r.problem, r.seed)) for r in records]
        return [result.to_dict() if result.ok else None for result in results]

    def teardown(self) -> None:
        self.first_cycle = []


class ClassicalMix:
    """Families QA cannot embed, CLIMB, one closed-loop connection to a live server."""

    def __init__(self, params: Dict[str, Any], seed: int) -> None:
        self.params = params
        self.seed = seed
        self.handle = None
        self.connection: Optional[Connection] = None

    def _build_pool(self) -> None:
        scenarios = self.params["scenarios"]
        self.pool = [
            get_family(scenarios[index % len(scenarios)]["family"]).build(
                _seed(self.seed, 1, index), **scenarios[index % len(scenarios)]["params"]
            )
            for index in range(self.params["pool_size"])
        ]
        self.pool_specs = [problem_to_dict(problem) for problem in self.pool]
        self.pool_greedy = [greedy_cost(problem) for problem in self.pool]

    def setup(self) -> None:
        _clear_process_caches()
        self._build_pool()
        self.handle = run_server_in_thread(
            ServerConfig(workers=self.params["server"]["workers"]), frontend=ServiceFrontend()
        )
        self.connection = Connection(self.handle.host, self.handle.port)
        self.connection.ping()

    def _spec(self, pool_index: int, seed: int) -> Dict[str, Any]:
        return {
            "problem": self.pool_specs[pool_index],
            "solver": self.params["solver"],
            "time_budget_ms": self.params["budget_ms"],
            "seed": seed,
        }

    def _server_stats(self) -> Dict[str, float]:
        metrics = self.handle.server.metrics
        return {"queue_wait_p90_ms": metrics.queue_wait.percentile(0.90)}

    def run(
        self,
        seconds: float | None = None,
        jobs: int | None = None,
        between_blocks: Callable[[], None] = lambda: None,
    ) -> Pass:
        block = self.params["block_jobs"]
        outcomes: List[Outcome] = []
        indices: List[int] = []
        blocks: List[Tuple[int, float]] = []
        wall = 0.0
        while (jobs is None and wall < seconds) or (jobs is not None and len(outcomes) < jobs):
            first = len(outcomes)
            indices += [(first + i) % len(self.pool) for i in range(block)]
            specs = [self._spec(index, _seed(self.seed, 2, first + i)) for i, index in
                     enumerate(indices[first:])]
            started = time.perf_counter()
            outcomes += closed_loop(self.connection, specs, first_index=first)
            blocks.append((block, time.perf_counter() - started))
            wall += blocks[-1][1]
            between_blocks()
        records = _records_from(
            outcomes,
            [self.pool[index] for index in indices],
            [self.pool_greedy[index] for index in indices],
        )
        return Pass(records=records, blocks=blocks, server=self._server_stats())

    def teardown(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.handle is not None:
            # Let the server finish closing the connection before it
            # stops, so the drain does not cancel the closing handler.
            metrics = self.handle.server.metrics
            deadline = time.monotonic() + 5.0
            while (
                metrics.counter_value("connections_closed")
                < metrics.counter_value("connections_opened")
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            self.handle.stop()
            if self.handle.thread.is_alive():
                raise RuntimeError("the server thread did not stop")
            self.handle = None


WORKLOADS = {
    "paper-classes": PaperClasses,
    "classical-mix": ClassicalMix,
}
