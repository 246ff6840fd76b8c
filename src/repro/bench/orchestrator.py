"""The unified benchmark orchestrator behind ``repro-mqo bench``.

One runner for every registered workload suite: build each scenario's
instances deterministically, push them through a solver — either the
in-process :class:`~repro.service.frontend.ServiceFrontend` (``service``
mode) or a real :class:`~repro.server.app.SolverServer` over TCP
(``server`` mode) — and emit one schema-validated BENCH document
(:mod:`repro.bench.schema`) with per-scenario p50/p99 latency,
throughput and solution quality against a best-known reference.

Quality metric: for every instance the orchestrator also runs a cheap
deterministic reference solver (``GREEDY`` by default); the *best known*
cost of the instance is the minimum of the reference's and the measured
run's results, and the reported gap is ``(achieved - best_known) /
max(1, |best_known|)`` — 0 means the run matched the best known
solution, positive means it fell short.

Suites carrying an :class:`~repro.workloads.arrivals.ArrivalProcess`
run **open-loop** in server mode: jobs are submitted on the schedule
regardless of completions, and latency is measured from the scheduled
arrival (so queueing delay under overload is visible).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.schema import build_bench_document, save_bench_document
from repro.bench.stats import summarize_latencies
from repro.exceptions import ReproError
from repro.mqo.problem import MQOProblem
from repro.mqo.serialization import problem_to_dict
from repro.obs.trace import Span, configure_tracer, get_tracer
from repro.server.app import ServerConfig, run_server_in_thread
from repro.server.client import SolverClient
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest, SolveResult
from repro.service.registry import default_registry
from repro.utils.rng import derive_seed
from repro.utils.tables import format_table
from repro.workloads.arrivals import schedule_jobs
from repro.workloads.base import ScenarioSpec
from repro.workloads.suites import WorkloadSuite, get_suite

__all__ = [
    "BenchRunConfig",
    "BenchOrchestrator",
    "render_summary",
    "emit_workload_jsonl",
    "stage_breakdown_from_spans",
    "STAGE_SPAN_NAMES",
]

#: The gap below which a run counts as matching the best-known solution.
_MATCH_EPSILON = 1e-9

#: Pipeline stages reported in every ``stage_breakdown`` block, mapped to
#: the span names that feed them.  Stages a run never exercised (CLIMB
#: has no anneal) still appear, zeroed, so downstream dashboards can rely
#: on the keys.
STAGE_SPAN_NAMES = {
    "qubo_build": "mqo.qubo_build",
    "embed": "mqo.embed",
    "physical_map": "mqo.physical_map",
    "anneal": "mqo.anneal",
    "decode": "mqo.decode",
    "solve": "service.execute",
}


def stage_breakdown_from_spans(
    spans: List[Span], queue_wait: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Aggregate finished spans into the per-stage latency breakdown.

    Every stage in :data:`STAGE_SPAN_NAMES` plus ``queue_wait`` is
    always present with ``count``/``total_ms``/``mean_ms``; ``queue_wait``
    comes from the server's metrics snapshot in server mode and stays
    zero in service mode (there is no queue in-process).

    Spans adopted from shard processes carry a ``shard`` attribute
    (tagged by the parent as results arrive); when any are present a
    ``per_shard`` block repeats the stage aggregation per shard, so a
    sharded server-mode run shows which shard the time was burned on.
    """
    by_name: Dict[str, List[float]] = {}
    by_shard: Dict[str, Dict[str, List[float]]] = {}
    for span in spans:
        if span.duration_ms is None:
            continue
        by_name.setdefault(span.name, []).append(span.duration_ms)
        shard = span.attributes.get("shard")
        if shard is not None:
            shard_names = by_shard.setdefault(str(shard), {})
            shard_names.setdefault(span.name, []).append(span.duration_ms)

    def aggregate(groups: Dict[str, List[float]]) -> Dict[str, Dict[str, float]]:
        block: Dict[str, Dict[str, float]] = {}
        for stage, span_name in STAGE_SPAN_NAMES.items():
            durations = groups.get(span_name, [])
            total = float(sum(durations))
            block[stage] = {
                "count": len(durations),
                "total_ms": round(total, 3),
                "mean_ms": round(total / len(durations), 3) if durations else 0.0,
            }
        return block

    breakdown: Dict[str, Any] = aggregate(by_name)
    wait_count = int(queue_wait.get("count", 0)) if queue_wait else 0
    wait_mean = float(queue_wait.get("mean_ms", 0.0)) if queue_wait else 0.0
    breakdown["queue_wait"] = {
        "count": wait_count,
        "total_ms": round(wait_count * wait_mean, 3),
        "mean_ms": round(wait_mean, 3),
    }
    if by_shard:
        breakdown["per_shard"] = {
            shard: aggregate(groups)
            for shard, groups in sorted(by_shard.items(), key=lambda item: item[0])
        }
    return breakdown


@dataclass
class BenchRunConfig:
    """Run configuration of one bench invocation.

    Attributes
    ----------
    suite:
        Name of a registered workload suite.
    mode:
        ``"service"`` (in-process frontend) or ``"server"`` (real TCP
        server on an ephemeral port).
    solver:
        Registered solver name (or ``"portfolio"``) applied to every job.
    budget_ms / instances:
        Overrides of the suite's ``default_budget_ms`` /
        ``instances_per_scenario`` (``None`` keeps the suite default).
    seed:
        Base seed for per-job solve seeds (instance generation uses the
        scenario seeds, so the *problems* do not depend on this).
    workers:
        Server worker slots (``server`` mode only; 0 picks the default).
    fusion_window_ms / fusion_max_jobs:
        ``server`` mode only: a positive window turns on the fusion
        window of the server's :class:`~repro.server.workers.WorkerPool`,
        which stages annealing jobs admitted within the window into one
        fused block-diagonal anneal (see ``docs/fusion.md``).
    quality_reference:
        Registered solver providing the best-known quality reference;
        empty string disables the quality pass.
    """

    suite: str
    mode: str = "service"
    solver: str = "CLIMB"
    budget_ms: Optional[float] = None
    instances: Optional[int] = None
    seed: int = 0
    workers: int = 0
    fusion_window_ms: float = 0.0
    fusion_max_jobs: int = 8
    quality_reference: str = "GREEDY"
    extra_config: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in ("service", "server"):
            raise ReproError(f"bench mode must be 'service' or 'server', got {self.mode!r}")
        if self.budget_ms is not None and self.budget_ms <= 0:
            raise ReproError(f"budget_ms must be positive, got {self.budget_ms}")
        if self.instances is not None and self.instances <= 0:
            raise ReproError(f"instances must be positive, got {self.instances}")


@dataclass
class _JobOutcome:
    """One job's measurement: scenario, latency, result, best-known gap."""

    scenario: str
    latency_ms: float
    result: SolveResult
    problem: MQOProblem
    job_index: int
    gap: Optional[float] = None


class BenchOrchestrator:
    """Runs one workload suite and produces a BENCH document."""

    def __init__(
        self,
        config: BenchRunConfig,
        frontend: ServiceFrontend | None = None,
    ) -> None:
        self.config = config
        self.suite: WorkloadSuite = get_suite(config.suite)
        self.frontend = frontend if frontend is not None else ServiceFrontend()
        self.budget_ms = (
            config.budget_ms if config.budget_ms is not None else self.suite.default_budget_ms
        )
        self.instances = (
            config.instances
            if config.instances is not None
            else self.suite.instances_per_scenario
        )
        if self._open_loop and config.instances is not None:
            raise ReproError(
                f"suite {self.suite.name!r} runs open-loop in server mode: its "
                "job count comes from the arrival schedule, so --instances "
                "does not apply"
            )
        #: Spans collected during the last :meth:`run` (the CLI's
        #: ``--trace`` flag writes these out as NDJSON).
        self.last_spans: List[Span] = []
        #: Raw per-job latencies of the last :meth:`run`, in completion
        #: order — lets composite benches (e.g. the fusion A/B) merge
        #: several runs into one honest totals summary.
        self.last_latencies: List[float] = []
        self._server_stats: Optional[Dict[str, Any]] = None

    @property
    def _open_loop(self) -> bool:
        """Whether this run submits on an arrival schedule."""
        return self.config.mode == "server" and self.suite.arrival is not None

    # ------------------------------------------------------------------ #
    # Instance and request construction
    # ------------------------------------------------------------------ #
    def _scenario_jobs(self) -> List[Tuple[ScenarioSpec, int, MQOProblem]]:
        """Every (spec, instance, problem) of the run, in suite order."""
        jobs = []
        for spec in self.suite.scenarios:
            for instance in range(self.instances):
                jobs.append((spec, instance, spec.build(instance)))
        return jobs

    def _request_for(
        self, problem: MQOProblem, job_index: int
    ) -> SolveRequest:
        """The solve request of job number ``job_index``."""
        return SolveRequest(
            problem=problem,
            solver=self.config.solver,
            time_budget_ms=self.budget_ms,
            seed=derive_seed(self.config.seed, job_index),
            job_id=problem.name,
        )

    # ------------------------------------------------------------------ #
    # Quality reference
    # ------------------------------------------------------------------ #
    def _reference_cost(self, problem: MQOProblem, job_index: int) -> Optional[float]:
        """Best-known reference cost, or ``None`` when disabled/failed."""
        if not self.config.quality_reference:
            return None
        registry = self.frontend.registry if self.frontend is not None else default_registry()
        try:
            solver = registry.create(self.config.quality_reference)
            trajectory = solver.solve(
                problem,
                time_budget_ms=self.budget_ms,
                seed=derive_seed(self.config.seed, job_index),
            )
        except ReproError:
            return None
        return trajectory.best_cost if trajectory.best_solution is not None else None

    @staticmethod
    def _gap(achieved: Optional[float], reference: Optional[float]) -> Optional[float]:
        """Relative gap of ``achieved`` to the best-known cost."""
        candidates = [c for c in (achieved, reference) if c is not None]
        if achieved is None or not candidates:
            return None
        best_known = min(candidates)
        return (achieved - best_known) / max(1.0, abs(best_known))

    # ------------------------------------------------------------------ #
    # Execution modes
    # ------------------------------------------------------------------ #
    def _run_service(self) -> Tuple[List[_JobOutcome], float]:
        """Closed-loop run through the in-process service frontend."""
        outcomes: List[_JobOutcome] = []
        start = time.perf_counter()
        for job_index, (spec, _instance, problem) in enumerate(self._scenario_jobs()):
            request = self._request_for(problem, job_index)
            job_start = time.perf_counter()
            result = self.frontend.submit(request)
            latency_ms = (time.perf_counter() - job_start) * 1000.0
            outcomes.append(_JobOutcome(spec.name, latency_ms, result, problem, job_index))
        return outcomes, time.perf_counter() - start

    def _run_server(self) -> Tuple[List[_JobOutcome], float]:
        """Run against a real server on an ephemeral port.

        Closed-loop by default; open-loop on the suite's arrival
        schedule when one is attached.
        """
        workers = self.config.workers or 2
        handle = run_server_in_thread(
            ServerConfig(
                port=0,
                workers=workers,
                queue_capacity=1024,
                fusion_window_ms=self.config.fusion_window_ms,
                fusion_max_jobs=self.config.fusion_max_jobs,
            ),
            self.frontend,
        )
        try:
            if self.suite.arrival is not None:
                measured = self._run_server_open_loop(handle.port)
                self._collect_server_stats(handle.port)
                return measured
            outcomes: List[_JobOutcome] = []
            with SolverClient(port=handle.port, client_name="bench", timeout_s=120.0) as client:
                start = time.perf_counter()
                for job_index, (spec, _instance, problem) in enumerate(self._scenario_jobs()):
                    request = self._request_for(problem, job_index)
                    job_start = time.perf_counter()
                    result = client.solve(request)
                    latency_ms = (time.perf_counter() - job_start) * 1000.0
                    outcomes.append(
                        _JobOutcome(spec.name, latency_ms, result, problem, job_index)
                    )
                wall_s = time.perf_counter() - start
                self._server_stats = client.stats()
                return outcomes, wall_s
        finally:
            handle.stop()

    def _collect_server_stats(self, port: int) -> None:
        """Fetch the server's metrics snapshot (for the queue-wait stage)."""
        try:
            with SolverClient(port=port, client_name="bench-stats", timeout_s=30.0) as client:
                self._server_stats = client.stats()
        except Exception:  # noqa: BLE001 — stats are best-effort decoration;
            # losing them must not fail a completed measurement run.
            self._server_stats = None

    #: Connections draining results of an open-loop run.  More than one
    #: so a slow job cannot head-of-line-block the latency measurement
    #: of faster jobs that completed out of order behind it.
    _OPEN_LOOP_COLLECTORS = 4

    def _run_server_open_loop(self, port: int) -> Tuple[List[_JobOutcome], float]:
        """Submit on the arrival schedule; latency counts queueing delay.

        The submitter injects jobs at their scheduled offsets regardless
        of completions; a small pool of collector threads (each on its
        own connection) drains results as they finish.  A job's latency
        runs from its *scheduled* arrival to its collection, so queueing
        delay under overload is part of the number — the open-loop
        signal closed loops cannot see.  Instances are built *before*
        the clock starts, so generation cost can neither delay the
        schedule nor leak into latencies.
        """
        import queue as queue_module
        import threading

        submissions = [
            (due_s, spec, spec.build(instance))
            for due_s, spec, instance in schedule_jobs(
                list(self.suite.scenarios), self.suite.arrival, self.config.seed
            )
        ]
        outcomes: List[_JobOutcome] = []
        outcomes_lock = threading.Lock()
        pending: "queue_module.Queue" = queue_module.Queue()
        start = time.perf_counter()

        def collect() -> None:
            with SolverClient(
                port=port, client_name="bench-collect", timeout_s=120.0
            ) as collector:
                while True:
                    item = pending.get()
                    if item is None:
                        return
                    scenario, due_s, job_id, problem, job_index = item
                    result = collector.wait(job_id)
                    latency_ms = ((time.perf_counter() - start) - due_s) * 1000.0
                    with outcomes_lock:
                        outcomes.append(
                            _JobOutcome(scenario, latency_ms, result, problem, job_index)
                        )

        collectors = [
            threading.Thread(target=collect, name=f"bench-collect-{index}")
            for index in range(self._OPEN_LOOP_COLLECTORS)
        ]
        for thread in collectors:
            thread.start()
        try:
            with SolverClient(
                port=port, client_name="bench-submit", timeout_s=120.0
            ) as client:
                for job_index, (due_s, spec, problem) in enumerate(submissions):
                    now = time.perf_counter() - start
                    if due_s > now:
                        time.sleep(due_s - now)
                    request = self._request_for(problem, job_index)
                    job_id = client.submit(request)
                    pending.put((spec.name, due_s, job_id, problem, job_index))
        finally:
            for _ in collectors:
                pending.put(None)
            for thread in collectors:
                thread.join()
        return outcomes, time.perf_counter() - start

    def _attach_quality(self, outcomes: List[_JobOutcome]) -> None:
        """Compute best-known gaps after the measured run (never inside it).

        The reference solver still runs per instance (it is a solver),
        but the best-known/gap arithmetic over all outcomes happens as
        one NaN-aware array pass instead of per-job Python branching.
        """
        if not self.config.quality_reference or not outcomes:
            return
        achieved = np.full(len(outcomes), np.nan)
        reference = np.full(len(outcomes), np.nan)
        for slot, outcome in enumerate(outcomes):
            if outcome.result.ok and outcome.result.best_cost is not None:
                achieved[slot] = outcome.result.best_cost
            cost = self._reference_cost(outcome.problem, outcome.job_index)
            if cost is not None:
                reference[slot] = cost
        best_known = np.fmin(achieved, reference)  # NaN-ignoring minimum
        with np.errstate(invalid="ignore"):
            gaps = (achieved - best_known) / np.maximum(1.0, np.abs(best_known))
        for outcome, gap in zip(outcomes, gaps.tolist()):
            outcome.gap = None if gap != gap else gap  # NaN -> no gap

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def _scenario_record(
        self, spec: ScenarioSpec, outcomes: List[_JobOutcome]
    ) -> Dict[str, Any]:
        """The per-scenario BENCH block from its job outcomes."""
        latencies = [o.latency_ms for o in outcomes]
        duration_s = sum(latencies) / 1000.0
        gaps = [o.gap for o in outcomes if o.gap is not None]
        record: Dict[str, Any] = {
            "name": spec.name,
            "family": spec.family,
            "jobs": len(outcomes),
            "failures": sum(1 for o in outcomes if not o.result.ok),
            "duration_s": round(duration_s, 3),
            "throughput_jobs_per_s": round(
                len(outcomes) / duration_s if duration_s > 0 else 0.0, 3
            ),
            "latency_ms": summarize_latencies(latencies),
            "params": dict(spec.params),
            "seed": spec.seed,
        }
        if gaps:
            record["quality"] = {
                "mean_gap_to_best_known": round(sum(gaps) / len(gaps), 6),
                "worst_gap_to_best_known": round(max(gaps), 6),
                "best_known_matches": sum(1 for g in gaps if g <= _MATCH_EPSILON),
            }
        return record

    def run(self) -> Dict[str, Any]:
        """Execute the suite and return the validated BENCH document.

        Tracing is switched on for the duration of the run so the
        document can embed a per-stage latency breakdown; the raw spans
        stay available on :attr:`last_spans` for NDJSON export.
        """
        tracer = get_tracer()
        was_enabled = tracer.enabled
        configure_tracer(True)
        tracer.drain()  # stale spans must not pollute this run's breakdown
        self._server_stats = None
        try:
            if self.config.mode == "server":
                outcomes, wall_s = self._run_server()
            else:
                outcomes, wall_s = self._run_service()
        finally:
            self.last_spans = tracer.drain()
            configure_tracer(was_enabled)
        self._attach_quality(outcomes)

        by_scenario: Dict[str, List[_JobOutcome]] = {}
        for outcome in outcomes:
            by_scenario.setdefault(outcome.scenario, []).append(outcome)
        scenario_records = [
            self._scenario_record(spec, by_scenario[spec.name])
            for spec in self.suite.scenarios
            if spec.name in by_scenario
        ]
        all_latencies = [o.latency_ms for o in outcomes]
        self.last_latencies = list(all_latencies)
        queue_wait = (self._server_stats or {}).get("queue_wait")
        totals = {
            "jobs": len(outcomes),
            "failures": sum(1 for o in outcomes if not o.result.ok),
            "duration_s": round(wall_s, 3),
            "throughput_jobs_per_s": round(len(outcomes) / wall_s if wall_s > 0 else 0.0, 3),
            "latency_ms": summarize_latencies(all_latencies),
            "stage_breakdown": stage_breakdown_from_spans(self.last_spans, queue_wait),
        }
        config = {
            "solver": self.config.solver,
            "budget_ms": self.budget_ms,
            "seed": self.config.seed,
            "workers": self.config.workers,
            "quality_reference": self.config.quality_reference,
        }
        if self.config.fusion_window_ms > 0:
            config["fusion_window_ms"] = self.config.fusion_window_ms
            config["fusion_max_jobs"] = self.config.fusion_max_jobs
        if self._open_loop:
            # Open-loop runs take their job count from the arrival
            # schedule; reporting instances_per_scenario here would
            # misdocument the run (see BenchRunConfig).
            config["open_loop"] = True
            config["arrival"] = self.suite.arrival.to_dict()
        else:
            config["instances_per_scenario"] = self.instances
        config.update(self.config.extra_config)
        return build_bench_document(
            suite=self.suite.name,
            mode=self.config.mode,
            scenarios=scenario_records,
            totals=totals,
            config=config,
        )

    def run_and_save(self, output_dir: str | Path) -> Tuple[Dict[str, Any], Path]:
        """Run the suite and write ``BENCH_<suite>.json`` under ``output_dir``."""
        document = self.run()
        path = Path(output_dir) / f"BENCH_{self.suite.name}.json"
        save_bench_document(document, path)
        return document, path


def render_summary(document: Dict[str, Any]) -> str:
    """Human-readable table of a BENCH document (CLI output)."""
    rows = []
    for scenario in document["scenarios"]:
        quality = scenario.get("quality", {})
        rows.append(
            (
                scenario["name"],
                scenario["family"],
                scenario["jobs"],
                scenario["failures"],
                scenario["throughput_jobs_per_s"],
                scenario["latency_ms"]["p50"],
                scenario["latency_ms"]["p99"],
                quality.get("mean_gap_to_best_known", float("nan")),
            )
        )
    totals = document["totals"]
    table = format_table(
        ["scenario", "family", "jobs", "fail", "jobs/s", "p50 ms", "p99 ms", "gap"],
        rows,
        float_fmt=".3f",
    )
    footer = (
        f"suite={document['suite']} mode={document['mode']} "
        f"jobs={totals['jobs']} failures={totals['failures']} "
        f"wall={totals['duration_s']}s "
        f"throughput={totals['throughput_jobs_per_s']} jobs/s "
        f"p99={totals['latency_ms']['p99']} ms"
    )
    return f"{table}\n\n{footer}"


def emit_workload_jsonl(
    suite_name: str,
    path: str | Path,
    solver: str = "CLIMB",
    budget_ms: Optional[float] = None,
    instances: Optional[int] = None,
) -> Path:
    """Write a suite as a JSONL workload for ``repro-mqo batch``/``submit``.

    Each line is a full request dictionary (problem embedded), so the
    batch service and the server rebuild exactly the instances the bench
    orchestrator would run.
    """
    import json

    suite = get_suite(suite_name)
    budget = budget_ms if budget_ms is not None else suite.default_budget_ms
    count = instances if instances is not None else suite.instances_per_scenario
    path = Path(path)
    with path.open("w", encoding="utf-8") as sink:
        for spec in suite.scenarios:
            for instance in range(count):
                problem = spec.build(instance)
                line = {
                    "problem": problem_to_dict(problem),
                    "solver": solver,
                    "time_budget_ms": budget,
                    "job_id": problem.name,
                    "metadata": {"scenario": spec.name, "family": spec.family},
                }
                sink.write(json.dumps(line) + "\n")
    return path
