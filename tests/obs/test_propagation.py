"""Spans across the two execution boundaries: threads and shard processes.

``contextvars`` do not cross ``ThreadPoolExecutor`` boundaries on their
own, so the portfolio scheduler re-installs the captured parent context
in every racing thread: child spans must join the parent's trace.  A
shard process traces each job with its own tracer and ships the finished
spans back over its pipe, where the parent adopts them tagged with the
shard; ``repro-mqo batch --workers N`` runs on those shards.
"""

import json

import pytest

from repro.mqo.generator import generate_paper_testcase
from repro.obs.trace import Tracer, configure_tracer, get_tracer
from repro.service.portfolio import PortfolioScheduler


@pytest.fixture()
def tracing():
    """Enable the global tracer for one test; restore and drain after."""
    tracer = get_tracer()
    was_enabled = tracer.enabled
    configure_tracer(True)
    tracer.drain()
    yield tracer
    tracer.drain()
    configure_tracer(was_enabled)


def _specs(count: int):
    spec = {"queries": 4, "plans": 2, "solver": "LIN-MQO", "budget_ms": 500.0, "seed": 7}
    return [dict(spec, generator_seed=index) for index in range(count)]


class TestThreadPropagation:
    def test_portfolio_members_join_the_ambient_trace(self, tracing):
        problem = generate_paper_testcase(5, 2, seed=3)
        scheduler = PortfolioScheduler(solvers=("LIN-MQO", "CLIMB"))
        with tracing.span("request") as parent:
            scheduler.solve(problem, time_budget_ms=200.0, seed=1)
        members = [s for s in tracing.drain() if s.name == "portfolio.member"]
        assert {s.attributes["solver"] for s in members} == {"LIN-MQO", "CLIMB"}
        for member in members:
            # Racing threads re-install the captured parent context.
            assert member.context.trace_id == parent.context.trace_id
            assert member.parent_id == parent.context.span_id

    def test_without_ambient_span_members_start_fresh_traces(self, tracing):
        problem = generate_paper_testcase(5, 2, seed=3)
        PortfolioScheduler(solvers=("LIN-MQO",)).solve(problem, time_budget_ms=200.0, seed=1)
        members = [s for s in tracing.drain() if s.name == "portfolio.member"]
        assert members and all(s.parent_id is None for s in members)


class TestProcessPropagation:
    """Shard processes trace locally and ship their spans over the pipe."""

    def test_shard_spans_are_adopted_with_their_shard(self, run_batch, tmp_path):
        trace = tmp_path / "trace.ndjson"
        specs = _specs(4) + _specs(1)  # the repeat is answered without a solve
        exit_code, results = run_batch(specs, "--workers", 2, "--seed", 9, "--trace", trace)
        assert exit_code == 0
        solved = [result for result in results if not result["from_cache"]]
        assert len(solved) == 4
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        executes = [r for r in records if r["name"] == "service.execute"]
        # One span per solved job, produced in a shard process, shipped
        # back with its result and tagged with the shard that ran it.
        assert sorted(r["attributes"]["job_id"] for r in executes) == sorted(
            result["job_id"] for result in solved
        )
        assert {r["attributes"]["shard"] for r in executes} <= {0, 1}
        assert all(r["duration_ms"] is not None for r in executes)

    def test_inline_execution_traces_identically(self, run_batch, tmp_path):
        trace = tmp_path / "trace.ndjson"
        exit_code, _ = run_batch(_specs(2), "--workers", 0, "--seed", 9, "--trace", trace)
        assert exit_code == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        executes = [r for r in records if r["name"] == "service.execute"]
        # The thread tier traces in this process: the same one span per
        # job, with no shard to name.
        assert sorted(r["attributes"]["job_id"] for r in executes) == ["job-0", "job-1"]
        assert all("shard" not in r["attributes"] for r in executes)

    def test_disabled_tracer_ships_no_spans_from_workers(self, run_batch, monkeypatch):
        tracer = get_tracer()
        assert not tracer.enabled  # the suite default
        adopted = []
        monkeypatch.setattr(Tracer, "adopt", lambda self, records: adopted.extend(records))
        exit_code, results = run_batch(_specs(2), "--workers", 2, "--seed", 9)
        assert exit_code == 0 and len(results) == 2
        assert adopted == []
        assert len(tracer) == 0
