"""Pinned QA answers: seeded solves must keep their exact outputs.

The annealer's host-side code (gauge programming, read-out, chain
decoding) may be rewritten for speed, but every seeded request must keep
returning the same selected plans, best cost and trajectory.  This module
replays a fixed set of solves covering every QA entry point and compares
them with ``qa_pinned.json``:

* two Section 7.1 instances per paper class through ``ServiceFrontend.submit``:
  a small one and one at a quarter of the D-Wave 2X's native capacity,
* the same requests as one ``ServiceFrontend.submit_fused`` window,
* a default (noisy, defective) device through ``QuantumMQO.solve``,
* noisy solves with the ``FIRST`` and ``DISCARD`` chain read-outs.

Served requests are presolved: the small 2-, 4- and 5-plan instances
are decided without an anneal, and the others anneal what the presolve
leaves.  The last three cases run ``QuantumMQO`` directly and are not
presolved.

The paper-class requests also run over a socket through a thread
server, a fusion server, a 2-shard server and a fusing 2-shard server,
and each answer must equal its pinned ``submit`` record: a seeded
request gets one answer on every execution tier, and both fusing
servers fuse the anneals of several of them (on shards, in the shard
processes whose spans the server adopts).

Regenerate the fixture only when a change is *meant* to alter answers::

    PYTHONPATH=src python tests/integration/test_qa_pinned.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.annealer.device import DWaveSamplerSimulator
from repro.chimera.hardware import DWAVE_2X
from repro.core.physical import PhysicalMappingConfig
from repro.core.pipeline import QuantumMQO, QuantumMQOResult
from repro.embedding.unembed import ChainReadout
from repro.mqo.generator import generate_paper_testcase
from repro.obs.trace import configure_tracer, get_tracer
from repro.server.app import ServerConfig, run_server_in_thread
from repro.server.client import SolverClient
from repro.server.readiness import wait_for_server
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest, SolveResult
from repro.workloads.embedded import generate_embedded_testcase

FIXTURE = Path(__file__).with_name("qa_pinned.json")

#: (plans per query, queries) of the four paper classes, kept small.
PAPER_CLASSES = ((2, 8), (3, 6), (4, 5), (5, 4))

#: The four classes at a quarter of their native capacity on the
#: D-Wave 2X (the benchmark's 1/4-capacity size).
QUARTER_CLASSES = ((2, 144), (3, 72), (4, 36), (5, 36))

#: Pinned key of each served request, in submission order.
SERVED = [f"{plans}-plans" for plans, _ in PAPER_CLASSES] + [
    f"quarter-{plans}-plans" for plans, _ in QUARTER_CLASSES
]


def _class_requests() -> List[SolveRequest]:
    topology = DWAVE_2X.build_topology(perfect=True)
    return [
        SolveRequest(
            problem=generate_embedded_testcase(
                num_queries=queries,
                plans_per_query=plans,
                topology=topology,
                seed=100 + plans,
            ).problem,
            solver="QA",
            time_budget_ms=40.0,
            seed=1000 + plans,
        )
        for plans, queries in PAPER_CLASSES + QUARTER_CLASSES
    ]


def _service_record(result: SolveResult) -> Dict[str, Any]:
    assert result.ok, result.error
    return {
        "selected_plans": sorted(result.selected_plans),
        "best_cost": result.best_cost,
        "trajectory": [[float(t), float(c)] for t, c in result.trajectory],
    }


def _pipeline_record(result: QuantumMQOResult) -> Dict[str, Any]:
    return {
        "selected_plans": sorted(result.best_solution.selected_plans),
        "best_cost": result.best_solution.cost,
        "raw_selected_plans": sorted(result.best_raw_solution.selected_plans),
        "raw_cost": result.best_raw_solution.cost,
        "trajectory": [[float(t), float(c)] for t, c in result.trajectory],
        "num_broken_chain_reads": result.num_broken_chain_reads,
        "num_invalid_reads": result.num_invalid_reads,
    }


def _noisy_solve(readout: ChainReadout) -> QuantumMQOResult:
    problem = generate_paper_testcase(5, 4, seed=3)
    device = DWaveSamplerSimulator(seed=11)
    pipeline = QuantumMQO(
        device=device, physical_config=PhysicalMappingConfig(readout=readout), seed=11
    )
    return pipeline.solve(problem, num_reads=60, num_gauges=6, seed=17)


def pinned_outputs() -> Dict[str, Dict[str, Any]]:
    """Every pinned case, computed by the code under test."""
    outputs: Dict[str, Dict[str, Any]] = {}
    requests = _class_requests()
    for key, request in zip(SERVED, requests):
        outputs[f"submit/{key}"] = _service_record(ServiceFrontend().submit(request))
    fused = ServiceFrontend().submit_fused(requests)
    for key, result in zip(SERVED, fused):
        outputs[f"submit_fused/{key}"] = _service_record(result)
    outputs["noisy-default-device"] = _pipeline_record(
        QuantumMQO(seed=21).solve(generate_paper_testcase(6, 3, seed=5), num_reads=50)
    )
    for readout in (ChainReadout.FIRST, ChainReadout.DISCARD):
        outputs[f"readout/{readout.value}"] = _pipeline_record(
            _noisy_solve(readout)
        )
    return outputs


@pytest.fixture(scope="module")
def computed() -> Dict[str, Dict[str, Any]]:
    return pinned_outputs()


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Dict[str, Any]]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(computed, pinned):
    assert sorted(computed) == sorted(pinned)


CASES = (
    [f"submit/{key}" for key in SERVED]
    + [f"submit_fused/{key}" for key in SERVED]
    + ["noisy-default-device", "readout/first", "readout/discard"]
)


@pytest.mark.parametrize("case", CASES)
def test_output_unchanged(case, computed, pinned):
    assert computed[case] == pinned[case]


def test_readout_cases_exercise_broken_chains(pinned):
    """The read-out cases only pin something if chains actually break."""
    for case in ("readout/first", "readout/discard"):
        reads = len(pinned[case]["trajectory"])
        assert 0 < pinned[case]["num_broken_chain_reads"] < reads
    assert pinned["readout/first"] != pinned["readout/discard"]


def test_fused_window_matches_solo_submits(pinned):
    for key in SERVED:
        assert pinned[f"submit/{key}"] == pinned[f"submit_fused/{key}"]


def test_served_cases_cover_the_anneal_and_the_presolve(pinned):
    """Decided requests answer at time zero; the others anneal."""
    decided = [key for key in SERVED if pinned[f"submit/{key}"]["trajectory"][-1][0] == 0.0]
    assert "5-plans" in decided
    assert len(SERVED) - len(decided) >= 2
    for key in decided:
        record = pinned[f"submit/{key}"]
        assert record["trajectory"] == [[0.0, record["best_cost"]]]


#: Server configuration of each execution tier.
SERVER_TIERS = {
    "threads": dict(workers=2),
    "fusion": dict(workers=2, fusion_window_ms=300.0, fusion_max_jobs=4),
    "shards": dict(shards=2),
    "fused-shards": dict(shards=2, fusion_window_ms=300.0, fusion_max_jobs=4),
}


@pytest.mark.parametrize("tier", sorted(SERVER_TIERS))
def test_server_tier_matches_pinned_submits(tier, pinned):
    """The paper-class requests, submitted over a socket, keep their pinned answers."""
    config = ServerConfig(**SERVER_TIERS[tier])
    tracer = get_tracer()
    enabled, buffer_size = tracer.enabled, tracer.buffer_size
    configure_tracer(True, buffer_size=100_000)
    tracer.drain()
    handle = run_server_in_thread(config, ServiceFrontend())
    try:
        wait_for_server(port=handle.port, timeout_s=30.0, min_shards=config.shards or None)
        with SolverClient(port=handle.port) as client:
            job_ids = [
                client.submit(
                    request.problem,
                    solver=request.solver,
                    budget_ms=request.time_budget_ms,
                    seed=request.seed,
                )
                for request in _class_requests()
            ]
            results = [client.wait(job_id) for job_id in job_ids]
            if config.fusion_window_ms > 0:
                assert client.stats()["counters"]["fusion_jobs"] == len(job_ids)
    finally:
        handle.stop()
        spans = tracer.drain()
        configure_tracer(enabled, buffer_size=buffer_size)
    for key, result in zip(SERVED, results):
        assert _service_record(result) == pinned[f"submit/{key}"]
    if config.fusion_window_ms > 0:
        fused = [span.attributes["jobs"] for span in spans if span.name == "service.fuse"]
        assert max(fused) >= 2, f"no window fused two anneals: {fused}"
        if config.shards:
            shards = {span.attributes.get("shard") for span in spans if span.name == "service.fuse"}
            assert None not in shards, "a fused anneal ran outside the shards"


if __name__ == "__main__":
    outputs = pinned_outputs()
    assert all(math.isfinite(case["best_cost"]) for case in outputs.values())
    FIXTURE.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} cases to {FIXTURE}")
