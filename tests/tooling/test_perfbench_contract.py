"""Contract between the benchmark's traced run and the program.

``perfbench/tracing.py`` wraps public functions by module and attribute
path and reads a few attributes of their arguments and results.  A
rename in ``src/`` would otherwise only surface as a crash of
``perfbench/run.py --trace 1``; these tests fail first.  They import
``perfbench`` from the checkout and never modify it.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.tracing")


def _owner_and_attribute(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def test_every_wrapped_function_resolves(tracing):
    for module_name, path, span_name in tracing.WRAPPED:
        owner, attribute = _owner_and_attribute(module_name, path)
        # install_wrappers reads the attribute from the owner's own namespace.
        assert attribute in vars(owner), f"{module_name}.{path} is not defined there"
        assert span_name in tracing.LAYER_OF_SPAN, span_name


def test_install_then_undo_restores_every_original(tracing):
    targets = [_owner_and_attribute(module, path) for module, path, _ in tracing.WRAPPED]
    originals = [vars(owner)[attribute] for owner, attribute in targets]
    uninstall = tracing.install_wrappers()
    try:
        for (owner, attribute), original in zip(targets, originals):
            assert vars(owner)[attribute] is not original
    finally:
        uninstall()
    for (owner, attribute), original in zip(targets, originals):
        assert vars(owner)[attribute] is original


def test_traced_qa_solve_annotates_its_spans(tracing):
    """The attributes the per-layer ratios read exist on a real QA solve."""
    from repro.chimera.hardware import DWAVE_2X
    from repro.obs.trace import configure_tracer, get_tracer
    from repro.service.frontend import ServiceFrontend
    from repro.service.jobs import SolveRequest
    from repro.workloads.embedded import generate_embedded_testcase

    # Four queries: the presolve leaves three of them to anneal, while
    # it decides the three-query instance of this seed without one.
    problem = generate_embedded_testcase(
        4, 2, DWAVE_2X.build_topology(perfect=True), seed=1
    ).problem
    tracer = get_tracer()
    enabled, buffer_size = tracer.enabled, tracer.buffer_size
    uninstall = tracing.install_wrappers()
    try:
        tracing.start_tracing()
        result = ServiceFrontend().submit(
            SolveRequest(problem=problem, solver="QA", time_budget_ms=10.0, seed=3)
        )
        spans = tracing.stop_tracing()
    finally:
        uninstall()
        configure_tracer(enabled, buffer_size=buffer_size)
    assert result.ok, result.error
    names = {span.name for span in spans}
    for name in ("annealer.program", "annealer.sweep", "annealer.readout", "decode.unembed"):
        assert name in names
    (program,) = [span for span in spans if span.name == "annealer.program"]
    assert program.attributes["reads"] == 26
    assert program.attributes["spin_updates"] > 0
    (physical,) = [span for span in spans if span.name == "core.physical_map"]
    assert physical.attributes["qubits_per_variable"] >= 1.0
    totals, _unmapped = tracing.layer_split(spans)
    assert totals["annealer.sweep_ms"] > 0
