"""Traced runs: timing spans around each layer's public functions.

End-to-end runs install nothing from this module.  A traced run calls
:func:`install_wrappers`, which replaces the public functions named in
``WRAPPED`` with versions that open a span on the program's own tracer,
so the benchmark's spans nest with the program's existing ``mqo.*`` and
``service.*`` spans through one context variable.
Spans stay in the tracer's memory buffer until :func:`layer_split`
reduces them.

A layer's time is the *self* time of its spans: each span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

from repro.obs.trace import configure_tracer, get_tracer

__all__ = ["install_wrappers", "start_tracing", "stop_tracing", "layer_split", "coverage"]

#: (module, attribute path, span name) of every wrapped public function.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.chimera.hardware", "DWaveSpec.build_topology", "annealer.device_init"),
    ("repro.annealer.device", "DWaveSamplerSimulator.__init__", "annealer.device_init"),
    ("repro.annealer.device", "DWaveSamplerSimulator.program_anneal", "annealer.program"),
    ("repro.annealer.device", "DWaveSamplerSimulator.anneal_programmed", "annealer.sweep"),
    ("repro.annealer.device", "DWaveSamplerSimulator.batch_assignments", "annealer.readout"),
    ("repro.annealer.device", "DWaveSamplerSimulator.assemble_samples", "annealer.readout"),
    ("repro.core.logical", "LogicalMapping.__init__", "core.qubo_build"),
    ("repro.core.pipeline", "QuantumMQO.build_embedding", "embedding.embed"),
    ("repro.core.pipeline", "embed_logical_qubo", "core.physical_map"),
    ("repro.core.physical", "PhysicalMapping.unembed_samples", "decode.unembed"),
    ("repro.core.logical", "LogicalMapping.solutions_from_sampleset", "decode.solutions"),
    ("repro.core.logical", "LogicalMapping.repair", "decode.repair"),
    ("repro.mqo.serialization", "canonical_problem_hash", "mqo.canonical_hash"),
    ("repro.mqo.arrays", "build_problem_arrays", "mqo.arrays"),
    ("repro.core.pipeline", "exact_problem_token", "mqo.exact_token"),
    ("repro.service.qa_adapter", "exact_problem_token", "mqo.exact_token"),
    ("repro.service.jobs", "exact_problem_token", "mqo.exact_token"),
    ("repro.baselines.hillclimb", "IteratedHillClimbing.solve", "baselines.solve"),
    ("repro.server.protocol", "decode_frame", "server.decode"),
    ("repro.server.protocol", "encode_frame", "server.encode"),
    ("repro.server.app", "request_from_spec", "server.parse"),
    ("perfbench.loadgen", "encode_frame", "bench.client_encode"),
    ("perfbench.loadgen", "decode_frame", "bench.client_decode"),
)

#: Span name -> the per-layer metric its self time is reported under.
LAYER_OF_SPAN: Dict[str, str] = {
    "annealer.device_init": "annealer.device_init_ms",
    "annealer.program": "annealer.program_ms",
    "annealer.sweep": "annealer.sweep_ms",
    "annealer.readout": "annealer.readout_ms",
    "core.qubo_build": "core.qubo_build_ms",
    "embedding.embed": "embedding.embed_ms",
    "core.physical_map": "core.physical_map_ms",
    "decode.unembed": "decode.unembed_ms",
    "decode.solutions": "decode.solutions_ms",
    "decode.repair": "decode.repair_ms",
    "mqo.decode": "decode.loop_ms",
    "mqo.canonical_hash": "mqo.canonical_hash_ms",
    "mqo.arrays": "mqo.arrays_ms",
    "mqo.exact_token": "mqo.exact_token_ms",
    "mqo.prepare": "mqo.pipeline_ms",
    "mqo.qubo_build": "mqo.pipeline_ms",
    "mqo.embed": "mqo.pipeline_ms",
    "mqo.physical_map": "mqo.pipeline_ms",
    "mqo.anneal": "mqo.pipeline_ms",
    "baselines.solve": "baselines.solve_ms",
    "service.submit": "service.self_ms",
    "service.execute": "service.self_ms",
    "server.decode": "server.frame_ms",
    "server.encode": "server.frame_ms",
    "server.parse": "server.parse_ms",
    "bench.client_encode": "bench.client_ms",
    "bench.client_decode": "bench.client_ms",
}

#: Capacity of the in-memory span buffer during a traced pass.
SPAN_BUFFER = 1_000_000


def _span_wrapper(function: Callable, span_name: str) -> Callable:
    tracer = get_tracer()

    @functools.wraps(function)
    def traced(*args, **kwargs):
        with tracer.span(span_name) as span:
            result = function(*args, **kwargs)
            _annotate(span_name, span, args, kwargs, result)
            return result

    return traced


def _annotate(span_name: str, span, args, kwargs, result) -> None:
    """Attach the counts the per-layer ratios are computed from."""
    if span_name == "annealer.program":
        device = args[0]
        sweeps = device.batched_sampler.num_sweeps
        span.set_attribute("reads", result.num_reads)
        span.set_attribute(
            "spin_updates", result.num_reads * sweeps * len(result.qubo.variables)
        )
    elif span_name == "core.physical_map":
        span.set_attribute("qubits_per_variable", result.qubits_per_variable)
    elif span_name == "baselines.solve":
        budget = kwargs.get("time_budget_ms", args[2] if len(args) > 2 else None)
        span.set_attribute("budget_ms", float(budget))


def install_wrappers() -> Callable[[], None]:
    """Wrap every function in ``WRAPPED``; returns the undo callable."""
    undo: List[Callable[[], None]] = []
    for module_name, path, span_name in WRAPPED:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = owner.__dict__[attribute]
        if isinstance(original, staticmethod):
            replacement = staticmethod(_span_wrapper(original.__func__, span_name))
        else:
            replacement = _span_wrapper(original, span_name)
        setattr(owner, attribute, replacement)
        undo.append(functools.partial(setattr, owner, attribute, original))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


def start_tracing() -> None:
    """Enable the program's tracer with an empty, large buffer."""
    tracer = configure_tracer(True, buffer_size=SPAN_BUFFER)
    tracer.drain()


def stop_tracing() -> List:
    """Disable the tracer and return every span it buffered."""
    tracer = get_tracer()
    tracer.enabled = False
    if tracer.dropped:
        raise RuntimeError(f"the span buffer dropped {tracer.dropped} spans")
    return tracer.drain()


def layer_split(spans: Sequence) -> Tuple[Dict[str, float], List[str]]:
    """Self time per layer metric (ms, summed) and the unmapped span names."""
    child_ms: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            child_ms[span.parent_id] += span.duration_ms
    totals: Dict[str, float] = defaultdict(float)
    unmapped = set()
    for span in spans:
        metric = LAYER_OF_SPAN.get(span.name)
        if metric is None:
            unmapped.add(span.name)
            continue
        totals[metric] += max(0.0, span.duration_ms - child_ms[span.context.span_id])
    return dict(totals), sorted(unmapped)


def _union(intervals: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def coverage(spans: Sequence, busy: Sequence[Tuple[float, float]]) -> float:
    """Share of the ``busy`` wall time (epoch seconds) some layer span covers."""
    covered = _union(
        [(span.start_s, span.start_s + span.duration_ms / 1000.0) for span in spans]
    )
    busy = _union(busy)
    total = sum(end - start for start, end in busy)
    overlap, i = 0.0, 0
    for start, end in busy:
        while i < len(covered) and covered[i][1] <= start:
            i += 1
        j = i
        while j < len(covered) and covered[j][0] < end:
            overlap += min(end, covered[j][1]) - max(start, covered[j][0])
            j += 1
    return overlap / total if total > 0 else 0.0
