"""Service/pipeline counters on the process-global metrics registry.

The registry is process-global and cumulative, so every assertion works
on *deltas* around the exercised operation.
"""

from repro.mqo.generator import generate_paper_testcase
from repro.obs.metrics import get_registry
from repro.service.cache import ResultCache
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest


def _counter(name, **labels):
    return get_registry().counter(name, labels=labels or None)


def _request(seed=0, solver="CLIMB"):
    return SolveRequest(
        problem=generate_paper_testcase(4, 2, seed=seed),
        solver=solver,
        time_budget_ms=100.0,
        seed=1,
    )


class TestResultCacheCounters:
    def test_hit_and_miss_counters_track_the_frontend_cache(self):
        hits = _counter("repro_service_result_cache_hits_total")
        misses = _counter("repro_service_result_cache_misses_total")
        frontend = ServiceFrontend(cache=ResultCache())
        before = (hits.value, misses.value)
        frontend.submit(_request())
        frontend.submit(_request())  # identical → served from the cache
        assert hits.value == before[0] + 1
        assert misses.value == before[1] + 1


class TestWinnerAttribution:
    def test_wins_are_labelled_by_solver(self):
        wins = _counter("repro_service_wins_total", solver="CLIMB")
        before = wins.value
        ServiceFrontend().submit(_request(seed=7))
        assert wins.value == before + 1


class TestImprovementCounter:
    def test_trajectory_improvements_are_counted(self):
        improvements = _counter("repro_solver_improvements_total")
        before = improvements.value
        ServiceFrontend().submit(_request(seed=3))
        # CLIMB records at least its first solution as an improvement.
        assert improvements.value > before


class TestAnnealCounters:
    def test_reads_and_gauge_batches_accumulate(self):
        from repro.core.pipeline import QuantumMQO

        reads = _counter("repro_anneal_reads_total")
        gauges = _counter("repro_anneal_gauge_batches_total")
        before = (reads.value, gauges.value)
        QuantumMQO(seed=0).solve(generate_paper_testcase(4, 2, seed=0), num_reads=40)
        assert reads.value == before[0] + 40
        assert gauges.value > before[1]


class TestEmbedSpans:
    def test_a_presolved_qa_request_opens_one_embed_span(self):
        """The adapter searches the original instance's embedding once and
        hands its restriction to the pipeline, which searches nothing: one
        ``mqo.embed`` span per annealed request, so ``mean_ms`` of the
        bench's ``embed`` stage is the whole search time."""
        from repro.mqo.presolve import presolve
        from repro.obs.trace import configure_tracer, get_tracer
        from repro.service.qa_adapter import QuantumAnnealingSolver

        problem = generate_paper_testcase(6, 3, seed=1)
        assert presolve(problem).reduced is not None  # something is annealed
        tracer = get_tracer()
        enabled, buffer_size = tracer.enabled, tracer.buffer_size
        configure_tracer(True, buffer_size=10_000)
        tracer.drain()
        QuantumAnnealingSolver.prepared_cache.clear()
        try:
            result = ServiceFrontend().submit(
                SolveRequest(problem=problem, solver="QA", time_budget_ms=40.0, seed=1)
            )
            names = [span.name for span in tracer.drain()]
        finally:
            configure_tracer(enabled, buffer_size=buffer_size)
            QuantumAnnealingSolver.prepared_cache.clear()
        assert result.ok, result.error
        assert names.count("mqo.prepare") == 1
        assert names.count("mqo.embed") == 1
