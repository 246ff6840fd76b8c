"""Unit tests of the tracer: spans, nesting, the no-op path, buffering."""

import pytest

from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanContext,
    Tracer,
    configure_tracer,
    get_tracer,
)


class TestSpanBasics:
    def test_span_records_duration_and_status(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work", {"k": 1}) as span:
            span.set_attribute("extra", "v")
        (finished,) = tracer.drain()
        assert finished is span
        assert finished.name == "work"
        assert finished.status == "ok"
        assert finished.duration_ms is not None and finished.duration_ms >= 0.0
        assert finished.attributes == {"k": 1, "extra": "v"}

    def test_nested_spans_share_trace_and_link_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.context.trace_id == outer.context.trace_id
        assert inner.parent_id == outer.context.span_id
        assert outer.parent_id is None
        # Finished innermost-first.
        assert [s.name for s in tracer.drain()] == ["inner", "outer"]

    def test_sibling_spans_get_distinct_ids(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root"):
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.context.span_id != b.context.span_id
        assert a.parent_id == b.parent_id

    def test_exception_marks_span_as_error(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (finished,) = tracer.drain()
        assert finished.status == "error"
        assert finished.attributes["error"] == "ValueError"

    def test_span_dict_round_trip(self):
        tracer = Tracer(enabled=True)
        with tracer.span("stage", {"n": 3}):
            pass
        (finished,) = tracer.drain()
        rebuilt = Span.from_dict(finished.to_dict())
        assert rebuilt.to_dict() == finished.to_dict()


class TestDisabledPath:
    def test_disabled_span_is_the_shared_noop_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is NOOP_SPAN
        assert tracer.span("else", {"a": 1}) is NOOP_SPAN

    def test_noop_span_supports_the_full_span_surface(self):
        with Tracer(enabled=False).span("x") as span:
            span.set_attribute("k", "v")
        assert span is NOOP_SPAN

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x"):
            pass
        assert len(tracer) == 0
        assert tracer.current_context() is None


class TestBufferAndAdopt:
    def test_buffer_is_bounded_and_counts_drops(self):
        tracer = Tracer(enabled=True, buffer_size=2)
        for i in range(4):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.dropped == 2
        assert [s.name for s in tracer.drain()] == ["s2", "s3"]
        assert len(tracer) == 0

    def test_adopt_ingests_foreign_records(self):
        tracer = Tracer(enabled=True)
        source = Tracer(enabled=True)
        with source.span("remote"):
            pass
        records = [s.to_dict() for s in source.drain()]
        assert tracer.adopt(records) == 1
        (adopted,) = tracer.drain()
        assert adopted.name == "remote"
        assert adopted.duration_ms is not None

    def test_invalid_buffer_size_rejected(self):
        with pytest.raises(ValueError):
            Tracer(buffer_size=0)
        with pytest.raises(ValueError):
            configure_tracer(True, buffer_size=-1)
        configure_tracer(False)


class TestContextPlumbing:
    def test_activate_installs_a_foreign_parent(self):
        tracer = Tracer(enabled=True)
        context = SpanContext("feedbeeffeedbeef", "abc-00000001")
        with tracer.activate(context):
            with tracer.span("child") as child:
                pass
        assert child.context.trace_id == "feedbeeffeedbeef"
        assert child.parent_id == "abc-00000001"

    def test_activate_none_is_a_no_op(self):
        tracer = Tracer(enabled=True)
        with tracer.activate(None):
            with tracer.span("root") as root:
                pass
        assert root.parent_id is None

    def test_span_context_equality(self):
        context = SpanContext("t1", "s1")
        assert SpanContext("t1", "s1") == context
        assert hash(SpanContext("t1", "s1")) == hash(context)
        assert context != SpanContext("t1", "s2")


class TestGlobalTracer:
    def test_configure_mutates_the_singleton_in_place(self):
        reference = get_tracer()
        was_enabled = reference.enabled
        try:
            assert configure_tracer(True) is reference
            assert reference.enabled
            configure_tracer(False)
            assert not reference.enabled
        finally:
            configure_tracer(was_enabled)
