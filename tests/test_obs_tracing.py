"""Span tracing: parenting, durations, the tree renderings."""

import threading

from repro.obs.clock import ManualClock
from repro.obs.tracing import (NULL_SPAN, NULL_TRACER, SpanTracer,
                               render_span_dicts)


class TestImplicitParenting:
    def test_nested_traces_build_a_tree(self):
        tracer = SpanTracer(clock=ManualClock(step=1.0))
        with tracer.trace("campaign", app="minidb"):
            with tracer.trace("profile"):
                pass
            with tracer.trace("cases"):
                pass
        (root,) = tracer.roots
        assert root.name == "campaign"
        assert [c.name for c in root.children] == ["profile", "cases"]
        assert root.attrs == {"app": "minidb"}

    def test_sequential_roots_stay_roots(self):
        tracer = SpanTracer(clock=ManualClock(step=1.0))
        with tracer.trace("one"):
            pass
        with tracer.trace("two"):
            pass
        assert [r.name for r in tracer.roots] == ["one", "two"]
        assert tracer.current() is None

    def test_manual_clock_durations_are_exact(self):
        clock = ManualClock()
        tracer = SpanTracer(clock=clock)
        with tracer.trace("outer") as outer:
            clock.advance(2.0)
            with tracer.trace("inner") as inner:
                clock.advance(0.5)
        assert inner.duration == 0.5
        assert outer.duration == 2.5
        assert outer.start == 0.0


class TestExplicitParenting:
    """There is none: a span's parent is the innermost open span on its
    own thread, so a worker thread's spans are roots."""

    def test_without_parent_worker_spans_become_roots(self):
        tracer = SpanTracer(clock=ManualClock(step=1.0))
        with tracer.trace("main"):
            t = threading.Thread(
                target=lambda: tracer.trace("orphan").__enter__())
            t.start()
            t.join()
        assert sorted(r.name for r in tracer.roots) == ["main", "orphan"]


class TestExport:
    def test_to_dicts_shape(self):
        clock = ManualClock()
        tracer = SpanTracer(clock=clock)
        with tracer.trace("outer", app="x") as span:
            clock.advance(1.0)
            span.set(cases=4)
        (d,) = tracer.to_dicts()
        assert d["name"] == "outer"
        assert d["duration"] == 1.0
        assert d["attrs"] == {"app": "x", "cases": 4}
        assert d["children"] == []

    def test_render_tree_indents_children(self):
        clock = ManualClock()
        tracer = SpanTracer(clock=clock)
        with tracer.trace("campaign"):
            with tracer.trace("profile", soname="libc.so.6"):
                clock.advance(0.25)
        text = tracer.render_tree()
        lines = text.splitlines()
        assert lines[0].startswith("campaign")
        assert lines[1].startswith("  profile")
        assert "0.250000s" in lines[1]
        assert "(soname=libc.so.6)" in lines[1]

    def test_render_span_dicts_accepts_loaded_json(self):
        spans = [{"name": "a", "duration": 1.0, "attrs": {},
                  "children": [{"name": "b", "duration": 0.5,
                                "attrs": {"k": 1}, "children": []}]}]
        text = render_span_dicts(spans)
        assert text.splitlines()[1].startswith("  b")
        assert "(k=1)" in text

    def test_clear(self):
        tracer = SpanTracer()
        with tracer.trace("x"):
            pass
        tracer.clear()
        assert tracer.to_dicts() == []


class TestNullTracer:
    def test_trace_is_reusable_and_inert(self):
        with NULL_TRACER.trace("anything", key="value") as span:
            assert span is NULL_SPAN
            assert span.set(more=1) is NULL_SPAN
        assert NULL_TRACER.to_dicts() == []
        assert NULL_TRACER.current() is None
        assert not NULL_TRACER.enabled

    def test_null_span_exports_empty(self):
        assert NULL_SPAN.to_dict()["children"] == []
        assert NULL_SPAN.duration == 0.0
