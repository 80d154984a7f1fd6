"""Span tracer tests: nesting, propagation, the disabled pool."""

import asyncio
import io
import json

from repro import telemetry
from repro.telemetry import (
    DISABLED,
    InMemoryRecorder,
    JsonLinesRecorder,
    SpanRecord,
    Telemetry,
)
from repro.telemetry.spans import CURRENT_SPAN


def _fake_clock(state):
    def clock():
        return state["now"]

    return clock


class TestRecordingSpans:
    def test_nested_spans_share_a_trace_and_parent_correctly(self):
        clock = {"now": 0.0}
        bundle = Telemetry.recording(clock=_fake_clock(clock))
        with bundle.use():
            with telemetry.span("compile") as root:
                clock["now"] += 1.0
                with telemetry.span("partition"):
                    clock["now"] += 2.0
                with telemetry.span("solve", components=3):
                    clock["now"] += 4.0

        spans = bundle.recorder.spans
        assert [s.name for s in spans] == ["partition", "solve", "compile"]
        compile_record = spans[-1]
        assert compile_record.parent_id is None
        assert compile_record.duration == 7.0
        assert {s.trace_id for s in spans} == {compile_record.trace_id}
        for child in spans[:-1]:
            assert child.parent_id == compile_record.span_id
        assert spans[1].attributes == {"components": 3}
        assert root.duration == 7.0

    def test_exception_annotates_and_closes_the_span(self):
        bundle = Telemetry.recording()
        with bundle.use():
            try:
                with telemetry.span("doomed"):
                    raise ValueError("boom")
            except ValueError:
                pass
        (record,) = bundle.recorder.spans
        assert record.attributes["error"] == "ValueError"
        assert CURRENT_SPAN.get() is None

    def test_sibling_traces_get_distinct_trace_ids(self):
        bundle = Telemetry.recording()
        with bundle.use():
            with telemetry.span("first"):
                pass
            with telemetry.span("second"):
                pass
        first, second = bundle.recorder.spans
        assert first.trace_id != second.trace_id
        assert first.parent_id is None and second.parent_id is None

    def test_asyncio_tasks_inherit_the_open_parent(self):
        bundle = Telemetry.recording()

        async def child(name):
            with telemetry.span(name):
                await asyncio.sleep(0)

        async def run():
            with bundle.use():
                with telemetry.span("batch"):
                    await asyncio.gather(child("a"), child("b"))

        asyncio.run(run())
        batch = [s for s in bundle.recorder.spans if s.name == "batch"][0]
        children = [s for s in bundle.recorder.spans if s.name in ("a", "b")]
        assert len(children) == 2
        assert all(s.parent_id == batch.span_id for s in children)


class TestDisabledSpans:
    def test_disabled_spans_still_measure_duration(self):
        clock = {"now": 0.0}
        bundle = Telemetry(clock=_fake_clock(clock))
        with bundle.use():
            with telemetry.span("anything") as span:
                clock["now"] += 3.0
        assert span.duration == 3.0

    def test_disabled_spans_are_recycled_not_recorded(self):
        with telemetry.span("one") as first:
            assert CURRENT_SPAN.get() is None  # never set when disabled
        with telemetry.span("two") as second:
            pass
        # The pool handed back the same object: zero allocations in steady state.
        assert first is second
        assert telemetry.active() is DISABLED

    def test_disabled_metric_helpers_are_noops(self):
        telemetry.counter("nope")
        telemetry.observe("nope", 1.0)
        telemetry.gauge("nope", 1.0)
        assert telemetry.snapshot().counters == {}


class TestJsonLines:
    def test_round_trip_through_a_stream(self):
        stream = io.StringIO()
        bundle = Telemetry(recorder=JsonLinesRecorder(stream))
        with bundle.use():
            with telemetry.span("outer", kind="demo"):
                with telemetry.span("inner"):
                    pass
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        restored = [SpanRecord(**json.loads(line)) for line in lines]
        assert [s.name for s in restored] == ["inner", "outer"]
        assert restored[1].attributes == {"kind": "demo"}
        assert restored[0].parent_id == restored[1].span_id
        # Every line is standalone JSON with stable keys.
        assert json.loads(lines[0])["name"] == "inner"

    def test_file_target(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonLinesRecorder(str(path)) as recorder:
            bundle = Telemetry(recorder=recorder)
            with bundle.use():
                with telemetry.span("root"):
                    pass
        restored = [json.loads(line)["name"] for line in path.read_text().splitlines()]
        assert restored == ["root"]


class TestInMemoryRecorder:
    def test_query_helpers(self):
        bundle = Telemetry.recording()
        with bundle.use():
            with telemetry.span("root"):
                with telemetry.span("leaf"):
                    pass
        recorder = bundle.recorder
        assert isinstance(recorder, InMemoryRecorder)
        assert [s.name for s in recorder.by_name("leaf")] == ["leaf"]
        assert [s.name for s in recorder.roots()] == ["root"]
        recorder.clear()
        assert recorder.spans == []
