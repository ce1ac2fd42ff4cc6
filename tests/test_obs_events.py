"""The structured event log: events, sinks, determinism, the bridges."""

import io
import json
import logging

import pytest

from repro.obs.clock import ManualClock
from repro.obs.events import (EVENT_SCHEMA, Event, EventLog, EventLogHandler,
                              FileSink, MemorySink, NULL_EVENT_LOG,
                              StderrSink, read_events, severity_rank,
                              summarize_events)


class TestEvent:
    def test_to_dict_shape(self):
        event = Event(seq=3, ts=1.25, kind="injection", severity="info",
                      fields={"function": "close", "errno": "EIO"})
        d = event.to_dict()
        assert d["schema"] == EVENT_SCHEMA
        assert d["seq"] == 3
        assert d["ts"] == 1.25
        assert d["kind"] == "injection"
        assert d["fields"] == {"function": "close", "errno": "EIO"}

    def test_json_round_trip(self):
        event = Event(seq=1, ts=0.5, kind="case", fields={"n": 2})
        again = json.loads(event.to_json())
        assert again == event.to_dict()

    def test_render_puts_message_first(self):
        event = Event(seq=1, ts=0.0, kind="cli", severity="warning",
                      fields={"message": "careful", "path": "/tmp/x"})
        assert event.render() == "[warning] cli careful path=/tmp/x"

    def test_severity_rank_orders_and_validates(self):
        assert severity_rank("debug") < severity_rank("info") \
            < severity_rank("warning") < severity_rank("error")
        with pytest.raises(ValueError):
            severity_rank("loud")


class TestEventLog:
    def test_sequential_seq_and_manual_clock(self):
        sink = MemorySink()
        log = EventLog(clock=ManualClock(start=10.0, step=0.5),
                       sinks=[sink])
        log.emit("a")
        log.emit("b", severity="debug")
        assert [e.seq for e in sink.events] == [1, 2]
        assert [e.ts for e in sink.events] == [10.0, 10.5]
        assert log.emitted == 2

    def test_invalid_severity_rejected(self):
        log = EventLog(sinks=[MemorySink()])
        with pytest.raises(ValueError):
            log.emit("a", severity="shouting")

    def test_concurrent_emits_get_unique_ordered_seqs(self):
        import threading
        sink = MemorySink()
        log = EventLog(sinks=[sink])
        threads = [threading.Thread(
            target=lambda: [log.emit("tick") for _ in range(50)])
            for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [e.seq for e in sink.events]
        assert sorted(seqs) == list(range(1, 201))
        assert seqs == sorted(seqs)      # written in seq order under lock

    def test_null_log_is_inert(self):
        assert NULL_EVENT_LOG.emit("anything", foo=1) is None
        assert NULL_EVENT_LOG.emitted == 0
        assert not NULL_EVENT_LOG.enabled


class TestSinks:
    def test_file_sink_round_trips_through_read_events(self, tmp_path):
        path = tmp_path / "deep" / "run.jsonl"
        log = EventLog(clock=ManualClock(step=0.001), sinks=[FileSink(path)])
        log.emit("injection", function="close", errno="EIO", call=1)
        log.emit("case", case="close@1", status="normal")
        log.close()
        events = read_events(path)
        assert [e["kind"] for e in events] == ["injection", "case"]
        assert events[0]["fields"]["function"] == "close"

    def test_read_events_skips_foreign_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text('{"schema": "other/1", "kind": "x"}\n'
                        '\n'
                        + Event(seq=1, ts=0.0, kind="keep").to_json() + "\n")
        events = read_events(path)
        assert [e["kind"] for e in events] == ["keep"]

    def test_stderr_sink_filters_by_severity(self):
        stream = io.StringIO()
        log = EventLog(sinks=[StderrSink(stream, min_severity="warning")])
        log.emit("quiet", severity="info")
        log.emit("loud", severity="error", message="boom")
        lines = stream.getvalue().splitlines()
        assert lines == ["[error] loud boom"]


class TestLoggingBridge:
    def test_records_become_events(self):
        sink = MemorySink()
        handler = EventLogHandler(EventLog(sinks=[sink]))
        logger = logging.getLogger("repro.test.bridge")
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        try:
            logger.warning("profile %s went stale", "libc.so.6")
        finally:
            logger.removeHandler(handler)
        (event,) = sink.events
        assert event.kind == "log"
        assert event.severity == "warning"
        assert event.fields["logger"] == "repro.test.bridge"
        assert event.fields["message"] == "profile libc.so.6 went stale"


class TestTracerToEvents:
    def test_instruction_events_and_truncation_warning(self):
        from repro.runtime.trace import TraceEntry, Tracer

        tracer = Tracer.__new__(Tracer)       # no guest process needed
        tracer.limit = 2
        tracer.truncated = True
        tracer.entries = [
            TraceEntry(index=0, addr=0x1000, text="mov eax, 1",
                       module="libc.so.6", symbol="close"),
            TraceEntry(index=1, addr=0x1004, text="ret",
                       module="libc.so.6", symbol="close"),
        ]
        sink = MemorySink()
        log = EventLog(sinks=[sink])
        emitted = tracer.to_events(log)
        assert emitted == 3
        kinds = [e.kind for e in sink.events]
        assert kinds == ["instruction", "instruction", "trace.truncated"]
        first = sink.events[0]
        assert first.severity == "debug"
        assert first.fields["addr"] == "0x00001000"
        assert first.fields["symbol"] == "close"
        assert sink.events[-1].severity == "warning"
        assert sink.events[-1].fields["limit"] == 2


class TestSummarizeEvents:
    def test_reconstructs_injections_cases_and_spans(self):
        span = {"name": "root", "start": 0.0, "duration": 1.0,
                "attrs": {}, "children": []}
        metrics = {"repro_profile_store_hits_total": {
            "type": "counter", "help": "", "labelnames": ["layer"],
            "values": [{"labels": {"layer": "memory"}, "value": 3.0},
                       {"labels": {"layer": "disk"}, "value": 1.0}]},
            "repro_profile_store_misses_total": {
            "type": "counter", "help": "", "labelnames": [],
            "values": [{"labels": {}, "value": 1.0}]}}
        stream = [
            {"kind": "injection", "fields": {"function": "close",
                                             "errno": "EIO"}},
            {"kind": "injection", "fields": {"function": "close",
                                             "errno": "EBADF"}},
            {"kind": "injection", "fields": {"function": "open",
                                             "errno": "EMFILE"}},
            {"kind": "case", "fields": {"status": "normal"}},
            {"kind": "case", "fields": {"status": "SIGSEGV"}},
            {"kind": "span", "fields": {"span": span}},
            {"kind": "metrics.snapshot", "fields": {"metrics": metrics}},
        ]
        summary = summarize_events(stream)
        assert summary["injections"] == {"close": 2, "open": 1}
        assert summary["injections_by_errno"]["close"] \
            == {"EIO": 1, "EBADF": 1}
        assert summary["cases"] == 2
        assert summary["outcomes"] == {"normal": 1, "SIGSEGV": 1}
        assert summary["spans"] == [span]
        assert summary["cache"] == {"hits": 4, "misses": 1,
                                    "hit_ratio": 0.8}

    def test_empty_stream_has_no_ratio(self):
        summary = summarize_events([])
        assert summary["events"] == 0
        assert summary["cache"]["hit_ratio"] is None
        assert summary["code_cache"]["hit_ratio"] is None

    def test_code_cache_section(self):
        def counter(value):
            return {"type": "counter", "help": "", "labelnames": [],
                    "values": [{"labels": {}, "value": value}]}
        metrics = {
            "repro_blocks_compiled_total": counter(10.0),
            "repro_block_cache_hits_total": counter(30.0),
            "repro_code_cache_evictions_total": counter(2.0),
        }
        stream = [{"kind": "metrics.snapshot",
                   "fields": {"metrics": metrics}}]
        assert summarize_events(stream)["code_cache"] == {
            "blocks_compiled": 10, "hits": 30, "hit_ratio": 0.75,
            "evictions": 2}
