"""Observability end-to-end: instrumented campaigns, the stats round
trip, cross-backend event determinism, nested Session span trees."""

import json
from collections import Counter

import pytest

from repro.cli import _campaign_factory, main
from repro.core.campaign import enumerate_cases, run_campaign
from repro.core.exec import RunSummary
from repro.core.results import ResultStore
from repro.core.store import ProfileStore
from repro.kernel import Kernel
from repro.obs import (EventLog, MemorySink, Telemetry)
from repro.obs.events import read_events, summarize_events
from repro.obs.tracing import NULL_TRACER
from repro.platform import LINUX_X86
from repro.session import Session


def _close_copy_factory(libc_image):
    """A workload that open/write/closes a file and reports errors."""
    O_CREAT, O_RDWR = 0o100, 0o2

    def factory(lfi):
        def session():
            proc = lfi.make_process(Kernel(), [libc_image])
            fd = proc.libcall("open", proc.cstr("/f"), O_CREAT | O_RDWR,
                              0o644)
            buf = proc.scratch_alloc(4)
            proc.mem_write(buf, b"data")
            proc.libcall("write", fd, buf, 4)
            rc = proc.libcall("close", fd)
            return 1 if rc != 0 else 0
        return session
    return factory


def _run_instrumented(libc_linux, profiles, *, jobs, backend):
    sink = MemorySink()
    telemetry = Telemetry(events=EventLog(sinks=[sink]), tracer=NULL_TRACER)
    cases = enumerate_cases(profiles, functions=["close", "write"],
                            max_codes_per_function=2)
    report = run_campaign("copytool", _close_copy_factory(libc_linux.image),
                          LINUX_X86, profiles, cases, jobs=jobs,
                          backend=backend, telemetry=telemetry)
    return report, telemetry, sink


def _event_signature(sink):
    """The backend-independent portion of the emitted stream."""
    signature = []
    for event in sink.events:
        fields = event.fields
        signature.append((
            event.kind,
            fields.get("function"), fields.get("errno"),
            fields.get("call"), fields.get("case"),
            fields.get("status"), fields.get("test"),
        ))
    return signature


def _case_events(sink):
    """The per-case events, every field but the two that say which
    worker ran the case and for how long."""
    return [(event.kind, event.severity,
             {key: value for key, value in event.fields.items()
              if key not in ("worker", "seconds")})
            for event in sink.events
            if event.kind in ("case", "test", "injection")]


#: the metric families that depend on neither the backend, the worker
#: count nor the host's speed
_DETERMINISTIC_METRICS = (
    "repro_cases_total", "repro_cases_derived_total",
    "repro_injections_total", "repro_instructions_total",
    "repro_trigger_evaluations_total", "repro_passthrough_firings_total",
    "repro_virtual_delay_ns_total", "repro_partial_io_bytes_total")


def _deterministic_metrics(telemetry):
    snapshot = telemetry.metrics.snapshot()
    return {name: snapshot.get(name) for name in _DETERMINISTIC_METRICS}


class TestDeterministicOrdering:
    @pytest.mark.parametrize("jobs,backend", [(1, "serial"),
                                              (2, "process")])
    def test_backends_emit_identical_event_sequences(
            self, libc_linux, libc_profiles_linux, jobs, backend):
        serial_report, serial_telemetry, serial_sink = _run_instrumented(
            libc_linux, libc_profiles_linux, jobs=1, backend="serial")
        report, telemetry, sink = _run_instrumented(
            libc_linux, libc_profiles_linux, jobs=jobs, backend=backend)
        assert _event_signature(sink) == _event_signature(serial_sink)
        assert [r.case.case_id() for r in report.results] \
            == [r.case.case_id() for r in serial_report.results]
        assert _case_events(serial_sink)
        assert _case_events(sink) == _case_events(serial_sink)
        metrics = _deterministic_metrics(serial_telemetry)
        assert None not in metrics.values(), metrics
        assert _deterministic_metrics(telemetry) == metrics

    def test_injection_events_carry_audit_fields(self, libc_linux,
                                                 libc_profiles_linux):
        _, _, sink = _run_instrumented(libc_linux, libc_profiles_linux,
                                       jobs=2, backend="process")
        injections = [e for e in sink.events if e.kind == "injection"]
        assert injections
        for event in injections:
            assert event.fields["function"] in ("close", "write")
            assert event.fields["errno"]
            assert event.fields["call"] >= 1
            assert event.fields["worker"]        # which worker ran it
            assert event.fields["case"]          # which campaign cell

    def test_worker_metrics_merge_into_parent(self, libc_linux,
                                              libc_profiles_linux):
        report, telemetry, _ = _run_instrumented(
            libc_linux, libc_profiles_linux, jobs=2, backend="process")
        counter = telemetry.metrics.counter(
            "repro_injections_total", labelnames=("function", "errno"))
        assert counter.total() == len(report.fired())
        evaluations = telemetry.metrics.counter(
            "repro_trigger_evaluations_total", labelnames=("function",))
        assert evaluations.total() >= counter.total()


class TestRunSummaryFromMetrics:
    def test_summary_counts_come_from_the_registry(self, libc_linux,
                                                   libc_profiles_linux):
        report, _, _ = _run_instrumented(libc_linux, libc_profiles_linux,
                                         jobs=2, backend="process")
        summary = report.summary
        assert isinstance(summary, RunSummary)
        assert summary.cases == len(report.results)
        assert sum(summary.outcomes.values()) == summary.cases
        assert summary.busy_seconds >= 0.0
        assert 0.0 <= summary.worker_utilization <= 1.0


class TestOneStatusPerCase:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_summary_journal_report_and_metrics_count_alike(
            self, tmp_path, libc_linux, jobs):
        """A case has one status.  The campaign stage's ``outcomes``,
        the journal's statuses, the report's results and
        ``repro_cases_total`` count the same cases by it, the 21
        ``accept`` cases whose harness raises included."""
        results = tmp_path / "results"
        session = Session(LINUX_X86, app="miniweb", jobs=jobs,
                          telemetry=True, results_dir=results)
        session.load(libc_linux)
        report = session.campaign(_campaign_factory("miniweb", LINUX_X86),
                                  functions=["accept", "listen"],
                                  call_ordinals=(1, 2, 3))
        (stage,) = [s for s in session.summary()["stages"]
                    if s["kind"] == "campaign"]
        outcomes = stage["outcomes"]
        assert outcomes["crashed"] == 21
        assert len(outcomes) > 2
        assert outcomes == Counter(r.outcome.status
                                   for r in report.results)
        store = ResultStore(results)
        (listed,) = store.campaigns()
        assert listed["outcomes"] == outcomes
        journal = store.load(listed["campaign"])
        assert Counter(r["status"] for r in journal.values()) == outcomes
        counted = session.obs.metrics.snapshot()["repro_cases_total"]
        assert {v["labels"]["status"]: v["value"]
                for v in counted["values"]} == outcomes


class TestSessionSpans:
    def test_campaign_nests_lazy_profile_span(self, libc_linux):
        session = Session(LINUX_X86, app="spans", telemetry=True)
        session.load(libc_linux)
        session.campaign(_close_copy_factory(libc_linux.image),
                         functions=["close"], max_codes_per_function=1)
        roots = {span["name"]: span for span in session.obs.tracer.to_dicts()}
        assert set(roots) == {"session.load", "session.campaign"}
        campaign = roots["session.campaign"]
        (profile,) = [c for c in campaign["children"]
                      if c["name"] == "session.profile"]
        library_span = profile["children"][0]
        assert library_span["name"] == "profile:libc.so.6"
        assert any(c["name"] == "export:close"
                   for c in library_span["children"])

    def test_profile_then_campaign_are_sibling_roots(self, libc_linux):
        session = Session(LINUX_X86, app="spans", telemetry=True)
        session.load(libc_linux).profile()
        session.campaign(_close_copy_factory(libc_linux.image),
                         functions=["close"], max_codes_per_function=1)
        names = [span["name"] for span in session.obs.tracer.to_dicts()]
        assert names == ["session.load", "session.profile",
                         "session.campaign"]

    def test_telemetry_method_reports_snapshot(self, libc_linux):
        session = Session(LINUX_X86, telemetry=True)
        session.load(libc_linux).profile()
        snap = session.telemetry()
        assert snap["schema"] == "repro.telemetry/1"
        assert snap["events"] > 0
        assert "repro_profiler_functions_total" in snap["metrics"]
        disabled = Session(LINUX_X86)
        assert disabled.telemetry()["events"] == 0


class TestStoreCounters:
    def test_hit_miss_invalidation_metrics(self, libc_linux,
                                           kernel_image_linux, tmp_path):
        telemetry = Telemetry()
        store = ProfileStore(tmp_path / "cache", telemetry=telemetry)
        images = {libc_linux.image.soname: libc_linux.image}
        store.profile_or_load(LINUX_X86, images, kernel_image_linux)
        store.profile_or_load(LINUX_X86, images, kernel_image_linux)
        # changing the kernel digest invalidates the stored profile
        store.profile_or_load(LINUX_X86, images, None)
        hits = telemetry.metrics.counter("repro_profile_store_hits_total")
        misses = telemetry.metrics.counter(
            "repro_profile_store_misses_total")
        invalidations = telemetry.metrics.counter(
            "repro_profile_store_invalidations_total")
        assert hits.value() == 1
        assert misses.value() == 2
        assert invalidations.value() == 1


class TestCliRoundTrip:
    def test_stats_reconstructs_campaign_from_jsonl_alone(self, tmp_path,
                                                          capsys):
        log = tmp_path / "run.jsonl"
        code = main(["--log-json", str(log),
                     "campaign", "minidb",
                     "--function", "open", "--function", "close",
                     "--max-codes", "2", "--jobs", "2",
                     "--store", str(tmp_path / "cache")])
        assert code in (0, 1)
        capsys.readouterr()

        events = read_events(log)
        summary = summarize_events(events)
        # every injection carries the audit quadruple
        injections = [e for e in events if e["kind"] == "injection"]
        assert injections
        for event in injections:
            fields = event["fields"]
            assert fields["function"] in ("open", "close")
            assert fields["errno"]
            assert fields["call"] >= 1
            assert fields["worker"]
        assert summary["injections"] == {"open": 2, "close": 2}
        assert summary["cache"]["misses"] == 1
        # the span tree made it into the stream via finalize()
        root_names = {span["name"] for span in summary["spans"]}
        assert "session.campaign" in root_names

        assert main(["stats", str(log), "--spans", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "injections by function" in out
        assert "session.campaign" in out
        assert "repro_injections_total" in out
        assert "# TYPE repro_injections_total counter" in out

    def test_stats_json_mode(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        main(["--log-json", str(log), "campaign", "minidb",
              "--function", "close", "--max-codes", "1",
              "--store", str(tmp_path / "cache")])
        capsys.readouterr()
        assert main(["stats", str(log), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["injections"] == {"close": 1}

    def test_trace_out_writes_span_tree(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(["campaign", "minidb", "--function", "close",
                     "--max-codes", "1", "--store", str(tmp_path / "cache"),
                     "--trace-out", str(trace)])
        assert code in (0, 1)
        capsys.readouterr()
        tree = json.loads(trace.read_text())
        assert tree["schema"] == "repro.trace/1"
        assert {span["name"] for span in tree["spans"]} \
            == {"session.load", "session.campaign"}

    def test_errors_go_to_stderr_with_nonzero_exit(self, capsys):
        code = main(["profile", "/does/not/exist.self"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err

    def test_stats_on_missing_events_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_quiet_suppresses_diagnostics(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["-q", "build-corpus", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""
