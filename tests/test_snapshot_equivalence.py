"""Differential equivalence: snapshot campaigns == fresh campaigns.

The snapshot engine's contract is not "roughly the same outcome" — it
is bit-identical :class:`CaseResult`s: the same outcome status and
detail, the same per-case guest instruction counts, the same captured
event streams and metric snapshots a fresh execution of every case
produces.  These tests run the same systematic minidb campaign both
ways on every backend and compare everything.

CI runs this file with ``-rs`` and fails the job if any test here is
skipped — the guarantee must actually be exercised, not waved through.
"""

from __future__ import annotations

import pytest

from repro.apps.minidb import DbError, MiniDB
from repro.core.campaign import (FaultCase, PrefixFactory, run_campaign)
from repro.core.exec.snapshot import SnapshotRunner
from repro.core.scenario.generate import error_codes_from_profile
from repro.kernel import Kernel
from repro.obs import Telemetry
from repro.platform import LINUX_X86

_ROWS = 8
_FUNCTIONS = ["read", "write", "open", "close", "lseek", "fsync"]


def _make_factory() -> PrefixFactory:
    def setup(lfi):
        db = MiniDB(Kernel(os_name=LINUX_X86.os), LINUX_X86,
                    controller=lfi)
        db.execute("create table t k v")
        for i in range(_ROWS):
            db.execute(f"insert into t {i} value{i}")
        db.checkpoint()
        return db

    def run(lfi, db):
        try:
            db.execute("select from t where k 1")
            db.execute("insert into t 999 tail")
            db.checkpoint()
        except DbError:
            return 1
        return 0

    return PrefixFactory(setup, run, workload_id="minidb-equiv")


@pytest.fixture(scope="module")
def campaign_space(libc_profiles_linux):
    """The factory, its per-function prefix call counts, and a case
    list mixing post-prefix replays with in-prefix fallbacks."""
    factory = _make_factory()
    profile = libc_profiles_linux["libc.so.6"]

    prefix = {}
    runner = SnapshotRunner("probe", factory, LINUX_X86,
                            libc_profiles_linux)
    for fn in _FUNCTIONS:
        code = error_codes_from_profile(profile.functions[fn])[0]
        instance = runner._build(fn, code)
        prefix[fn] = instance.prefix_calls.get(fn, 0)
        instance.machine.detach()

    cases = []
    for fn in _FUNCTIONS:
        codes = error_codes_from_profile(profile.functions[fn])[:2]
        for code in codes:
            cases.append(FaultCase(fn, code, prefix[fn] + 1))
    # ordinal-1 cases for functions the prefix already calls: these
    # must fall back to a fresh execution, not replay mid-prefix
    fallback_fns = [fn for fn in _FUNCTIONS if prefix[fn] >= 1][:2]
    assert fallback_fns, "expected some functions called in the prefix"
    for fn in fallback_fns:
        code = error_codes_from_profile(profile.functions[fn])[0]
        cases.append(FaultCase(fn, code, 1))
    return factory, libc_profiles_linux, cases, prefix


def _event_fingerprint(events):
    """Events minus the wall-clock noise (seq/ts/seconds)."""
    out = []
    for record in events:
        fields = {k: v for k, v in record.get("fields", {}).items()
                  if k != "seconds"}
        out.append((record.get("kind"), record.get("severity"),
                    tuple(sorted(fields.items()))))
    return out


def _exception_line(detail: str) -> str:
    lines = [line for line in (detail or "").splitlines() if line.strip()]
    return lines[-1] if lines else ""


def _assert_identical(fresh, snap):
    assert len(fresh.results) == len(snap.results)
    for f, s in zip(fresh.results, snap.results):
        cid = f.case.case_id()
        assert f.case == s.case, cid
        assert f.outcome.status == s.outcome.status, cid
        if f.outcome.status == "crashed":
            # a crash's detail is harness diagnostics: the traceback
            # frames name the dispatch path (snapshot fallback vs
            # direct) and backends format the error differently (inline
            # message vs remote traceback).  The guest-visible failure
            # — the final exception message — must still match.
            a = _exception_line(f.outcome.detail)
            b = _exception_line(s.outcome.detail)
            assert a.endswith(b) or b.endswith(a), cid
        else:
            assert f.outcome.detail == s.outcome.detail, cid
        assert f.fired == s.fired, cid
        assert f.instructions == s.instructions, cid
        assert _event_fingerprint(f.events) == _event_fingerprint(s.events), \
            cid
        assert f.metrics == s.metrics, cid


def _run_pair(campaign_space, backend, jobs):
    factory, profiles, cases, _prefix = campaign_space
    fresh = run_campaign("equiv", factory, LINUX_X86, profiles, cases,
                         jobs=jobs, backend=backend, snapshot=False,
                         telemetry=Telemetry())
    snap = run_campaign("equiv", factory, LINUX_X86, profiles, cases,
                        jobs=jobs, backend=backend, snapshot=True,
                        telemetry=Telemetry())
    return fresh, snap


class TestDifferentialEquivalence:
    def test_serial_bit_identical(self, campaign_space):
        fresh, snap = _run_pair(campaign_space, "serial", 1)
        _assert_identical(fresh, snap)
        _factory, _profiles, cases, prefix = campaign_space
        for result in snap.results:
            case = result.case
            if case.call_ordinal > prefix[case.function]:
                assert result.snapshot is not None, case.case_id()
                assert result.snapshot["dirty_pages"] >= 0
            else:
                assert result.snapshot is None, case.case_id()

    def test_thread_backend_bit_identical(self, campaign_space):
        fresh, snap = _run_pair(campaign_space, "thread", 3)
        _assert_identical(fresh, snap)

    def test_process_backend_bit_identical(self, campaign_space):
        fresh, snap = _run_pair(campaign_space, "process", 3)
        _assert_identical(fresh, snap)
        # the process pool pre-builds checkpoints before forking, so
        # replays must still happen in the children
        assert any(r.snapshot is not None for r in snap.results)

    def test_backends_agree_with_each_other(self, campaign_space):
        _fresh, serial = _run_pair(campaign_space, "serial", 1)
        _fresh2, process = _run_pair(campaign_space, "process", 2)
        _assert_identical(serial, process)


class TestSnapshotTelemetry:
    def test_parent_records_snapshot_metrics_and_events(
            self, campaign_space):
        from repro.obs import MemorySink

        factory, profiles, cases, _prefix = campaign_space
        sink = MemorySink()
        tele = Telemetry(sinks=[sink])
        report = run_campaign("equiv", factory, LINUX_X86, profiles,
                              cases, snapshot=True, telemetry=tele)
        replays = sum(1 for r in report.results if r.snapshot)
        assert replays > 0

        metrics = tele.metrics.snapshot()
        taken = sum(v["value"] for v in
                    metrics["repro_snapshots_taken_total"]["values"])
        restores = sum(v["value"] for v in
                       metrics["repro_snapshot_restores_total"]["values"])
        assert taken >= 1
        assert restores == replays
        assert "repro_snapshot_restore_seconds" in metrics
        assert "repro_snapshot_dirty_pages" in metrics

        events = [e for e in sink.events if e.kind == "snapshot"]
        actions = [e.fields.get("action") for e in events]
        assert actions.count("restored") == replays
        assert "taken" in actions
        restored = [e for e in events
                    if e.fields.get("action") == "restored"]
        for event in restored:
            assert event.fields.get("dirty_pages") is not None
            assert event.fields.get("bytes") is not None

    def test_campaign_end_event_counts_replays(self, campaign_space):
        from repro.obs import MemorySink

        factory, profiles, cases, _prefix = campaign_space
        sink = MemorySink()
        tele = Telemetry(sinks=[sink])
        run_campaign("equiv", factory, LINUX_X86, profiles, cases,
                     snapshot=True, telemetry=tele)
        ends = [e for e in sink.events if e.kind == "campaign.end"]
        assert len(ends) == 1
        fields = ends[0].fields
        assert fields.get("snapshots_built", 0) >= 1
        assert fields.get("snapshot_replays", 0) >= 1

    def test_stats_reconstructs_snapshot_efficiency(
            self, campaign_space, tmp_path):
        from repro.obs import FileSink
        from repro.obs.events import read_events, summarize_events

        factory, profiles, cases, _prefix = campaign_space
        path = tmp_path / "events.jsonl"
        tele = Telemetry(sinks=[FileSink(path)])
        report = run_campaign("equiv", factory, LINUX_X86, profiles,
                              cases, snapshot=True, telemetry=tele)
        tele.close()
        summary = summarize_events(read_events(path))
        snaps = summary["snapshots"]
        assert snaps["taken"] >= 1
        assert snaps["restored"] == \
            sum(1 for r in report.results if r.snapshot)
        assert snaps["dirty_pages"] >= snaps["restored"]
        assert snaps["restored_bytes"] > 0


@pytest.fixture(scope="module")
def backend_snapshot_records(campaign_space):
    """Per backend: each case's snapshot record without its wall time,
    and ``campaign.end``'s fallback count."""
    from repro.obs import MemorySink

    factory, profiles, cases, _prefix = campaign_space
    out = {}
    for backend, jobs in (("serial", 1), ("thread", 2), ("process", 2)):
        sink = MemorySink()
        report = run_campaign("equiv", factory, LINUX_X86, profiles, cases,
                              jobs=jobs, backend=backend, snapshot=True,
                              telemetry=Telemetry(sinks=[sink]))
        records = [None if r.snapshot is None
                   else {k: v for k, v in r.snapshot.items()
                         if k != "seconds"}
                   for r in report.results]
        (end,) = [e for e in sink.events if e.kind == "campaign.end"]
        out[backend] = (records, end.fields["snapshot_fallbacks"])
    return out


class TestRestoreStatsAcrossBackends:
    """A case's restore figures describe the pages that case dirtied,
    and the fallback count is taken in the parent, so neither depends
    on which backend (or which earlier case) ran before."""

    def test_per_case_records_identical_on_every_backend(
            self, backend_snapshot_records):
        serial, _ = backend_snapshot_records["serial"]
        for backend in ("thread", "process"):
            assert backend_snapshot_records[backend][0] == serial, backend

    def test_a_case_that_writes_reports_dirty_pages(
            self, backend_snapshot_records):
        records, _ = backend_snapshot_records["process"]
        replays = [r for r in records if r is not None]
        assert replays
        # every case inserts a row and checkpoints the table
        assert all(r["dirty_pages"] > 0 for r in replays)
        assert all(r["bytes"] > 0 for r in replays)

    def test_fallback_count_identical_on_every_backend(
            self, backend_snapshot_records):
        _records, serial = backend_snapshot_records["serial"]
        assert serial > 0       # in-prefix cases that finished
        for backend in ("thread", "process"):
            assert backend_snapshot_records[backend][1] == serial, backend


class TestSessionSurface:
    def test_session_campaign_snapshot_flag(self, libc_linux,
                                            campaign_space):
        from repro.session import Session

        factory, _profiles, cases, _prefix = campaign_space
        session = Session(LINUX_X86, app="equiv", snapshot=True)
        session.load(libc_linux)
        report = session.campaign(factory, cases=cases)
        assert any(r.snapshot is not None for r in report.results)
        # per-call override wins over the session default
        fresh = session.campaign(factory, cases=cases, snapshot=False)
        assert all(r.snapshot is None for r in fresh.results)

    def test_plain_factory_ignores_snapshot_flag(self,
                                                 libc_profiles_linux):
        """A legacy callable factory has no setup/run split, so the
        engine silently runs fresh — same behavior, no error."""
        profile = libc_profiles_linux["libc.so.6"]
        code = error_codes_from_profile(profile.functions["close"])[0]

        def factory(lfi):
            def session():
                db = MiniDB(Kernel(os_name=LINUX_X86.os), LINUX_X86,
                            controller=lfi)
                db.execute("create table t k v")
                return 0
            return session

        report = run_campaign("plain", factory, LINUX_X86,
                              libc_profiles_linux,
                              [FaultCase("close", code, 1)],
                              snapshot=True)
        assert report.results[0].snapshot is None
