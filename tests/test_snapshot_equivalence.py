"""Differential equivalence: snapshot campaigns == fresh campaigns.

The snapshot engine's contract is not "roughly the same outcome" — it
is bit-identical :class:`CaseResult`s: the same outcome status and
detail, the same per-case guest instruction counts, the same captured
event streams and metric snapshots a fresh execution of every case
produces.  These tests run the same systematic minidb campaign both
ways on every backend and compare everything, replay cases one by one
on the two other platforms, and check that a replay leaves the
checkpoint's own controller as the prefix left it.

CI runs this file with ``-rs`` and fails the job if any test here is
skipped — the guarantee must actually be exercised, not waved through.
"""

from __future__ import annotations

import pytest

from repro.apps.minidb import DbError, MiniDB
from repro.core.campaign import (FaultCase, PrefixFactory, run_campaign)
from repro.core.exec.engine import _case_runner
from repro.core.exec.snapshot import SnapshotRunner
from repro.core.profiler import Profiler
from repro.core.scenario.generate import error_codes_from_profile
from repro.corpus.libc import libc
from repro.kernel import Kernel, build_kernel_image
from repro.obs import Telemetry
from repro.platform import LINUX_X86, SOLARIS_SPARC, WINDOWS_X86

_ROWS = 8
_FUNCTIONS = ["read", "write", "open", "close", "lseek", "fsync"]


def _make_factory(platform=LINUX_X86) -> PrefixFactory:
    def setup(lfi):
        db = MiniDB(Kernel(os_name=platform.os), platform,
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


def _result_row(r):
    """Everything a case's result carries that a replay could perturb."""
    return (r.outcome.status, r.outcome.exit_code, r.outcome.detail,
            r.instructions, r.fired, r.sites, r.calls, r.firings,
            r.output, r.coverage, _event_fingerprint(r.events), r.metrics)


def _row(run, case):
    """One case's result row; an exception it raises is a row too (a
    fault in minidb's setup escapes the monitored run)."""
    try:
        return _result_row(run(case))
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


def _fresh_row(factory, platform, profiles, case):
    return _row(lambda case: _case_runner(factory, platform, profiles, case,
                                          capture=True, observe=True), case)


def _assert_identical(fresh, snap):
    assert len(fresh.results) == len(snap.results)
    for f, s in zip(fresh.results, snap.results):
        cid = f.case.case_id()
        assert f.case == s.case, cid
        assert f.outcome.status == s.outcome.status, cid
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


def test_replay_leaves_the_checkpoint_controller_alone(campaign_space):
    """Each replay runs on a controller of its own: a case that fires
    and then one that does not, replayed on one checkpoint, leave the
    controller that ran the prefix as the build left it, and each
    result equals a fresh run's."""
    factory, profiles, _cases, prefix = campaign_space
    code = error_codes_from_profile(
        profiles["libc.so.6"].functions["write"])[0]
    firing = FaultCase("write", code, prefix["write"] + 1)
    dormant = FaultCase("write", code, prefix["write"] + 1000)
    runner = SnapshotRunner("equiv", factory, LINUX_X86, profiles,
                            capture=True, observe=True)
    runner.warm([firing])
    key = runner._key("write")
    instance = runner.cache.take(key)
    runner.cache.release(key, instance)
    lfi = instance.controller
    engine, processes = lfi.engine, list(lfi.processes)
    assert lfi.engine.call_counts == instance.prefix_calls
    for case, fires in ((firing, True), (dormant, False)):
        result = runner.run_case(case)
        assert result.snapshot is not None, case.case_id()
        assert result.fired is fires, case.case_id()
        assert runner.cache.stats()["built"] == 1
        assert lfi.engine is engine
        assert lfi.engine.call_counts == instance.prefix_calls
        assert lfi.logbook.records == []
        assert lfi.injector.injection_count == 0
        assert lfi.processes == processes
        assert _result_row(result) == _fresh_row(
            factory, LINUX_X86, profiles, case), case.case_id()


@pytest.mark.parametrize("platform", [WINDOWS_X86, SOLARIS_SPARC],
                         ids=lambda p: p.name)
def test_replays_match_fresh_runs_on_other_platforms(platform):
    """Windows injects its shim late, at the front of symbol resolution,
    and SPARC passes arguments in registers; a replayed case must
    still equal a fresh run on both."""
    image = libc(platform).image
    profiles = Profiler(platform, {image.soname: image},
                        build_kernel_image(platform)).profile_all()
    profile = profiles[image.soname]
    factory = _make_factory(platform)
    runner = SnapshotRunner("equiv", factory, platform, profiles,
                            capture=True, observe=True)
    results = []

    def replay(case):
        results.append(runner.run_case(case))
        return results[-1]

    for function in ("read", "write", "open", "close"):
        code = error_codes_from_profile(profile.functions[function])[0]
        probe = runner._build(function, code)
        calls = probe.prefix_calls.get(function, 0)
        probe.machine.detach()
        for ordinal in sorted({1, calls + 1, calls + 2, calls + 1000}):
            case = FaultCase(function, code, ordinal)
            assert _row(replay, case) == _fresh_row(
                factory, platform, profiles, case), case.case_id()
    replayed = [r for r in results if r.snapshot is not None]
    assert len(replayed) >= 12 and sum(r.fired for r in replayed) >= 6


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
    for backend, jobs in (("serial", 1), ("process", 2)):
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
        assert backend_snapshot_records["process"][0] == serial

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
        assert backend_snapshot_records["process"][1] == serial


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
