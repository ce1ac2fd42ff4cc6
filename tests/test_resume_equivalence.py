"""Differential equivalence: resumed campaigns == uninterrupted ones.

The result journal's contract mirrors the snapshot engine's: a resumed
campaign is not "roughly the same" — restored cases carry the same
outcome status and detail, the same instruction counts, the same event
streams and metric snapshots the original execution produced, and the
merged journal is bit-identical (modulo wall-clock noise) to one an
uninterrupted run writes.  These tests interrupt a campaign the way a
crash does — truncating the journal mid-line — then resume it on every
backend and compare everything.

CI runs this file with ``-rs`` and fails the job if any test here is
skipped — the guarantee must actually be exercised, not waved through.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cli import _campaign_factory, main
from repro.core.campaign import FaultCase, enumerate_cases, run_campaign
from repro.core.results import ResultStore, matrix_from_store
from repro.core.scenario import ErrorCode
from repro.kernel import Kernel, O_CREAT, O_RDWR
from repro.obs import MemorySink, Telemetry
from repro.platform import LINUX_X86

_CASES = [
    FaultCase("open", ErrorCode(-1, "EACCES"), 1),
    FaultCase("write", ErrorCode(-1, "ENOSPC"), 1),
    FaultCase("write", ErrorCode(-1, "EIO"), 1),
    FaultCase("close", ErrorCode(-1, "EIO"), 1),
    FaultCase("close", ErrorCode(-1, "EBADF"), 1),
    FaultCase("close", ErrorCode(-1, "EINTR"), 1),
]
_INTERRUPT_AFTER = 3


def _factory(libc_linux):
    def factory(lfi):
        def session():
            proc = lfi.make_process(Kernel(), [libc_linux.image])
            fd = proc.libcall("open", proc.cstr("/f"),
                              O_CREAT | O_RDWR, 0o644)
            if fd < 0:
                return 1
            buf = proc.scratch_alloc(4)
            proc.mem_write(buf, b"data")
            if proc.libcall("write", fd, buf, 4) != 4:
                return 1
            return 1 if proc.libcall("close", fd) != 0 else 0
        return session
    return factory


def _run(libc_linux, profiles, store, *, backend, jobs, resume=False,
         cases=_CASES):
    sink = MemorySink()
    tele = Telemetry(sinks=[sink])
    report = run_campaign("equiv", _factory(libc_linux), LINUX_X86,
                          profiles, cases, jobs=jobs, backend=backend,
                          telemetry=tele, results=store,
                          results_key={"app": "equiv"}, resume=resume)
    return report, sink


def _interrupted_store(reference_store, tmp_path):
    """A store that looks like the reference campaign crashed mid-write:
    the first N records survive, record N+1 is a torn fragment, and the
    index cache was never written."""
    (key_dir,) = [p for p in reference_store.root.iterdir() if p.is_dir()]
    lines = (key_dir / "journal.jsonl").read_text().splitlines()
    assert len(lines) == len(_CASES)
    cut = ResultStore(tmp_path / "interrupted")
    cut_dir = cut.root / key_dir.name
    cut_dir.mkdir()
    torn = lines[_INTERRUPT_AFTER][:40]
    (cut_dir / "journal.jsonl").write_text(
        "\n".join(lines[:_INTERRUPT_AFTER]) + "\n" + torn)
    return cut


def _event_fingerprint(events, *, kinds_dropped=("campaign.resume",)):
    """Event stream minus wall-clock noise and scheduling identity.

    ``campaign.resume`` is the one stream difference resume is *allowed*
    (skipped/replayed counts differ by design); ``worker`` labels and
    second/duration fields vary with scheduling, never with outcomes.
    """
    out = []
    for record in events:
        record = record.to_dict() if hasattr(record, "to_dict") else record
        kind = record.get("kind")
        if kind in kinds_dropped:
            continue
        fields = {k: v for k, v in record.get("fields", {}).items()
                  if k not in ("seconds", "duration", "worker")}
        out.append((kind, record.get("severity"),
                    tuple(sorted(fields.items()))))
    return out


def _normalize_record(record):
    """One journal record minus wall-clock and scheduling noise."""
    out = {k: v for k, v in record.items()
           if k not in ("seconds", "worker", "events")}
    out["events"] = _event_fingerprint(record.get("events") or ())
    return out


def _assert_identical(fresh, resumed):
    assert len(fresh.results) == len(resumed.results)
    for f, r in zip(fresh.results, resumed.results):
        cid = f.case.case_id()
        assert f.case == r.case, cid
        assert f.outcome.status == r.outcome.status, cid
        assert f.outcome.detail == r.outcome.detail, cid
        assert f.outcome.exit_code == r.outcome.exit_code, cid
        assert f.fired == r.fired, cid
        assert f.instructions == r.instructions, cid
        assert f.sites == r.sites, cid
        assert _event_fingerprint(f.events) == \
            _event_fingerprint(r.events), cid
        assert f.metrics == r.metrics, cid


def _assert_stores_identical(reference_store, resumed_store):
    (ref_dir,) = [p for p in reference_store.root.iterdir() if p.is_dir()]
    ref = reference_store.load(ref_dir.name)
    res = resumed_store.load(ref_dir.name)
    assert set(ref) == set(res)
    for case_key, record in ref.items():
        assert _normalize_record(record) == \
            _normalize_record(res[case_key]), record["case"]


class TestResumeEquivalence:
    @pytest.mark.parametrize("backend,jobs", [
        ("serial", 1), ("process", 2)])
    def test_interrupted_resume_bit_identical(self, backend, jobs,
                                              tmp_path, libc_linux,
                                              libc_profiles_linux):
        reference_store = ResultStore(tmp_path / "reference")
        reference, ref_sink = _run(libc_linux, libc_profiles_linux,
                                   reference_store, backend=backend,
                                   jobs=jobs)
        assert reference.resumed == {"skipped": 0,
                                     "replayed": len(_CASES)}

        cut = _interrupted_store(reference_store, tmp_path)
        resumed, sink = _run(libc_linux, libc_profiles_linux, cut,
                             backend=backend, jobs=jobs, resume=True)
        assert resumed.resumed == {
            "skipped": _INTERRUPT_AFTER,
            "replayed": len(_CASES) - _INTERRUPT_AFTER}
        _assert_identical(reference, resumed)
        _assert_stores_identical(reference_store, cut)
        assert _event_fingerprint(ref_sink.events) == \
            _event_fingerprint(sink.events)

    def test_cross_backend_resume(self, tmp_path, libc_linux,
                                  libc_profiles_linux):
        """A journal written by one backend resumes under another."""
        reference_store = ResultStore(tmp_path / "reference")
        reference, _ = _run(libc_linux, libc_profiles_linux,
                            reference_store, backend="serial", jobs=1)
        cut = _interrupted_store(reference_store, tmp_path)
        resumed, _ = _run(libc_linux, libc_profiles_linux, cut,
                          backend="process", jobs=2, resume=True)
        _assert_identical(reference, resumed)
        _assert_stores_identical(reference_store, cut)

    def test_without_resume_journal_rewrites_but_reruns(
            self, tmp_path, libc_linux, libc_profiles_linux):
        """resume=False never serves stored results, even when present."""
        store = ResultStore(tmp_path / "s")
        _run(libc_linux, libc_profiles_linux, store,
             backend="serial", jobs=1)
        report, _ = _run(libc_linux, libc_profiles_linux, store,
                         backend="serial", jobs=1, resume=False)
        assert report.resumed == {"skipped": 0, "replayed": len(_CASES)}


# -- a crash at any byte of the journal ----------------------------------------


def _result_rows(report):
    """Every result field but the wall clock and the worker label."""
    rows = []
    for result in report.results:
        row = {f.name: getattr(result, f.name)
               for f in dataclasses.fields(result)
               if f.name not in ("seconds", "worker", "events")}
        row["events"] = _event_fingerprint(result.events)
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def derived_reference(tmp_path_factory, libc_profiles_linux):
    """An uninterrupted journaled minidb campaign whose list has derived
    cases (ordinals past every call of their function): its campaign
    key, meta and journal bytes, its records, its matrix, its results
    and its summary's cases by status."""
    root = tmp_path_factory.mktemp("byte-reference")
    factory = _campaign_factory("minidb", LINUX_X86)
    cases = enumerate_cases(libc_profiles_linux,
                            functions=["open", "close", "rename"],
                            max_codes_per_function=2,
                            call_ordinals=(1, 2, 4))
    store = ResultStore(root)
    report = run_campaign("minidb", factory, LINUX_X86,
                          libc_profiles_linux, cases,
                          telemetry=Telemetry(), results=store)
    assert report.summary.derived > 0
    (key_dir,) = [p for p in store.root.iterdir() if p.is_dir()]
    return dict(factory=factory, cases=cases, key=key_dir.name,
                meta=(key_dir / "meta.json").read_bytes(),
                journal=(key_dir / "journal.jsonl").read_bytes(),
                records=store.load(key_dir.name),
                matrix=matrix_from_store(store).to_json(),
                rows=_result_rows(report),
                outcomes=report.summary.outcomes)


def _resume_cut(ref, journal, profiles, root, *, backend, jobs):
    """Resume the reference campaign in a store under ``root`` from
    ``journal``, a cut copy of its journal; returns the report and the
    store."""
    store = ResultStore(root)
    key_dir = store.root / ref["key"]
    key_dir.mkdir()
    (key_dir / "meta.json").write_bytes(ref["meta"])
    (key_dir / "journal.jsonl").write_bytes(journal)
    report = run_campaign("minidb", ref["factory"], LINUX_X86, profiles,
                          ref["cases"], jobs=jobs, backend=backend,
                          telemetry=Telemetry(), results=store,
                          resume=True)
    return report, store


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_crash_at_any_byte_of_the_journal_resumes(derived_reference,
                                                  libc_profiles_linux,
                                                  data):
    """Cut the journal at any byte — between records, inside one, inside
    a multi-byte character — and ``--resume`` on either backend ends
    with the uninterrupted run's records and ``repro report`` matrix."""
    ref = derived_reference
    cut = data.draw(st.integers(0, len(ref["journal"])), label="cut")
    backend, jobs = data.draw(st.sampled_from([("serial", 1),
                                               ("process", 2)]),
                              label="backend")
    with tempfile.TemporaryDirectory() as root:
        _report, store = _resume_cut(ref, ref["journal"][:cut],
                                     libc_profiles_linux, root,
                                     backend=backend, jobs=jobs)
        records = store.load(ref["key"])
        assert set(records) == set(ref["records"])
        for case_key, record in ref["records"].items():
            assert _normalize_record(records[case_key]) == \
                _normalize_record(record), record["case"]
        assert matrix_from_store(store).to_json() == ref["matrix"]


def test_resume_after_any_record_derives_the_same_cases(
        derived_reference, libc_profiles_linux, pool_items):
    """Cut the journal after each of its records in turn: the resumed
    run's results — ``derived`` included — and its summary's cases by
    status equal the uninterrupted run's, and its pool runs only what
    was neither restored nor derived."""
    ref = derived_reference
    lines = ref["journal"].splitlines(keepends=True)
    for kept in range(len(lines) + 1):
        backend, jobs = (("serial", 1), ("process", 2))[kept % 2]
        pool_items.clear()
        with tempfile.TemporaryDirectory() as root:
            report, _store = _resume_cut(ref, b"".join(lines[:kept]),
                                         libc_profiles_linux, root,
                                         backend=backend, jobs=jobs)
        assert _result_rows(report) == ref["rows"], kept
        assert report.summary.outcomes == ref["outcomes"], kept
        assert report.resumed["skipped"] == kept
        assert sum(pool_items) == sum(
            1 for pos, row in enumerate(ref["rows"])
            if pos >= kept and not row["derived"]), kept


def test_restored_representative_stands_in_unless_it_lacks_firings(
        derived_reference, libc_profiles_linux, pool_items):
    """A restored record journaled with ``firings`` is its function's
    representative: the cases behind it derive without a new run.  One
    journaled before ``firings`` existed cannot serve, so the next case
    that cannot fire runs in its place."""
    ref = derived_reference
    lines = ref["journal"].splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    rename = [pos for pos, rec in enumerate(records)
              if rec["function"] == "rename"]
    first = rename[0]
    assert ref["rows"][first]["derived"] is False
    assert all(ref["rows"][pos]["derived"] for pos in rename[1:])
    kept = lines[:first + 1]
    legacy = kept[:-1] + [json.dumps(
        {k: v for k, v in records[first].items() if k != "firings"},
        sort_keys=True).encode() + b"\n"]
    runs = []
    for journal in (kept, legacy):
        pool_items.clear()
        with tempfile.TemporaryDirectory() as root:
            report, _store = _resume_cut(ref, b"".join(journal),
                                         libc_profiles_linux, root,
                                         backend="serial", jobs=1)
        runs.append(([pos for pos in rename if report.results[pos].derived],
                     sum(pool_items)))
    (derived, ran), (derived_legacy, ran_legacy) = runs
    assert derived == rename[1:]
    assert derived_legacy == rename[2:]
    assert ran_legacy == ran + 1


class TestCrashedWorkerJournaled:
    def test_worker_crash_is_journaled_then_resumed(
            self, tmp_path, libc_linux, libc_profiles_linux):
        """A worker that dies outright still leaves a journal record —
        the parent writes it, not the worker — and resume restores the
        ``crashed`` result without re-running anything."""
        crash_errno = "EINTR"

        def factory(lfi):
            codes = [c.errno for t in lfi.plan.triggers for c in t.codes]

            def session():
                if crash_errno in codes:
                    os._exit(42)     # simulated worker death
                proc = lfi.make_process(Kernel(), [libc_linux.image])
                rc = proc.libcall("close", 3)
                return 1 if rc != 0 else 0
            return session
        cases = [FaultCase("close", ErrorCode(-1, e), 1)
                 for e in ("EIO", crash_errno, "EBADF")]
        store = ResultStore(tmp_path / "s")
        report = run_campaign("crashy", factory, LINUX_X86,
                              libc_profiles_linux, cases,
                              jobs=2, backend="process",
                              results=store, results_key={"app": "crashy"})
        statuses = [r.outcome.status for r in report.results]
        assert statuses == ["error-exit", "crashed", "error-exit"]

        # every case made it to the journal, crash included
        (key_dir,) = [p for p in store.root.iterdir() if p.is_dir()]
        records = store.load(key_dir.name)
        assert len(records) == 3
        assert sorted(r["status"] for r in records.values()) == \
            ["crashed", "error-exit", "error-exit"]
        crashed = [r for r in records.values()
                   if r["status"] == "crashed"][0]
        assert crashed["detail"] == "worker died with exit code 42"

        resumed = run_campaign("crashy", factory, LINUX_X86,
                               libc_profiles_linux, cases,
                               results=store,
                               results_key={"app": "crashy"}, resume=True)
        assert resumed.resumed == {"skipped": 3, "replayed": 0}
        assert [r.outcome.status for r in resumed.results] == statuses

    def test_journal_lines_are_valid_json_after_crash_run(
            self, tmp_path, libc_linux, libc_profiles_linux):
        """Parent-side journaling means a dead worker can't tear the
        file: every line the crash run wrote parses."""
        store = ResultStore(tmp_path / "s")
        run_campaign("equiv", _factory(libc_linux), LINUX_X86,
                     libc_profiles_linux, _CASES[:2],
                     jobs=2, backend="process",
                     results=store, results_key={"app": "equiv"})
        (key_dir,) = [p for p in store.root.iterdir() if p.is_dir()]
        lines = (key_dir / "journal.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)


# -- a SIGKILLed parent ------------------------------------------------------

#: every profiled libc function x error code x call ordinals 1-3: 585
#: minidb cases
_EXHAUSTIVE = ["campaign", "minidb", "--call-ordinal", "1",
               "--call-ordinal", "2", "--call-ordinal", "3"]


def _proc_stat(pid):
    """``(state, ppid, starttime)`` of ``pid`` from ``/proc``, or
    ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1]), int(fields[19])


def _children(pid):
    """The processes ``pid`` started, by pid, with their start times."""
    children = {}
    for entry in os.listdir("/proc"):
        stat = _proc_stat(entry) if entry.isdigit() else None
        if stat is not None and stat[1] == pid:
            children[int(entry)] = stat[2]
    return children


def _exited(pid, started):
    """Gone, a zombie, or its pid reused by a later process."""
    stat = _proc_stat(pid)
    return stat is None or stat[0] == "Z" or stat[2] != started


def _wait_for_records(proc, results, count, deadline=120.0):
    """Poll the campaign journal under ``results`` until it holds
    ``count`` records; fails if the campaign exits first."""
    seen, offset = 0, 0
    stop = time.monotonic() + deadline
    while seen < count:
        assert proc.poll() is None, \
            f"the campaign finished after {seen} of {count} records"
        assert time.monotonic() < stop, f"{seen} of {count} records"
        for journal in results.glob("*/journal.jsonl"):
            with open(journal, "rb") as fh:
                fh.seek(offset)
                chunk = fh.read()
            offset += len(chunk)
            seen += chunk.count(b"\n")
        time.sleep(0.002)


@pytest.fixture(scope="module")
def serial_exhaustive(tmp_path_factory):
    """The profile store the runs share, and the matrix an
    uninterrupted serial run of the exhaustive list reports."""
    root = tmp_path_factory.mktemp("sigkill-reference")
    profiles = root / "profiles"
    assert main(_EXHAUSTIVE + ["--store", str(profiles), "--results-dir",
                               str(root / "results")]) in (0, 1)
    assert main(["report", str(root / "results"),
                 "--out", str(root / "matrix.json")]) == 0
    return profiles, (root / "matrix.json").read_bytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads the worker processes from /proc")
@pytest.mark.parametrize("records", [5, 400])
def test_sigkilled_campaign_leaves_no_worker_and_resumes(
        records, tmp_path, serial_exhaustive):
    """SIGKILL the parent of a two-worker process campaign after
    ``records`` journal records: its workers see their pipes close and
    exit, and ``--resume`` converges on the serial run's matrix."""
    profiles, reference = serial_exhaustive
    results = tmp_path / "results"
    argv = _EXHAUSTIVE + ["--store", str(profiles), "--results-dir",
                          str(results), "--backend", "process",
                          "--jobs", "2"]
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "repro"] + argv,
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        _wait_for_records(proc, results, records)
        workers = _children(proc.pid)
        proc.kill()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(10)
    assert workers, "no forked worker was running"
    deadline = time.monotonic() + 10.0
    while not all(_exited(pid, started) for pid, started in workers.items()):
        assert time.monotonic() < deadline, \
            f"workers outlived their parent: {sorted(workers)}"
        time.sleep(0.01)

    assert main(argv + ["--resume"]) in (0, 1)
    assert main(["report", str(results),
                 "--out", str(tmp_path / "matrix.json")]) == 0
    assert (tmp_path / "matrix.json").read_bytes() == reference
