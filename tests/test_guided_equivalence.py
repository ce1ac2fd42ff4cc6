"""Differential equivalence for coverage-guided campaigns.

Guided scheduling is adaptive, but it must not be *nondeterministic*:
the frontier applies coverage feedback only between fixed-width
batches, so the schedule is a pure function of the case list and the
per-case coverage.  These tests pin that contract down — the same seed
case list produces the identical schedule on the serial and process
backends, and resuming an interrupted guided campaign replays
the scheduler decision-for-decision, converging on a byte-identical
failure-mode matrix.

CI runs this file with ``-rs`` and fails the job if any test here is
skipped — the guarantee must actually be exercised, not waved through.
"""

from __future__ import annotations

import pytest

from tests.test_resume_equivalence import (_assert_identical,
                                           _event_fingerprint)

from repro.core.campaign import FaultCase, run_campaign
from repro.core.results import ResultStore, matrix_from_store
from repro.core.scenario import ErrorCode
from repro.kernel import Kernel, O_CREAT, O_RDWR
from repro.obs import MemorySink, Telemetry
from repro.platform import LINUX_X86

#: The seed search space: 3 functions × 2 errnos × 4 ordinals.  The
#: workload writes 3 times, so the frontier's golden bound prunes the
#: ordinal axis hard (open/close are called once) and a guided run
#: executes 10 of the 24 cells.
_CASES = [FaultCase(fn, ErrorCode(-1, errno), ordinal)
          for fn in ("open", "write", "close")
          for errno in ("EIO", "EACCES")
          for ordinal in (1, 2, 3, 4)]
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
            for _ in range(3):
                if proc.libcall("write", fd, buf, 4) != 4:
                    return 1
            return 1 if proc.libcall("close", fd) != 0 else 0
        return session
    return factory


def _run(libc_linux, profiles, store, *, backend, jobs, resume=False,
         budget=None):
    sink = MemorySink()
    tele = Telemetry(sinks=[sink])
    report = run_campaign("guided-equiv", _factory(libc_linux),
                          LINUX_X86, profiles, _CASES, jobs=jobs,
                          backend=backend, telemetry=tele,
                          results=store,
                          results_key={"app": "guided-equiv"},
                          resume=resume, guided=True,
                          budget_cases=budget)
    return report, sink


def _schedule(report):
    return [r.case.case_id() for r in report.results]


def _interrupted_store(reference_store, tmp_path):
    """The reference journal cut off the way a crash leaves it: the
    first N records survive, record N+1 is a torn fragment."""
    (key_dir,) = [p for p in reference_store.root.iterdir()
                  if p.is_dir()]
    lines = (key_dir / "journal.jsonl").read_text().splitlines()
    assert len(lines) > _INTERRUPT_AFTER
    cut = ResultStore(tmp_path / "interrupted")
    cut_dir = cut.root / key_dir.name
    cut_dir.mkdir()
    torn = lines[_INTERRUPT_AFTER][:40]
    (cut_dir / "journal.jsonl").write_text(
        "\n".join(lines[:_INTERRUPT_AFTER]) + "\n" + torn)
    return cut


class TestGuidedScheduleDeterminism:
    def test_schedule_identical_across_backends(self, tmp_path,
                                                libc_linux,
                                                libc_profiles_linux):
        runs = {}
        for backend, jobs in (("serial", 1), ("process", 2)):
            store = ResultStore(tmp_path / backend)
            report, _ = _run(libc_linux, libc_profiles_linux, store,
                             backend=backend, jobs=jobs)
            runs[backend] = (report, store)
        serial, serial_store = runs["serial"]
        # the scheduler actually schedules (pruning happened)
        assert 0 < len(serial.results) < len(_CASES)
        reference_matrix = matrix_from_store(serial_store).to_json()
        report, store = runs["process"]
        assert _schedule(report) == _schedule(serial)
        _assert_identical(serial, report)
        assert matrix_from_store(store).to_json() == reference_matrix

    def test_guided_schedule_is_repeatable(self, tmp_path, libc_linux,
                                           libc_profiles_linux):
        a, sink_a = _run(libc_linux, libc_profiles_linux,
                         ResultStore(tmp_path / "a"),
                         backend="serial", jobs=1)
        b, sink_b = _run(libc_linux, libc_profiles_linux,
                         ResultStore(tmp_path / "b"),
                         backend="serial", jobs=1)
        assert _schedule(a) == _schedule(b)
        assert _event_fingerprint(sink_a.events) == \
            _event_fingerprint(sink_b.events)


class TestGuidedResume:
    @pytest.mark.parametrize("backend,jobs", [
        ("serial", 1), ("process", 2)])
    def test_interrupted_resume_converges(self, backend, jobs, tmp_path,
                                          libc_linux,
                                          libc_profiles_linux):
        reference_store = ResultStore(tmp_path / "reference")
        reference, ref_sink = _run(libc_linux, libc_profiles_linux,
                                   reference_store, backend=backend,
                                   jobs=jobs)
        assert reference.resumed == {"skipped": 0,
                                     "replayed": len(reference.results)}

        cut = _interrupted_store(reference_store, tmp_path)
        resumed, sink = _run(libc_linux, libc_profiles_linux, cut,
                             backend=backend, jobs=jobs, resume=True)
        assert resumed.resumed == {
            "skipped": _INTERRUPT_AFTER,
            "replayed": len(reference.results) - _INTERRUPT_AFTER}
        # the resumed scheduler replays the original decisions exactly
        assert _schedule(resumed) == _schedule(reference)
        _assert_identical(reference, resumed)
        assert matrix_from_store(cut).to_json() == \
            matrix_from_store(reference_store).to_json()
        assert _event_fingerprint(ref_sink.events) == \
            _event_fingerprint(sink.events)

    def test_cross_backend_resume(self, tmp_path, libc_linux,
                                  libc_profiles_linux):
        """A guided journal written serially resumes under process."""
        reference_store = ResultStore(tmp_path / "reference")
        reference, _ = _run(libc_linux, libc_profiles_linux,
                            reference_store, backend="serial", jobs=1)
        cut = _interrupted_store(reference_store, tmp_path)
        resumed, _ = _run(libc_linux, libc_profiles_linux, cut,
                          backend="process", jobs=2, resume=True)
        assert _schedule(resumed) == _schedule(reference)
        _assert_identical(reference, resumed)
        assert matrix_from_store(cut).to_json() == \
            matrix_from_store(reference_store).to_json()

    def test_completed_campaign_resumes_without_rerunning(
            self, tmp_path, libc_linux, libc_profiles_linux):
        store = ResultStore(tmp_path / "s")
        reference, _ = _run(libc_linux, libc_profiles_linux, store,
                            backend="serial", jobs=1)
        resumed, _ = _run(libc_linux, libc_profiles_linux, store,
                          backend="serial", jobs=1, resume=True)
        assert resumed.resumed == {"skipped": len(reference.results),
                                   "replayed": 0}
        assert _schedule(resumed) == _schedule(reference)


class TestGuidedBudget:
    def test_budget_truncates_deterministically(self, tmp_path,
                                                libc_linux,
                                                libc_profiles_linux):
        full, _ = _run(libc_linux, libc_profiles_linux,
                       ResultStore(tmp_path / "full"),
                       backend="serial", jobs=1)
        capped, _ = _run(libc_linux, libc_profiles_linux,
                         ResultStore(tmp_path / "capped"),
                         backend="serial", jobs=1, budget=4)
        assert len(capped.results) == 4
        # the budget clips the same schedule, it doesn't reshuffle it
        assert _schedule(capped) == _schedule(full)[:4]
