"""The parallel campaign engine: determinism, reaping, summaries."""

import threading

import pytest

from repro.core.campaign import enumerate_cases, run_campaign
from repro.core.controller import STATUS_HUNG
from repro.core.exec import resolve_jobs
from repro.kernel import Kernel, O_CREAT, O_RDWR
from repro.platform import LINUX_X86


def _copytool_factory(libc_image):
    """The file-copy workload from the campaign tests: deterministic
    status per (function, errno) case."""
    def factory(lfi):
        def session():
            proc = lfi.make_process(Kernel(), [libc_image])
            fd = proc.libcall("open", proc.cstr("/f"),
                              O_CREAT | O_RDWR, 0o644)
            buf = proc.scratch_alloc(4)
            proc.mem_write(buf, b"data")
            proc.libcall("write", fd, buf, 4)
            rc = proc.libcall("close", fd)
            return 1 if rc != 0 else 0
        return session
    return factory


class TestDeterministicOrdering:
    def test_jobs4_report_identical_to_serial(self, libc_linux,
                                              libc_profiles_linux):
        """The tentpole guarantee: a parallel campaign is ordered and
        scored byte-for-byte like a serial one."""
        factory = _copytool_factory(libc_linux.image)
        cases = enumerate_cases(libc_profiles_linux,
                                functions=["open", "close"])
        assert len(cases) > 4

        serial = run_campaign("copytool", factory, LINUX_X86,
                              libc_profiles_linux, cases)
        parallel = run_campaign("copytool", factory, LINUX_X86,
                                libc_profiles_linux, cases,
                                jobs=4, backend="process")

        def fingerprint(report):
            return [(r.case.case_id(), r.outcome.status, r.fired)
                    for r in report.results]

        assert fingerprint(parallel) == fingerprint(serial)
        assert parallel.render() == serial.render()

    def test_serial_path_unchanged_without_jobs(self, libc_linux,
                                                libc_profiles_linux):
        """jobs=1 and no timeout keeps the plain inline loop."""
        factory = _copytool_factory(libc_linux.image)
        cases = enumerate_cases(libc_profiles_linux, functions=["close"],
                                max_codes_per_function=2)
        report = run_campaign("copytool", factory, LINUX_X86,
                              libc_profiles_linux, cases)
        assert report.summary is not None
        assert report.summary.backend == "serial"
        assert report.summary.jobs == 1

    def test_budget_cases_needs_guided(self, libc_linux,
                                       libc_profiles_linux):
        """A budget caps guided scheduling only; without ``guided`` it
        used to be dropped silently and every case ran."""
        factory = _copytool_factory(libc_linux.image)
        cases = enumerate_cases(libc_profiles_linux, functions=["close"])
        with pytest.raises(ValueError, match="budget_cases"):
            run_campaign("copytool", factory, LINUX_X86,
                         libc_profiles_linux, cases, budget_cases=3)


class TestHungWorkloads:
    def test_hanging_case_reaped_by_per_case_timeout(
            self, libc_linux, libc_profiles_linux):
        release = threading.Event()
        try:
            def factory(lfi):
                errno = lfi.plan.triggers[0].codes[0].errno

                def session():
                    if errno == "EIO":       # this one case deadlocks
                        release.wait(30)
                        return 0
                    proc = lfi.make_process(Kernel(), [libc_linux.image])
                    rc = proc.libcall("close", 3)
                    return 1 if rc != 0 else 0
                return session

            cases = enumerate_cases(libc_profiles_linux,
                                    functions=["close"])
            assert any(c.code.errno == "EIO" for c in cases)
            report = run_campaign("deadlocker", factory, LINUX_X86,
                                  libc_profiles_linux, cases,
                                  jobs=2, timeout=0.3)

            by_errno = {r.case.code.errno: r for r in report.results}
            assert by_errno["EIO"].outcome.status == STATUS_HUNG
            assert "timeout" in by_errno["EIO"].outcome.detail
            others = [r for r in report.results
                      if r.case.code.errno != "EIO"]
            assert others and all(r.outcome.status != STATUS_HUNG
                                  for r in others)
            assert report.outcome() == "hung"
            assert len(report.hung()) == 1
            assert "h" in report.render()
        finally:
            release.set()


class TestRunSummary:
    def test_campaign_report_carries_summary(self, libc_linux,
                                             libc_profiles_linux):
        factory = _copytool_factory(libc_linux.image)
        cases = enumerate_cases(libc_profiles_linux, functions=["close"])
        report = run_campaign("copytool", factory, LINUX_X86,
                              libc_profiles_linux, cases,
                              jobs=2, backend="process")
        summary = report.summary
        assert summary.kind == "campaign"
        assert summary.app == "copytool"
        assert summary.cases == len(cases)
        statuses = [r.outcome.status for r in report.results]
        assert summary.outcomes == {status: statuses.count(status)
                                    for status in set(statuses)}
        assert not {"crashed", "hung"} & set(summary.outcomes)
        assert summary.cases_per_second > 0
        assert 0.0 <= summary.worker_utilization <= 1.0
        assert summary.jobs == resolve_jobs(2)
        assert summary.backend == "process"

    def test_summary_serializes_with_shared_keys(self, libc_linux,
                                                 libc_profiles_linux):
        factory = _copytool_factory(libc_linux.image)
        cases = enumerate_cases(libc_profiles_linux, functions=["close"],
                                max_codes_per_function=1)
        report = run_campaign("copytool", factory, LINUX_X86,
                              libc_profiles_linux, cases, jobs=2)
        data = report.summary.to_dict()
        assert data["schema"] == "repro.report/1"
        for key in ("app", "outcome", "duration", "cases_per_second",
                    "worker_utilization", "cache"):
            assert key in data

    def test_per_case_durations_recorded(self, libc_linux,
                                         libc_profiles_linux):
        factory = _copytool_factory(libc_linux.image)
        cases = enumerate_cases(libc_profiles_linux, functions=["close"],
                                max_codes_per_function=2)
        report = run_campaign("copytool", factory, LINUX_X86,
                              libc_profiles_linux, cases, jobs=2)
        assert all(r.seconds >= 0 for r in report.results)
        assert report.duration > 0


class TestUnifiedEventOrder:
    """Exhaustive and guided campaigns run through one engine loop and
    frame their case events identically."""

    CAMPAIGN_KINDS = ("campaign.start", "case", "campaign.resume",
                      "campaign.guided", "campaign.end")

    def _run(self, libc_linux, profiles, store, *, guided, resume=False,
             plans=None):
        from repro.core.campaign import FaultCase
        from repro.core.scenario import ErrorCode
        from repro.obs import MemorySink, Telemetry

        inner = _copytool_factory(libc_linux.image)

        def factory(lfi):
            if plans is not None:
                plans.append(lfi.plan.name)
            return inner(lfi)

        cases = [FaultCase("close", ErrorCode(-1, errno), 1)
                 for errno in ("EIO", "EBADF", "EINTR")]
        sink = MemorySink()
        tele = Telemetry(sinks=[sink])
        report = run_campaign("copytool", factory, LINUX_X86, profiles,
                              cases, telemetry=tele, results=store,
                              results_key={"app": "copytool"},
                              resume=resume, guided=guided)
        kinds = [e.kind for e in sink.events
                 if e.kind in self.CAMPAIGN_KINDS]
        counters = tele.metrics.snapshot()

        def total(name):
            return sum(v["value"]
                       for v in counters.get(name, {}).get("values", ()))
        hits_misses = (total("repro_result_store_hits_total"),
                       total("repro_result_store_misses_total"))
        return report, kinds, hits_misses

    @pytest.mark.parametrize("guided", [False, True])
    def test_resume_reported_after_the_last_case(self, guided, tmp_path,
                                                 libc_linux,
                                                 libc_profiles_linux):
        from repro.core.results import ResultStore

        report, kinds, (hits, misses) = self._run(
            libc_linux, libc_profiles_linux, ResultStore(tmp_path),
            guided=guided)
        n = len(report.results)
        assert kinds == (["campaign.start"] + ["case"] * n
                         + ["campaign.resume"]
                         + (["campaign.guided"] if guided else [])
                         + ["campaign.end"])
        assert report.resumed == {"skipped": hits, "replayed": misses}

    def test_full_exhaustive_resume_runs_no_case(self, tmp_path, libc_linux,
                                                 libc_profiles_linux):
        from repro.core.results import ResultStore

        store = ResultStore(tmp_path)
        first, _, _ = self._run(libc_linux, libc_profiles_linux, store,
                                guided=False)
        plans = []
        resumed, kinds, (hits, misses) = self._run(
            libc_linux, libc_profiles_linux, store, guided=False,
            resume=True, plans=plans)
        n = len(first.results)
        assert resumed.resumed == {"skipped": n, "replayed": 0}
        assert (hits, misses) == (n, 0)
        assert plans == ["golden"]
        assert kinds == (["campaign.start"] + ["case"] * n
                         + ["campaign.resume", "campaign.end"])
