"""The repro.Session facade: load -> profile -> campaign in one chain."""

import importlib
import json
import os
import warnings

import pytest

import repro
from repro import Session
from repro.core.campaign import FaultCase, enumerate_cases, run_campaign
from repro.core.exec.engine import RunSummary, execute_campaign
from repro.core.exec.pool import TaskResult, WorkerPool, resolve_jobs
from repro.core.profiler import Profiler, profile_application
from repro.core.results import CampaignJournal, ResultStore, result_record
from repro.core.scenario import FunctionTrigger, ReturnFault
from repro.core.store import ProfileStore
from repro.errors import ReproError
from repro.kernel import Kernel, O_CREAT, O_RDWR
from repro.obs import Telemetry
from repro.obs.tracing import NULL_TRACER, SpanTracer
from repro.platform import LINUX_X86


def _copytool_factory(libc_image):
    def factory(lfi):
        def session():
            proc = lfi.make_process(Kernel(), [libc_image])
            fd = proc.libcall("open", proc.cstr("/f"),
                              O_CREAT | O_RDWR, 0o644)
            rc = proc.libcall("close", fd)
            return 1 if rc != 0 else 0
        return session
    return factory


class TestFacade:
    def test_exported_at_top_level(self):
        assert repro.Session is Session
        assert "Session" in repro.__all__
        # the lower-level names remain public
        assert repro.Profiler and repro.Controller and repro.ProfileStore

    def test_fluent_chain_matches_direct_api(self, libc_linux,
                                             kernel_image_linux):
        factory = _copytool_factory(libc_linux.image)
        session = Session(LINUX_X86, app="copytool",
                          kernel_image=kernel_image_linux)
        report = (session
                  .load(libc_linux)
                  .profile()
                  .campaign(factory, functions=["close"]))

        profiles = {"libc.so.6": session.profiles["libc.so.6"]}
        cases = enumerate_cases(profiles, functions=["close"])
        direct = run_campaign("copytool", factory, LINUX_X86,
                              profiles, cases)
        assert [(r.case.case_id(), r.outcome.status)
                for r in report.results] \
            == [(r.case.case_id(), r.outcome.status)
                for r in direct.results]

    def test_platform_by_name(self):
        assert Session("solaris-sparc").platform.name == "solaris-sparc"

    def test_load_accepts_mappings_paths_and_builds(self, tmp_path,
                                                    libc_linux):
        path = tmp_path / "libc.self"
        path.write_bytes(libc_linux.image.to_bytes())
        by_build = Session().load(libc_linux)
        by_image = Session().load(libc_linux.image)
        by_map = Session().load({"libc.so.6": libc_linux.image})
        by_path = Session().load(path)
        by_list = Session().load([libc_linux.image])
        for s in (by_build, by_image, by_map, by_path, by_list):
            assert set(s.images) == {"libc.so.6"}

    def test_load_rejects_junk(self):
        with pytest.raises(TypeError):
            Session().load(42)

    def test_profile_without_images_raises(self):
        with pytest.raises(ReproError):
            Session().profile()

    def test_profiles_property_profiles_lazily(self, libc_linux,
                                               kernel_image_linux):
        session = Session(LINUX_X86, kernel_image=kernel_image_linux)
        session.load(libc_linux)
        assert session._profiles is None
        assert "close" in {f for f in
                           session.profiles["libc.so.6"].functions}
        # idempotent: a second profile() is a no-op
        before = len(session.summaries)
        session.profile()
        assert len(session.summaries) == before

    def test_load_invalidates_profiles(self, libc_linux,
                                       kernel_image_linux):
        session = Session(LINUX_X86, kernel_image=kernel_image_linux)
        session.load(libc_linux).profile()
        assert session._profiles is not None
        session.load(libc_linux)
        assert session._profiles is None


class TestRunSummaryJson:
    def test_summary_covers_all_stages(self, libc_linux,
                                       kernel_image_linux, tmp_path):
        session = Session(LINUX_X86, app="copytool", jobs=2,
                          store=tmp_path / "cache",
                          kernel_image=kernel_image_linux)
        session.load(libc_linux).profile()
        session.campaign(_copytool_factory(libc_linux.image),
                         functions=["close"],
                         max_codes_per_function=2)
        data = json.loads(session.summary_json())
        assert data["schema"] == "repro.run-summary/1"
        assert data["app"] == "copytool"
        assert [s["kind"] for s in data["stages"]] \
            == ["profile", "campaign"]
        # profiling ignores the pool knobs, and its stage says so
        profile_stage = data["stages"][0]
        assert (profile_stage["jobs"], profile_stage["backend"]) \
            == (1, "serial")
        campaign_stage = data["stages"][1]
        assert campaign_stage["cases"] == 2
        assert campaign_stage["cases_per_second"] > 0
        assert "cache" in campaign_stage

    def test_summary_reports_the_pool_the_campaign_ran_on(
            self, libc_linux, kernel_image_linux):
        """``jobs=0`` asks for one worker per CPU; the summary and the
        campaign stage report the pool that ran, not the request."""
        cpus = os.cpu_count() or 1
        session = Session(LINUX_X86, app="copytool", jobs=0,
                          kernel_image=kernel_image_linux)
        session.load(libc_linux)
        session.campaign(_copytool_factory(libc_linux.image),
                         functions=["close"], max_codes_per_function=2)
        data = session.summary()
        ran = (cpus, "process" if cpus > 1 else "serial")
        assert (data["jobs"], data["backend"]) == ran
        stage = data["stages"][-1]
        assert (stage["jobs"], stage["backend"]) == ran

    def test_shared_key_triple_across_report_types(self, libc_linux,
                                                   kernel_image_linux):
        """CampaignReport and RunSummary serialize the same
        app/outcome/duration triple."""
        session = Session(LINUX_X86, app="copytool",
                          kernel_image=kernel_image_linux)
        session.load(libc_linux)
        campaign = session.campaign(_copytool_factory(libc_linux.image),
                                    functions=["close"],
                                    max_codes_per_function=1)
        dicts = [campaign.to_dict(), session.summaries[-1].to_dict()]
        for data in dicts:
            assert data["schema"] == "repro.report/1"
            assert data["app"] == "copytool"
            assert isinstance(data["outcome"], str)
            assert isinstance(data["duration"], float)


def _one_case_campaign(images, **options):
    """Run a one-case campaign over ``close``."""
    profiles = Profiler(LINUX_X86, images).profile_all()
    cases = enumerate_cases(profiles, functions=["close"],
                            max_codes_per_function=1)
    run_campaign("copytool", _copytool_factory(images["libc.so.6"]),
                 LINUX_X86, profiles, cases, **options)


def _campaign_metric(images, name):
    """Metric ``name`` of a one-case campaign run with telemetry on."""
    telemetry = Telemetry()
    _one_case_campaign(images, telemetry=telemetry)
    return telemetry.metrics.snapshot()[name]


def _journal_record(images, tmp):
    """The record a one-case campaign journals."""
    store = ResultStore(tmp)
    _one_case_campaign(images, results=store)
    return next(iter(store.load(store.resolve()).values()))


def _named(path):
    """The module a dotted path names, or the attribute of one."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, name = path.rpartition(".")
        return getattr(_named(module), name)


#: Spellings that 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0 and 9.0 removed, each
#: with the error that must name it.
_REMOVED_SPELLINGS = {
    "Profiler-libraries": (
        TypeError, "libraries",
        lambda images, tmp: Profiler(LINUX_X86, libraries=images)),
    "profile_or_load-libraries": (
        TypeError, "libraries",
        lambda images, tmp: ProfileStore(tmp).profile_or_load(
            LINUX_X86, libraries=images)),
    "FunctionTrigger-codes": (
        TypeError, "codes",
        lambda images, tmp: FunctionTrigger(
            function="close", mode="nth", nth=1,
            codes=(ReturnFault(-1),))),
    "scenario.Fault": (
        AttributeError, "Fault",
        lambda images, tmp: importlib.import_module(
            "repro.core.scenario").Fault),
    "scenario.model.Fault": (
        AttributeError, "Fault",
        lambda images, tmp: importlib.import_module(
            "repro.core.scenario.model").Fault),
    "profile_library-jobs": (
        TypeError, "jobs",
        lambda images, tmp: Profiler(LINUX_X86, images).profile_library(
            "libc.so.6", jobs=2)),
    "profile_library-pool": (
        TypeError, "pool",
        lambda images, tmp: Profiler(LINUX_X86, images).profile_library(
            "libc.so.6", pool=None)),
    "profile_all-jobs": (
        TypeError, "jobs",
        lambda images, tmp: Profiler(LINUX_X86, images).profile_all(
            jobs=2)),
    "profile_all-pool": (
        TypeError, "pool",
        lambda images, tmp: Profiler(LINUX_X86, images).profile_all(
            pool=None)),
    "profile_application-jobs": (
        TypeError, "jobs",
        lambda images, tmp: profile_application(
            LINUX_X86, list(images.values()), images, jobs=2)),
    "profile_or_load-jobs": (
        TypeError, "jobs",
        lambda images, tmp: ProfileStore(tmp).profile_or_load(
            LINUX_X86, images, jobs=2)),
    "execute_campaign-pool": (
        TypeError, "pool",
        lambda images, tmp: execute_campaign(
            "app", None, LINUX_X86, {}, [], pool=None)),
    "WorkerPool-mp_context": (
        TypeError, "mp_context",
        lambda images, tmp: WorkerPool(jobs=1, mp_context="fork")),
    "WorkerPool-thread": (
        ValueError, "thread",
        lambda images, tmp: WorkerPool(jobs=2, backend="thread")),
    "exec.THREAD": (
        AttributeError, "THREAD",
        lambda images, tmp: importlib.import_module(
            "repro.core.exec").THREAD),
    "exec.pool.MAX_THREAD_JOBS": (
        AttributeError, "MAX_THREAD_JOBS",
        lambda images, tmp: importlib.import_module(
            "repro.core.exec.pool").MAX_THREAD_JOBS),
    "resolve_jobs-backend": (
        TypeError, "backend",
        lambda images, tmp: resolve_jobs(2, backend="process")),
    "trace-parent": (
        TypeError, "parent",
        lambda images, tmp: SpanTracer().trace(
            "span", parent=None).__enter__()),
    "NULL_TRACER.trace-parent": (
        TypeError, "parent",
        lambda images, tmp: NULL_TRACER.trace("span", parent=None)),
    "WorkerPool-metrics": (
        TypeError, "metrics",
        lambda images, tmp: WorkerPool(jobs=1, metrics=None)),
    "WorkerPool._record_metrics": (
        AttributeError, "_record_metrics",
        lambda images, tmp: WorkerPool._record_metrics),
    "TaskResult.ok": (
        AttributeError, "ok", lambda images, tmp: TaskResult(index=0).ok),
    "TaskResult.unwrap": (
        AttributeError, "unwrap",
        lambda images, tmp: TaskResult(index=0).unwrap()),
}
# the buffered per-case copies of the event log and the instruments
_REMOVED_SPELLINGS.update({
    f"{module[len('repro.'):]}.{name}": (
        AttributeError, name,
        lambda images, tmp, module=module, name=name: getattr(
            importlib.import_module(module), name))
    for module, name in (
        ("repro.obs", "BufferedEventLog"),
        ("repro.obs", "BufferedMetricsRegistry"),
        ("repro.obs.events", "BufferedEventLog"),
        ("repro.obs.metrics", "BufferedMetricsRegistry"),
        ("repro.obs.metrics", "BufferedCounter"),
        ("repro.obs.metrics", "BufferedGauge"),
        ("repro.obs.metrics", "BufferedHistogram"))})
# the pool's own metrics: the engine's repro_case* family counts its tasks
_REMOVED_SPELLINGS.update({
    name: (KeyError, name,
           lambda images, tmp, name=name: _campaign_metric(images, name))
    for name in ("repro_pool_tasks_total", "repro_pool_task_seconds",
                 "repro_pool_queue_wait_seconds",
                 "repro_pool_worker_utilization")})
# one status per case: the task status and the journal index, the third
# outcome loop and its report, and helpers nothing called
_REMOVED_SPELLINGS.update({
    f"{where[len('repro.'):] or where}.{name}": (
        AttributeError, name,
        lambda images, tmp, where=where, name=name: getattr(
            _named(where), name))
    for where, name in (
        ("repro", "TestReport"),
        ("repro.core.controller", "TestReport"),
        ("repro.core.controller.controller", "TestReport"),
        ("repro.core.controller.Controller", "run_campaign"),
        ("repro.core.exec", "record_tasks"),
        ("repro.core.exec", "summarize_tasks"),
        ("repro.core.exec.engine", "record_tasks"),
        ("repro.core.exec.engine", "summarize_tasks"),
        ("repro.core.exec.RunSummary", "from_metrics"),
        ("repro.core.results.store", "INDEX_SCHEMA"),
        ("repro.apps.loadgen", "loadgen_factory"),
        ("repro.runtime.blocks", "merge_coverage"),
        ("repro.core.profiler.cfg.Cfg", "block_at"),
        ("repro.isa.abi.Abi", "caller_arg_disp"),
        ("repro.binfmt.image.SharedObject", "export_map"),
        ("repro.apps.workloads.AbResult", "requests_per_second"),
        ("repro.runtime.process.LoadedModule", "text_end"),
        ("repro.core.scenario.model.FunctionTrigger", "wants_injection"))})
_REMOVED_SPELLINGS.update({
    f"RunSummary.{name}": (
        AttributeError, name,
        lambda images, tmp, name=name: getattr(
            RunSummary("campaign", "app", "ok", 0.0), name))
    for name in ("ok", "errors", "hung", "crashed")})
_REMOVED_SPELLINGS.update({
    "journal-task_status": (
        KeyError, "task_status",
        lambda images, tmp: _journal_record(images, tmp)["task_status"]),
    "CampaignJournal.record-task_status": (
        TypeError, "task_status",
        lambda images, tmp: CampaignJournal(tmp / "c", "k").record(
            "", None, None, task_status="ok")),
    "result_record-task_status": (
        TypeError, "task_status",
        lambda images, tmp: result_record("k", "", None, None,
                                          task_status="ok")),
})
# one dormancy number per function: the engine's and the injector's
# separate dormancy bookkeeping
_REMOVED_SPELLINGS.update({
    f"{where[len('repro.'):]}.{name}": (
        AttributeError, name,
        lambda images, tmp, where=where, name=name: getattr(
            _named(where), name))
    for where, name in (
        ("repro.core.controller.triggers.TriggerEngine", "can_still_fire"),
        ("repro.core.controller.triggers.TriggerEngine",
         "record_dormant_call"),
        ("repro.core.controller.injector.Injector", "_recompute_dormancy"),
        ("repro.core.controller.triggers", "_compile"),
        # 7.1: the stubs' bypass is Injector.bypass, one call
        ("repro.core.controller.injector.Injector", "dormant_original"),
        # 8.0: a replayed case gets its own controller, and the profile
        # store keeps its disk layer only
        ("repro.core.controller.injector.Injector", "rebind"),
        ("repro.core.store.ProfileStore", "clear_memory_cache"))})
_REMOVED_SPELLINGS.update({
    "ProfileStore-memory_cache": (
        TypeError, "memory_cache",
        lambda images, tmp: ProfileStore(tmp, memory_cache=False)),
    "ProfileStore.memory_hits": (
        AttributeError, "memory_hits",
        lambda images, tmp: ProfileStore(tmp).memory_hits),
    "RunSummary-cache_memory_hits": (
        TypeError, "cache_memory_hits",
        lambda images, tmp: RunSummary(kind="profile", app="", outcome="ok",
                                       duration=0.0, cache_memory_hits=0)),
})
# 9.0: a campaign case is its plan.  A fail-rate cell is a PlanCase,
# and the robustness battery is a campaign of them
_REMOVED_SPELLINGS.update({
    f"{where[len('repro.'):]}.{name}": (
        AttributeError, name,
        lambda images, tmp, where=where, name=name: getattr(
            _named(where), name))
    for where, name in (
        ("repro.core.robustness", "run_battery"),
        ("repro.core.robustness", "RobustnessReport"),
        ("repro.core.robustness", "AppFactory"),
        ("repro.core.robustness", "ScenarioSource"),
        ("repro.core.campaign.CampaignReport", "classes"))})
_REMOVED_SPELLINGS.update({
    f"FaultCase-{name}": (
        TypeError, name,
        lambda images, tmp, name=name: FaultCase(
            "close", ReturnFault(-1, "EIO"), 1, **{name: 0.5}))
    for name in ("probability", "seed")})
_REMOVED_SPELLINGS["FaultCase.effective_seed"] = (
    AttributeError, "effective_seed",
    lambda images, tmp: FaultCase("close", ReturnFault(-1, "EIO"))
    .effective_seed())


class TestDeprecationShims:
    """2.0 removed the shims, 3.0 the profiler's pool parameters, 4.0
    the thread backend, 5.0 the buffered telemetry copies and the
    pool's metrics, 6.0 the task status, the journal index, the
    controller's campaign loop and unused helpers, 7.0 the separate
    dormancy bookkeeping, 7.1 the three-call bypass, 8.0 the
    snapshot transplant and the in-memory profile cache and 9.0 the
    probabilistic FaultCase and the battery loop: old spellings fail by
    name, new ones are silent."""

    @pytest.mark.parametrize("spelling", sorted(_REMOVED_SPELLINGS))
    def test_removed_spelling_fails_by_name(self, spelling, tmp_path,
                                            libc_linux):
        error, name, use = _REMOVED_SPELLINGS[spelling]
        with pytest.raises(error, match=f"'{name}'"):
            use({"libc.so.6": libc_linux.image}, tmp_path)

    def test_images_kwarg_is_silent(self, tmp_path, libc_linux):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profiler = Profiler(LINUX_X86,
                                images={"libc.so.6": libc_linux.image})
            ProfileStore(tmp_path).profile_or_load(
                LINUX_X86, images={"libc.so.6": libc_linux.image})
        assert profiler.libraries is profiler.images   # read alias stays
