"""The repro.Session facade: load -> profile -> campaign in one chain."""

import importlib
import json
import warnings

import pytest

import repro
from repro import Session
from repro.core.campaign import enumerate_cases, run_campaign
from repro.core.controller import TestOutcome, TestReport
from repro.core.profiler import Profiler
from repro.core.scenario import FunctionTrigger, ReturnFault
from repro.core.store import ProfileStore
from repro.errors import ReproError
from repro.kernel import Kernel, O_CREAT, O_RDWR
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
        campaign_stage = data["stages"][1]
        assert campaign_stage["cases"] == 2
        assert campaign_stage["cases_per_second"] > 0
        assert "cache" in campaign_stage

    def test_shared_key_triple_across_report_types(self, libc_linux,
                                                   kernel_image_linux):
        """Satellite: CampaignReport, TestReport and RunSummary all
        serialize the same app/outcome/duration triple."""
        session = Session(LINUX_X86, app="copytool",
                          kernel_image=kernel_image_linux)
        session.load(libc_linux)
        campaign = session.campaign(_copytool_factory(libc_linux.image),
                                    functions=["close"],
                                    max_codes_per_function=1)
        test_report = TestReport(app="copytool")
        test_report.outcomes.append(TestOutcome(test_id="t",
                                                status="normal"))
        dicts = [campaign.to_dict(), test_report.to_dict(),
                 session.summaries[-1].to_dict()]
        for data in dicts:
            assert data["schema"] == "repro.report/1"
            assert data["app"] == "copytool"
            assert isinstance(data["outcome"], str)
            assert isinstance(data["duration"], float)


class TestStoreIntegration:
    def test_memory_lru_shared_across_stores(self, tmp_path, libc_linux,
                                             kernel_image_linux):
        first = Session(LINUX_X86, store=tmp_path / "a",
                        kernel_image=kernel_image_linux)
        first.load(libc_linux).profile()
        assert first.store.misses == 1

        # different directory, same image: served from the process LRU
        second = Session(LINUX_X86, store=tmp_path / "b",
                         kernel_image=kernel_image_linux)
        second.load(libc_linux).profile()
        assert second.store.misses == 0
        assert second.store.memory_hits == 1
        stage = second.summaries[-1]
        assert stage.cache_memory_hits == 1 and stage.cache_misses == 0


#: Spellings that 2.0 removed, each with the error that must name it.
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
}


class TestDeprecationShims:
    """2.0 removed the shims: old spellings fail by name, new ones are
    silent."""

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
