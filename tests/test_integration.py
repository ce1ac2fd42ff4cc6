"""End-to-end: the paper's two-command workflow (§2, §6.1).

Command 1: point LFI at the application — ldd finds its libraries, the
profiler extracts fault profiles.  Command 2: generate a scenario, run
the monitored test, collect log + replay scripts.
"""

import pytest

from repro.apps import MiniWeb, ApacheBenchDriver
from repro.apps.apr import apr, aprutil
from repro.core.controller import Controller
from repro.core.profiler import profile_application
from repro.core.profiles import LibraryProfile
from repro.core.scenario import exhaustive_plan, plan_to_xml, random_plan
from repro.kernel import Kernel, build_kernel_image
from repro.platform import LINUX_X86


@pytest.fixture(scope="module")
def discovered_profiles(libc_linux, kernel_image_linux):
    """Command 1: profile the target application's library closure."""
    aprutil_img = aprutil(LINUX_X86).image
    available = {
        "libc.so.6": libc_linux.image,
        "libapr-1.so": apr(LINUX_X86).image,
        "libaprutil-1.so": aprutil_img,
    }
    # the app links only libaprutil; ldd must pull in libapr and libc
    return profile_application(LINUX_X86, [aprutil_img], available,
                               kernel_image_linux)


class TestDiscovery:
    def test_ldd_closure_profiled(self, discovered_profiles):
        assert set(discovered_profiles) == {
            "libc.so.6", "libapr-1.so", "libaprutil-1.so"}

    def test_wrappers_inherit_libc_errors(self, discovered_profiles):
        """apr_file_read -> read -> kernel: three-library propagation."""
        apr_read = discovered_profiles["libapr-1.so"].function(
            "apr_file_read")
        assert -1 in apr_read.retvals()
        values = {v for se in apr_read.find(-1).side_effects
                  for v in se.values}
        assert -9 in values            # EBADF from the kernel image

    def test_two_level_wrapper_chain(self, discovered_profiles):
        brigade = discovered_profiles["libaprutil-1.so"].function(
            "apr_brigade_write")
        assert -1 in brigade.retvals()

    def test_profiles_serialize(self, discovered_profiles, tmp_path):
        for soname, profile in discovered_profiles.items():
            path = tmp_path / f"{soname}.profile"
            path.write_text(profile.to_xml())
            again = LibraryProfile.from_xml(path.read_text())
            assert set(again.functions) == set(profile.functions)


class TestCampaign:
    def test_exhaustive_campaign_over_web_server(self, discovered_profiles):
        plan = exhaustive_plan(discovered_profiles,
                               functions=["open", "read"])
        lfi = Controller(LINUX_X86, discovered_profiles, plan)

        def workload():
            server = MiniWeb(Kernel(), LINUX_X86, controller=lfi)
            result = ApacheBenchDriver(server).run_static(4)
            return 0 if result.failures < 4 else 1

        outcomes = [lfi.run_test(workload), lfi.run_test(workload)]
        assert len(outcomes) == 2
        assert lfi.injections > 0
        assert lfi.logbook.render()

    def test_scenario_xml_is_the_interchange_format(self,
                                                    discovered_profiles):
        plan = random_plan(discovered_profiles, probability=0.1, seed=1)
        xml = plan_to_xml(plan)
        assert xml.startswith("<plan")
        assert 'inject="random"' in xml
