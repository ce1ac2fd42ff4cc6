"""§2's comparative-benchmark use case: buggy vs. fixed Pidgin.

"We envision LFI being used ... in benchmarks that compare in a
systematic way the fault-tolerance of different applications."  The
battery subjects the shipped (buggy) minipidgin and the ticket-8672
fixed build to identical random I/O faultloads and prints the
scorecard: the fix must eliminate the SIGABRT class entirely.  Each
build runs the battery as one campaign of plan cases.
"""

from __future__ import annotations

from repro.apps import MiniPidgin
from repro.core.robustness import (compare_robustness, format_scoreboard,
                                   survival_rate)
from repro.core.scenario import io_faults
from repro.kernel import Kernel
from repro.platform import LINUX_X86

from _benchutil import print_table

HOSTS = [f"buddy{i}.example.org" for i in range(12)]
N_SCENARIOS = 10


def _factory(hardened):
    def make(lfi):
        def session():
            app = MiniPidgin(Kernel(), LINUX_X86, controller=lfi,
                             hardened=hardened)
            app.login_and_chat(HOSTS)
            return 0
        return session
    return make


def test_robustness_comparison(benchmark, libc_profiles_linux):
    libc_profile = libc_profiles_linux["libc.so.6"]
    scenarios = [io_faults(libc_profile, probability=0.10, seed=seed)
                 for seed in range(N_SCENARIOS)]

    reports = benchmark.pedantic(
        lambda: compare_robustness(
            {"pidgin-2.5 (buggy)": _factory(False),
             "pidgin (ticket fix)": _factory(True)},
            LINUX_X86, libc_profiles_linux, scenarios),
        rounds=1, iterations=1)

    print_table("§2 — systematic fault-tolerance comparison",
                "scoreboard",
                format_scoreboard(reports).splitlines())

    buggy = reports["pidgin-2.5 (buggy)"]
    fixed = reports["pidgin (ticket fix)"]
    assert len(buggy.crashes()) > N_SCENARIOS // 2    # the bug bites often
    assert len(fixed.crashes()) == 0                  # the fix holds
    assert survival_rate(fixed) > survival_rate(buggy)
