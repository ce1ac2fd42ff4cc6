#!/usr/bin/env python3
"""§2's comparative use case: rank builds by fault-tolerance.

"We envision LFI being used ... in benchmarks that compare in a
systematic way the fault-tolerance of different applications."  This
subjects the shipped (buggy) minipidgin and the ticket-8672 fixed build
to the same battery of random I/O faultloads and prints a scoreboard —
the workflow a release engineer would use to gate a fix.  Each build
runs the battery as one campaign of plan cases.

Run:  python examples/robustness_compare.py
"""

from repro import (Controller, Kernel, LINUX_X86, Profiler,
                   build_kernel_image, libc)
from repro.apps import MiniPidgin
from repro.core.robustness import (compare_robustness, format_scoreboard,
                                   survival_rate)
from repro.core.scenario import io_faults

HOSTS = [f"buddy{i}.example.org" for i in range(12)]
N_SCENARIOS = 10


def factory(hardened):
    def make(lfi):
        def session():
            app = MiniPidgin(Kernel(), LINUX_X86, controller=lfi,
                             hardened=hardened)
            app.login_and_chat(HOSTS)
            return 0
        return session
    return make


def main() -> None:
    built = libc(LINUX_X86)
    profiler = Profiler(LINUX_X86, {built.image.soname: built.image},
                        build_kernel_image(LINUX_X86))
    profiles = profiler.profile_all()
    libc_profile = profiles["libc.so.6"]
    scenarios = [io_faults(libc_profile, probability=0.10, seed=seed)
                 for seed in range(N_SCENARIOS)]

    print(f"running {N_SCENARIOS} identical faultload scenarios against "
          "two builds...\n")
    reports = compare_robustness(
        {"pidgin-2.5 (buggy)": factory(False),
         "pidgin (ticket-8672 fix)": factory(True)},
        LINUX_X86, profiles, scenarios)

    print(format_scoreboard(reports))
    buggy = reports["pidgin-2.5 (buggy)"]
    fixed = reports["pidgin (ticket-8672 fix)"]
    print(f"\nverdict: the fix eliminates "
          f"{len(buggy.crashes()) - len(fixed.crashes())} crash(es) per "
          f"{N_SCENARIOS}-scenario battery "
          f"({100 * survival_rate(buggy):.0f}% -> "
          f"{100 * survival_rate(fixed):.0f}% survival)")


if __name__ == "__main__":
    main()
