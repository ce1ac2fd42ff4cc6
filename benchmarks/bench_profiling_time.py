"""§6.2 Efficiency: profiling time scales with code size.

Paper: 0.2 s for libdmx (18 exported functions, 8 KB code segment) up to
20 s for libxml2 (1,612 exported functions, 897 KB); "profiling time is
mainly influenced by code size"; propagation hop counts stay <= 3.

The benchmark profiles the corpus ladder and checks monotonic scaling
with code size plus the hop bound.

Set ``REPRO_BENCH_FAST=1`` for a CI-sized smoke run: only the small
end of the ladder is profiled and the code-size scaling bar is skipped
(it needs the two-orders-of-magnitude spread); the hop bound and the
interactivity ceiling still apply.
"""

from __future__ import annotations

import os
import time

from repro.core.profiler import Profiler
from repro.corpus import EFFICIENCY_LADDER, build_table2_library
from repro.corpus.libraries import TABLE2_ROWS
from repro.kernel import build_kernel_image
from repro.platform import LINUX_X86, SOLARIS_SPARC, WINDOWS_X86

from _benchutil import print_table

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

_LADDER = EFFICIENCY_LADDER[:3] if FAST else EFFICIENCY_LADDER

_PLATFORM_OF = {row[0]: row[1] for row in TABLE2_ROWS}


def _profile_ladder():
    from repro.corpus.libc import libc
    out = []
    # libc first: its syscall wrappers exercise real dependent-function
    # hops (close -> kernel = 1; opendir -> open -> kernel = 2)
    built = libc(LINUX_X86)
    profiler = Profiler(LINUX_X86, {built.image.soname: built.image},
                        build_kernel_image(LINUX_X86))
    started = time.perf_counter()
    profiler.profile_library(built.image.soname)
    out.append(("libc.so.6", len(built.image.exports),
                built.image.code_size(),
                time.perf_counter() - started,
                profiler.last_report.max_hops))
    for soname, n_functions, _filler in _LADDER:
        stem = soname[:-3]  # drop .so
        platform = _PLATFORM_OF.get(stem, LINUX_X86)
        generated = build_table2_library(stem, platform)
        kernel_image = build_kernel_image(platform)
        profiler = Profiler(platform,
                            {generated.image.soname: generated.image},
                            kernel_image)
        started = time.perf_counter()
        profile = profiler.profile_library(generated.image.soname)
        seconds = time.perf_counter() - started
        out.append((soname, len(generated.image.exports),
                    generated.image.code_size(), seconds,
                    profiler.last_report.max_hops))
    return out


def test_profiling_time_scales_with_code_size(benchmark):
    ladder = benchmark.pedantic(_profile_ladder, rounds=1, iterations=1)

    rows = []
    for soname, n_functions, code_bytes, seconds, hops in ladder:
        rows.append(f"{soname:<16} {n_functions:5d} fns  "
                    f"{code_bytes / 1024:8.1f} KB   {seconds:7.3f} s   "
                    f"max hops {hops}")
    rows.append("(paper: libdmx 18 fns/8 KB -> 0.2 s;  "
                "libxml2 1612 fns/897 KB -> 20 s)")
    print_table("§6.2 — profiling time vs library size",
                "library           exports     code        time",
                rows)

    by_size = sorted(ladder, key=lambda r: r[2])
    smallest, largest = by_size[0], by_size[-1]
    if not FAST:
        # two orders of magnitude in code size must cost clearly more
        # time (the fast ladder lacks the spread to assert this)
        assert largest[3] > 3 * smallest[3]
    # the paper's hop observation: "always 3 or less"
    assert all(hops <= 3 for *_rest, hops in ladder)
    # profiling stays interactive (the paper's adoption argument)
    assert largest[3] < 60

