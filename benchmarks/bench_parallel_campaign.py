"""Parallel campaign throughput and profile-store warmth.

Two claims from the parallel engine work:

* ``campaign --jobs N`` (process backend) beats a serial run on a
  multi-core host — the fault space is embarrassingly parallel, so
  cases/sec should scale until the CPU count caps it.  On a single-core
  runner the pool auto-clamps and the comparison is reported but not
  asserted.
* A warm :class:`ProfileStore` makes a repeat profile at least 5x
  faster than cold analysis (a disk hit skips the propagation engine).

Set ``REPRO_BENCH_FAST=1`` for a CI-sized smoke run: a smaller fault
space, narrower pools, and no scaling bar (shared runners can't promise
cores) — the bit-identical cross-backend check still applies.
"""

from __future__ import annotations

import os
import time

from repro.cli import _campaign_factory
from repro.core.campaign import enumerate_cases, run_campaign
from repro.core.profiler import Profiler
from repro.core.store import ProfileStore
from repro.corpus.libc import libc
from repro.kernel import build_kernel_image
from repro.platform import LINUX_X86

from _benchutil import print_table

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

_FUNCTIONS = (["open", "read", "close"] if FAST
              else ["open", "read", "write", "close", "lseek", "fsync"])
_MAX_CODES = 2 if FAST else None
_JOBS = 2 if FAST else 4


def _campaign_arms():
    built = libc(LINUX_X86)
    images = {built.image.soname: built.image}
    profiles = Profiler(LINUX_X86, images,
                        build_kernel_image(LINUX_X86)).profile_all()
    factory = _campaign_factory("minidb", LINUX_X86)
    cases = enumerate_cases(profiles, functions=_FUNCTIONS,
                            max_codes_per_function=_MAX_CODES)

    arms = []
    for label, kwargs in (
            ("serial", {}),
            (f"process x{_JOBS}", {"jobs": _JOBS, "backend": "process"})):
        started = time.perf_counter()
        report = run_campaign("minidb", factory, LINUX_X86, profiles,
                              cases, **kwargs)
        seconds = time.perf_counter() - started
        arms.append((label, len(cases), seconds,
                     len(cases) / seconds, report))
    return arms


def test_parallel_campaign_throughput(benchmark):
    arms = benchmark.pedantic(_campaign_arms, rounds=1, iterations=1)

    rows = [f"{label:<12} {n:4d} cases  {seconds:7.3f} s  "
            f"{rate:8.1f} cases/sec  "
            f"(jobs={report.summary.jobs}, "
            f"util={report.summary.worker_utilization:.0%})"
            for label, n, seconds, rate, report in arms]
    rows.append(f"(host: {os.cpu_count()} CPUs; pools auto-clamp)")
    print_table("parallel campaign — cases/sec by backend",
                "arm            cases      time       throughput", rows)

    serial = arms[0]
    fingerprint = [(r.case.case_id(), r.outcome.status)
                   for r in serial[4].results]
    for label, _n, _s, _rate, report in arms[1:]:
        # whatever the speed, parallel runs must be bit-identical
        assert [(r.case.case_id(), r.outcome.status)
                for r in report.results] == fingerprint, label
    if not FAST and (os.cpu_count() or 1) >= 4:
        # fast mode: tiny cases make fork overhead dominate, and shared
        # CI runners can't promise cores — identity is the smoke check
        process = arms[1]
        assert process[3] >= 2 * serial[3], \
            "process x4 should at least double cases/sec on >=4 cores"


def _store_arms(tmp_root):
    built = libc(LINUX_X86)
    images = {built.image.soname: built.image}
    kernel = build_kernel_image(LINUX_X86)

    started = time.perf_counter()
    ProfileStore(tmp_root).profile_or_load(LINUX_X86, images, kernel)
    cold = time.perf_counter() - started

    started = time.perf_counter()
    ProfileStore(tmp_root).profile_or_load(LINUX_X86, images, kernel)
    disk = time.perf_counter() - started
    return cold, disk


def test_warm_store_beats_cold_profile(benchmark, tmp_path):
    cold, disk = benchmark.pedantic(
        _store_arms, args=(tmp_path,), rounds=1, iterations=1)

    print_table(
        "profile store — cold vs warm repeat profile",
        "layer             time         speedup",
        [f"cold analysis  {cold * 1000:9.2f} ms        1.0x",
         f"warm (disk)    {disk * 1000:9.2f} ms   {cold / disk:8.1f}x"])

    assert cold >= 5 * disk, "disk-warm repeat profile should be >=5x"
