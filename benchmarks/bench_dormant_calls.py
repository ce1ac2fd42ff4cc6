"""The dormant-plan fast path: intercepted-call and campaign throughput.

A dormant intercepted call (no trigger can fire on it) completes in
the stub's fused block closure, which asks the injector's bypass
(``Injector.dormant_original``) and jumps to the original without
entering the host.  This benchmark measures it against live trigger
evaluation:

* **dormant calls** — intercepted libc calls/sec through a
  stack-matched trigger whose call-ordinal horizon has passed (the
  dormant proof holds: the stub call skips the host) vs the same
  trigger shape with a far-future horizon (evaluated, and the
  backtrace built, on every call);
* **passthrough calls** — the same calls under §6.4's passthrough
  shape, 77 random triggers of p = 1e-9: their countdowns keep the
  function dormant, so they should cost what a dormant call costs;
* **no-fault campaign** — serial cases/sec on a minimal workload whose
  triggers fire on call 1 and go dormant for the rest of the case.

Results land in ``BENCH_dormant.json``.  Runs standalone
(``PYTHONPATH=src python benchmarks/bench_dormant_calls.py``)
or under pytest.  Set ``REPRO_BENCH_FAST=1`` for a CI-sized smoke run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":                       # standalone: no conftest
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.campaign import enumerate_cases, run_campaign
from repro.core.controller import Controller
from repro.core.profiler import Profiler
from repro.core.scenario import ErrorCode, FrameSpec, FunctionTrigger, Plan
from repro.corpus.libc import libc
from repro.kernel import Kernel, build_kernel_image
from repro.platform import LINUX_X86

from _benchutil import print_table

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

_DORMANT_CALLS = 300 if FAST else 2_000
_CAMPAIGN_ROUNDS = 1 if FAST else 3

_OUT = Path(__file__).resolve().parent.parent / "BENCH_dormant.json"


def _profiles():
    image = libc(LINUX_X86).image
    profiles = Profiler(LINUX_X86, {image.soname: image},
                        build_kernel_image(LINUX_X86)).profile_all()
    return image, profiles


def _measure_calls(image, profiles, kind: str) -> float:
    """``close()`` calls/sec under four interception regimes.

    * ``live`` — an nth trigger with a stack-trace condition and a
      far-future horizon: every call is evaluated and a backtrace is
      built, and the frame spec never matches;
    * ``dormant`` — the same trigger shape with its horizon at call 1:
      it passes immediately, so every later call is dormant and the
      stub completes it without entering the host;
    * ``passthrough`` — 77 plain random triggers of p = 1e-9 passing
      calls through: dormant until their earliest countdown comes due;
    * ``unbound`` — the plan targets a different function entirely, so
      ``close`` is never shimmed: the zero-interception ceiling.

    Best of three samples per regime — single-run call throughput is
    noisy relative to the effect being measured.
    """
    plan = Plan(seed=1)
    if kind == "unbound":
        plan.add(FunctionTrigger(function="read", mode="nth", nth=1,
                                 actions=(ErrorCode(-1, "EIO"),)))
    elif kind == "passthrough":
        for _ in range(77):
            plan.add(FunctionTrigger(function="close", mode="random",
                                     probability=1e-9,
                                     actions=(ErrorCode(-1, "EBADF"),),
                                     calloriginal=True))
    else:
        plan.add(FunctionTrigger(
            function="close", mode="nth",
            nth=1 if kind == "dormant" else 1_000_000,
            stacktrace=(FrameSpec("no_such_caller"),),
            actions=(ErrorCode(-1, "EBADF"),)))
    lfi = Controller(LINUX_X86, profiles, plan)
    proc = lfi.make_process(Kernel(), [image])
    proc.libcall("close", 99)       # call 1: passes the dormant horizon
    best = 0.0
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(_DORMANT_CALLS):
            proc.libcall("close", 99)
        best = max(best, _DORMANT_CALLS
                   / (time.perf_counter() - started))
    return best


def _measure_nofault_campaign(image, profiles) -> dict:
    """Serial cases/sec on a minimal workload: triggers fire on call 1,
    the rest of every case runs on the dormant fast path."""
    O_CREAT, O_RDWR = 0o100, 0o2

    def factory(lfi):
        def session():
            proc = lfi.make_process(Kernel(), [image])
            fd = proc.libcall("open", proc.cstr("/f"), O_CREAT | O_RDWR,
                              0o644)
            buf = proc.scratch_alloc(4)
            proc.mem_write(buf, b"data")
            proc.libcall("write", fd, buf, 4)
            rc = proc.libcall("close", fd)
            return 1 if rc != 0 else 0
        return session
    cases = enumerate_cases(profiles, functions=["close", "write"],
                            max_codes_per_function=2)
    run_campaign("warm", factory, LINUX_X86, profiles, cases)
    best = 0.0
    for _ in range(_CAMPAIGN_ROUNDS):
        started = time.perf_counter()
        run_campaign("bench", factory, LINUX_X86, profiles, cases)
        best = max(best, len(cases) / (time.perf_counter() - started))
    return {"cases": len(cases), "cases_per_second": round(best, 2)}


def _arms():
    image, profiles = _profiles()
    results = {
        "dormant_calls": {
            "live_calls_per_second": _measure_calls(
                image, profiles, "live"),
            "dormant_calls_per_second": _measure_calls(
                image, profiles, "dormant"),
            "passthrough_calls_per_second": _measure_calls(
                image, profiles, "passthrough"),
            "unbound_calls_per_second": _measure_calls(
                image, profiles, "unbound")},
        "nofault_campaign": _measure_nofault_campaign(image, profiles),
    }
    calls = results["dormant_calls"]
    calls["speedup"] = round(calls["dormant_calls_per_second"]
                             / calls["live_calls_per_second"], 2)
    calls["passthrough_vs_dormant"] = round(
        calls["passthrough_calls_per_second"]
        / calls["dormant_calls_per_second"], 2)
    # how much of the live-vs-unbound interception overhead the fast
    # path recovers (1.0 = dormant calls cost the same as unshimmed)
    gap = (calls["unbound_calls_per_second"]
           - calls["live_calls_per_second"])
    calls["overhead_recovered"] = round(
        (calls["dormant_calls_per_second"]
         - calls["live_calls_per_second"]) / gap, 2) if gap > 0 else None
    return results


def _report(results, write_json: bool = True):
    calls = results["dormant_calls"]
    camp = results["nofault_campaign"]
    print_table(
        f"dormant fast path ({'fast' if FAST else 'full'} mode)",
        "arm                           live             dormant      speedup",
        [f"intercepted calls (/s)  {calls['live_calls_per_second']:10.1f}"
         f"      {calls['dormant_calls_per_second']:14.1f}      "
         f"{calls['speedup']:5.2f}x",
         f"  (unshimmed ceiling)   "
         f"{calls['unbound_calls_per_second']:10.1f}      "
         f"overhead recovered: {calls['overhead_recovered']}",
         f"77 passthrough triggers "
         f"{calls['passthrough_calls_per_second']:10.1f}      "
         f"vs dormant: {calls['passthrough_vs_dormant']:.2f}",
         f"no-fault campaign       {camp['cases']:6d} cases      "
         f"{camp['cases_per_second']:10.1f}/s"])
    if write_json:
        _OUT.write_text(json.dumps({
            "schema": "repro.bench/1",
            "benchmark": "dormant_calls",
            "mode": "fast" if FAST else "full",
            "results": results,
        }, indent=2, sort_keys=True) + "\n")
        print(f"wrote {_OUT}")


def _assert_claims(results) -> None:
    # CI runners are noisy; the fast-mode bar is a regression
    # tripwire, the full-mode bar the recorded claim
    dormant_bar = 1.02 if FAST else 1.08
    calls = results["dormant_calls"]
    assert calls["speedup"] >= dormant_bar, \
        (f"dormant fast path {calls['speedup']:.2f}x over live "
         f"evaluation fell below {dormant_bar:.2f}x")
    # passthrough triggers count down: a call under them is dormant
    passthrough_bar = 0.75 if FAST else 0.90
    assert calls["passthrough_vs_dormant"] >= passthrough_bar, \
        (f"calls under 77 passthrough triggers ran at "
         f"{calls['passthrough_vs_dormant']:.2f}x the dormant rate, "
         f"below {passthrough_bar:.2f}x")
    if not FAST:
        # the fast path should recover a meaningful share of the
        # live-vs-unshimmed gap (measured ~0.5-0.8 on this host)
        recovered = calls["overhead_recovered"]
        assert recovered is None or recovered >= 0.25, \
            f"dormant path recovered only {recovered} of the overhead"


def test_dormant_calls(benchmark):
    results = benchmark.pedantic(_arms, rounds=1, iterations=1)
    _report(results, write_json=not FAST)
    _assert_claims(results)


if __name__ == "__main__":
    results = _arms()
    _report(results, write_json=not FAST)
    _assert_claims(results)
