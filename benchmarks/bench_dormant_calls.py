"""The dormant-plan fast path: intercepted-call and campaign throughput.

A dormant intercepted call (no trigger can fire on it) completes in
the stub's fused block closure, which asks the injector's bypass
(``Injector.bypass``, one call) and jumps to the original without
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
* **calls per crossing** — Python-level calls (``sys.setprofile``
  ``call`` and ``c_call`` events) one warm call makes in each regime,
  less the unshimmed call's: a deterministic work count;
* **no-fault campaign** — serial cases/sec on a minimal workload whose
  triggers fire on call 1 and go dormant for the rest of the case.

The four call regimes are built up front and their rounds alternate,
so the host's drift lands on every regime alike.

Results land in ``BENCH_dormant.json``.  Runs standalone
(``PYTHONPATH=src python benchmarks/bench_dormant_calls.py``)
or under pytest.  Set ``REPRO_BENCH_FAST=1`` for a CI-sized smoke run.
"""

from __future__ import annotations

import json
import os
import statistics
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

#: alternating rounds per regime, and ``close`` calls per round
_ROUNDS = 15 if FAST else 100
_CALLS_PER_ROUND = 100 if FAST else 200
_CAMPAIGN_ROUNDS = 1 if FAST else 3

_REGIMES = ("live", "dormant", "passthrough", "unbound")

_OUT = Path(__file__).resolve().parent.parent / "BENCH_dormant.json"


def _profiles():
    image = libc(LINUX_X86).image
    profiles = Profiler(LINUX_X86, {image.soname: image},
                        build_kernel_image(LINUX_X86)).profile_all()
    return image, profiles


def _regime(image, profiles, kind: str):
    """A process whose ``close`` runs under one interception regime.

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
    proc.libcall("close", 99)       # binds every block on the path
    return proc


def _python_calls(proc) -> int:
    """Python-level calls (``call`` and ``c_call`` profile events) one
    warm ``close(99)`` makes."""
    events = [0]

    def count(frame, event, arg):
        if event == "call" or event == "c_call":
            events[0] += 1
    sys.setprofile(count)
    try:
        proc.libcall("close", 99)
    finally:
        sys.setprofile(None)
    return events[0]


def _measure_calls(image, profiles) -> dict:
    """``close()`` cost under the four regimes, rounds interleaved.

    Per regime: the best and the median round's µs per call, the
    median over rounds of its µs over the unbound round next to it,
    calls/sec at the median round, and Python-level calls per call.
    """
    procs = {kind: _regime(image, profiles, kind) for kind in _REGIMES}
    python_calls = {kind: _python_calls(proc)
                    for kind, proc in procs.items()}
    rounds = {kind: [] for kind in _REGIMES}
    for _ in range(_ROUNDS):
        for kind, proc in procs.items():
            started = time.perf_counter()
            for _ in range(_CALLS_PER_ROUND):
                proc.libcall("close", 99)
            rounds[kind].append((time.perf_counter() - started)
                                / _CALLS_PER_ROUND * 1e6)
    unbound = rounds["unbound"]
    results = {}
    for kind in _REGIMES:
        median = statistics.median(rounds[kind])
        results[kind] = {
            "best_us": round(min(rounds[kind]), 2),
            "median_us": round(median, 2),
            "over_unbound_us": round(statistics.median(
                [us - base for us, base in zip(rounds[kind], unbound)]), 2),
            "calls_per_second": round(1e6 / median, 1),
            "python_calls": python_calls[kind],
            "calls_per_crossing": python_calls[kind]
            - python_calls["unbound"],
        }
    return results


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
    regimes = _measure_calls(image, profiles)
    calls = {f"{kind}_calls_per_second": regimes[kind]["calls_per_second"]
             for kind in _REGIMES}
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
    calls["regimes"] = regimes
    calls["rounds"] = {"rounds": _ROUNDS, "calls_per_round": _CALLS_PER_ROUND,
                       "order": "interleaved: " + ", ".join(_REGIMES)}
    return {"dormant_calls": calls,
            "nofault_campaign": _measure_nofault_campaign(image, profiles)}


def _report(results, write_json: bool = True):
    calls = results["dormant_calls"]
    camp = results["nofault_campaign"]
    regimes = calls["regimes"]
    print_table(
        f"dormant fast path ({'fast' if FAST else 'full'} mode, "
        f"{_ROUNDS} interleaved rounds of {_CALLS_PER_ROUND} calls)",
        "regime         best us   median us   over unbound   calls/s"
        "   calls/crossing",
        [f"{kind:<12} {r['best_us']:9.2f} {r['median_us']:11.2f} "
         f"{r['over_unbound_us']:14.2f} {r['calls_per_second']:9.1f} "
         f"{r['calls_per_crossing']:16d}"
         for kind, r in regimes.items()]
        + [f"dormant vs live {calls['speedup']:.2f}x, passthrough vs "
           f"dormant {calls['passthrough_vs_dormant']:.2f}, overhead "
           f"recovered {calls['overhead_recovered']}",
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
    # a work count, not a time: the fused stub closure, its two stack
    # word writes and its one-call bypass
    crossing = calls["regimes"]["dormant"]["calls_per_crossing"]
    assert crossing <= 12, \
        f"a dormant crossing made {crossing} Python-level calls, above 12"


def test_dormant_calls(benchmark):
    results = benchmark.pedantic(_arms, rounds=1, iterations=1)
    _report(results, write_json=not FAST)
    _assert_claims(results)


if __name__ == "__main__":
    results = _arms()
    _report(results, write_json=not FAST)
    _assert_claims(results)
