"""Interpreter throughput: guest MIPS on a hot loop and on minidb.

Every campaign case burns most of its wall clock in the CPU interpreter
(`Cpu.run`), so guest instruction throughput is the denominator of every
other number in EXPERIMENTS.md.  This benchmark measures it directly:

* **hot loop** — a synthetic arithmetic/branch kernel (the interpreter's
  best case: everything stays in registers and one basic block);
* **minidb** — the campaign workload used by §6-style experiments
  (realistic mix: calls, PLT hops, syscalls, memory traffic).

Both are measured on the block-compiled fast path and on the exact
per-instruction path (the one a tracer gets), in alternating rounds of
one process, and the results land in ``BENCH_interp.json`` next to the
recorded pre-tentpole baseline, which the report's speedups still
divide by.  Both bars, full mode's and the fast-mode tripwire, compare
the block path with the step path measured beside it, so host load
moves both.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_interp_throughput.py``)
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

from repro.binfmt import SharedObject, Symbol
from repro.errors import RuntimeFault
from repro.isa import Imm, Label, Mem, Reg, assemble, ins, label
from repro.isa.assembler import collect_labels
from repro.kernel import Kernel
from repro.platform import LINUX_X86
from repro.runtime import Process
from repro.runtime.cpu import Cpu

from _benchutil import print_table

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

#: Hot-loop iterations (7 instructions per iteration, plus prologue).
_LOOP_ITERS = 20_000 if FAST else 300_000
#: alternating step/block rounds per workload
_LOOP_ROUNDS = 5 if FAST else 3
_MINIDB_ROUNDS = 1 if FAST else 3

#: The fast-mode tripwire: block-path MIPS over step-path MIPS on the
#: hot loop.  It replaced a bar of 2.0x the seed baseline, 1.40 MIPS,
#: which is 1.52x the step path's recorded 0.92 MIPS; this bar is no
#: weaker at those speeds.
FAST_BAR_VS_STEP = 1.55

#: The full-mode bar, against the step path measured in the same run so
#: that host load slows both sides alike.  It replaced 3.0x the seed
#: baseline, 2.10 MIPS, which is 2.145x the step path's 0.979 MIPS in
#: BENCH_interp.json; this bar is no weaker at those speeds.
FULL_BAR_VS_STEP = 2.15

#: Pre-tentpole numbers, measured on this host with the seed per-
#: instruction interpreter (commit 15b5d10, dict registers, if/elif
#: dispatch) — the fixed denominator for the speedup claims below.
BASELINE = {
    "interpreter": "per-instruction step() (seed)",
    "hot_loop_mips": 0.70,
    "minidb_mips": 0.28,
}

_OUT = Path(__file__).resolve().parent.parent / "BENCH_interp.json"


def _hot_loop_image(iters: int) -> SharedObject:
    items = [
        label("hot"),
        ins("mov", Reg("ecx"), Imm(iters)),
        ins("mov", Reg("eax"), Imm(0)),
        ins("push", Imm(7)),
        label("loop"),
        ins("add", Reg("eax"), Imm(3)),
        ins("xor", Reg("eax"), Reg("edx")),
        ins("mov", Reg("edx"), Reg("eax")),
        ins("mov", Mem(base="esp"), Reg("eax")),
        ins("mov", Reg("ebx"), Mem(base="esp")),
        ins("sub", Reg("ecx"), Imm(1)),
        ins("jnz", Label("loop")),
        ins("pop", Reg("ebx")),
        ins("ret"),
    ]
    from repro.isa import X86SIM
    text = assemble(items, X86SIM)
    labels = collect_labels(items)
    return SharedObject(
        soname="libhot.so", machine="x86sim", text=text,
        exports=(Symbol("hot", labels["hot"], len(text)),))


def _hot_loop_mips(proc) -> float:
    """Guest MIPS of one full hot-loop run on ``proc``."""
    before = proc.cpu.instructions_executed
    started = time.perf_counter()
    proc.libcall("hot")
    elapsed = time.perf_counter() - started
    return (proc.cpu.instructions_executed - before) / elapsed / 1e6


def _measure_hot_loop(has_blocks: bool):
    """Guest MIPS on the synthetic loop, step and block path in
    alternating rounds: the median of each path's rounds, and the
    median of the per-round block/step ratios."""
    image = _hot_loop_image(_LOOP_ITERS)
    procs = {}
    for use_blocks in (False, True):
        proc = Process(Kernel(), LINUX_X86)
        proc.load(image)
        if has_blocks:
            proc.cpu.use_blocks = use_blocks
        try:                                    # warm caches / compile
            proc.libcall("hot", max_steps=200)
        except RuntimeFault:
            pass                                # budget hit mid-loop: fine
        procs[use_blocks] = proc
    step, block = [], []
    for _ in range(_LOOP_ROUNDS):
        step.append(_hot_loop_mips(procs[False]))
        block.append(_hot_loop_mips(procs[True]))
    return {"step_mips": statistics.median(step),
            "block_mips": statistics.median(block),
            "speedup_vs_step": round(statistics.median(
                [b / s for b, s in zip(block, step)]), 2)}


def _minidb_round(use_blocks: bool):
    """(instructions, seconds) of one minidb insert/select/checkpoint
    run."""
    from repro.apps.minidb import MiniDB

    old = getattr(Cpu, "use_blocks", None)
    if old is not None:
        Cpu.use_blocks = use_blocks
    try:
        db = MiniDB(Kernel(os_name=LINUX_X86.os), LINUX_X86)
        started = time.perf_counter()
        db.execute("create table t k v")
        for i in range(20):
            db.execute(f"insert into t {i} value{i}")
        for i in range(20):
            db.execute(f"select from t where k {i}")
        db.checkpoint()
        return (db.proc.cpu.instructions_executed,
                time.perf_counter() - started)
    finally:
        if old is not None:
            Cpu.use_blocks = old


def _measure_minidb(has_blocks: bool):
    """Guest MIPS across the minidb workload, step and block path in
    alternating rounds."""
    totals = {False: [0, 0.0], True: [0, 0.0]}
    for _ in range(_MINIDB_ROUNDS):
        for use_blocks in (False, True):
            executed, elapsed = _minidb_round(use_blocks and has_blocks)
            totals[use_blocks][0] += executed
            totals[use_blocks][1] += elapsed
    step_mips, block_mips = (executed / elapsed / 1e6
                             for executed, elapsed
                             in (totals[False], totals[True]))
    return {"step_mips": step_mips, "block_mips": block_mips,
            "speedup_vs_step": round(block_mips / step_mips, 2)}


def _arms():
    has_blocks = hasattr(Cpu, "use_blocks")
    results = {"hot_loop": _measure_hot_loop(has_blocks),
               "minidb": _measure_minidb(has_blocks)}
    for name, arm in results.items():
        base = BASELINE[f"{name}_mips"]
        arm["speedup_vs_baseline"] = round(arm["block_mips"] / base, 2)
    return results


def _report(results, write_json: bool = True):
    rows = []
    for name, arm in results.items():
        rows.append(
            f"{name:<10} {BASELINE[name + '_mips']:7.3f} MIPS   "
            f"{arm['step_mips']:7.3f} MIPS   {arm['block_mips']:7.3f} MIPS"
            f"   {arm['speedup_vs_baseline']:5.2f}x")
    print_table(
        "interpreter throughput — guest MIPS "
        f"({'fast' if FAST else 'full'} mode)",
        "workload    baseline       step path      block path     speedup",
        rows)
    if write_json:
        _OUT.write_text(json.dumps({
            "schema": "repro.bench/1",
            "benchmark": "interp_throughput",
            "mode": "fast" if FAST else "full",
            "baseline": BASELINE,
            "results": results,
        }, indent=2, sort_keys=True) + "\n")
        print(f"wrote {_OUT}")


def _assert_speedup(results) -> None:
    if not hasattr(Cpu, "use_blocks"):
        return          # pre-tentpole: baseline recording only
    # both bars hold the block path against the step path run beside
    # it, which host load slows alike; a fixed MIPS figure does not
    bar = FAST_BAR_VS_STEP if FAST else FULL_BAR_VS_STEP
    speedup = results["hot_loop"]["speedup_vs_step"]
    assert speedup >= bar, \
        (f"hot-loop block path {speedup:.2f}x the step path, below "
         f"{bar:.2f}x")
    assert results["minidb"]["block_mips"] \
        >= results["minidb"]["step_mips"] * 0.9, \
        "block compiler slower than per-instruction path on minidb"


def test_interp_throughput(benchmark):
    results = benchmark.pedantic(_arms, rounds=1, iterations=1)
    _report(results, write_json=not FAST)
    _assert_speedup(results)


if __name__ == "__main__":
    results = _arms()
    _report(results, write_json=not FAST)
    _assert_speedup(results)
