"""Interpreter throughput: guest MIPS on a hot loop and on minidb.

Every campaign case burns most of its wall clock in the CPU interpreter
(`Cpu.run`), so guest instruction throughput is the denominator of every
other number in EXPERIMENTS.md.  This benchmark measures it directly:

* **hot loop** — a synthetic arithmetic/branch kernel (the interpreter's
  best case: everything stays in registers and one basic block);
* **minidb** — the campaign workload used by §6-style experiments
  (realistic mix: calls, PLT hops, syscalls, memory traffic).

Both are measured on the block-compiled fast path and on the exact
per-instruction path (the one a tracer gets), and the results land in
``BENCH_interp.json`` next to the recorded pre-tentpole baseline so the
speedup is tracked against a fixed denominator.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_interp_throughput.py``)
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
_MINIDB_ROUNDS = 1 if FAST else 3

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


def _measure_hot_loop(use_blocks: bool) -> float:
    """Guest MIPS on the synthetic loop."""
    image = _hot_loop_image(_LOOP_ITERS)
    proc = Process(Kernel(), LINUX_X86)
    proc.load(image)
    if hasattr(proc.cpu, "use_blocks"):
        proc.cpu.use_blocks = use_blocks
    try:                                        # warm caches / compile
        proc.libcall("hot", max_steps=200)
    except RuntimeFault:
        pass                                    # budget hit mid-loop: fine
    before = proc.cpu.instructions_executed
    started = time.perf_counter()
    proc.libcall("hot")
    elapsed = time.perf_counter() - started
    executed = proc.cpu.instructions_executed - before
    return executed / elapsed / 1e6


def _measure_minidb(use_blocks: bool) -> float:
    """Guest MIPS across a minidb insert/select/checkpoint workload."""
    from repro.apps.minidb import MiniDB

    old = getattr(Cpu, "use_blocks", None)
    if old is not None:
        Cpu.use_blocks = use_blocks
    try:
        executed = 0
        elapsed = 0.0
        for round_no in range(_MINIDB_ROUNDS):
            db = MiniDB(Kernel(os_name=LINUX_X86.os), LINUX_X86)
            started = time.perf_counter()
            db.execute("create table t k v")
            for i in range(20):
                db.execute(f"insert into t {i} value{i}")
            for i in range(20):
                db.execute(f"select from t where k {i}")
            db.checkpoint()
            elapsed += time.perf_counter() - started
            executed += db.proc.cpu.instructions_executed
        return executed / elapsed / 1e6
    finally:
        if old is not None:
            Cpu.use_blocks = old


def _arms():
    has_blocks = hasattr(Cpu, "use_blocks")
    results = {
        "hot_loop": {"step_mips": _measure_hot_loop(False),
                     "block_mips": _measure_hot_loop(has_blocks)},
        "minidb": {"step_mips": _measure_minidb(False),
                   "block_mips": _measure_minidb(has_blocks)},
    }
    for name, arm in results.items():
        base = BASELINE[f"{name}_mips"]
        arm["speedup_vs_baseline"] = round(arm["block_mips"] / base, 2)
        arm["speedup_vs_step"] = round(
            arm["block_mips"] / arm["step_mips"], 2)
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
    # CI runners are noisy; the full-mode bar is the paper claim (3x),
    # the fast-mode bar a regression tripwire
    bar = 2.0 if FAST else 3.0
    speedup = results["hot_loop"]["speedup_vs_baseline"]
    assert speedup >= bar, \
        f"hot-loop speedup {speedup:.2f}x fell below {bar:.1f}x baseline"
    assert results["minidb"]["block_mips"] \
        >= results["minidb"]["step_mips"] * 0.9, \
        "block compiler slower than per-instruction path on minidb"


def test_interp_throughput(benchmark):
    results = benchmark.pedantic(_arms, rounds=1, iterations=1)
    _report(results, write_json=not FAST)
    _assert_speedup(results)


if __name__ == "__main__":
    results = _arms()
    _report(results)
    _assert_speedup(results)
