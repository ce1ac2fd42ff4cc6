"""The block-compiled fast path: exact equivalence with the step path.

The compiler (runtime/blocks.py) is an optimization with a hard
contract: registers, memory, flags, ``instructions_executed``, faults,
shadow stacks and emitted telemetry must be indistinguishable from the
per-instruction interpreter on every workload.  These tests pin that
contract — from single handwritten blocks through §5.1 stub mechanics
up to full differential campaigns across both pool backends.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import pytest

from repro.binfmt import SharedObject, Symbol
from repro.core.campaign import enumerate_cases, run_campaign
from repro.core.controller.triggers import NEVER_ORDINAL
from repro.errors import (ControllerError, LoaderError, MemoryFault,
                          RuntimeFault)
from repro.isa import (X86SIM, Imm, ImportSlot, Label, Mem, Reg, assemble,
                       ins, label)
from repro.isa.assembler import collect_labels
from repro.kernel import Kernel
from repro.layout import RETURN_SENTINEL, STACK_SIZE, STACK_TOP
from repro.obs import EventLog, MemorySink, Telemetry
from repro.obs.tracing import NULL_TRACER
from repro.platform import LINUX_X86
from repro.runtime import CODE_CACHE, Process, Tracer
from repro.runtime.cpu import Cpu, ShadowFrame


@pytest.fixture(autouse=True)
def _restore_block_mode():
    """Every test starts (and leaves) with the default fast path on."""
    saved = Cpu.use_blocks
    yield
    Cpu.use_blocks = saved


def _image(items, soname="libblk.so", imports=()):
    text = assemble(items, X86SIM)
    labels = collect_labels(items)
    return SharedObject(
        soname=soname, machine="x86sim", text=text, imports=tuple(imports),
        exports=tuple(Symbol(name, off, 4) for name, off in labels.items()))


def _loop_items(iters=50):
    """Arithmetic + memory + fused compare-and-branch loop."""
    return [
        label("f"),
        ins("mov", Reg("ecx"), Imm(iters)),
        ins("mov", Reg("eax"), Imm(0)),
        ins("push", Imm(0)),
        label("loop"),
        ins("add", Reg("eax"), Imm(7)),
        ins("imul", Reg("eax"), Imm(3)),
        ins("mov", Mem(base="esp"), Reg("eax")),
        ins("mov", Reg("edx"), Mem(base="esp")),
        ins("shr", Reg("eax"), Imm(1)),
        ins("xor", Reg("eax"), Reg("edx")),
        ins("sub", Reg("ecx"), Imm(1)),
        ins("cmp", Reg("ecx"), Imm(0)),
        ins("jnz", Label("loop")),
        ins("pop", Reg("ebx")),
        ins("ret"),
    ]


def _run(items, entry="f", *, use_blocks, max_steps=1_000_000):
    proc = Process(Kernel(), LINUX_X86)
    proc.load(_image(items))
    proc.cpu.use_blocks = use_blocks
    rc = proc.libcall(entry, max_steps=max_steps)
    return proc, rc


def _state(proc):
    return (proc.cpu.regs.as_dict(), proc.cpu.zf, proc.cpu.sf,
            proc.cpu.instructions_executed, proc.memory.content_digest())


class TestRegisterFile:
    def test_dict_view_over_list_storage(self):
        proc = Process(Kernel(), LINUX_X86)
        regs = proc.cpu.regs
        values = regs.values
        regs["eax"] = 0x12345678
        assert values[regs.index("eax")] == 0x12345678
        assert regs["eax"] == 0x12345678
        assert "eax" in regs and "nope" not in regs
        assert len(regs) == len(proc.abi.registers)
        assert dict(regs)["eax"] == 0x12345678
        assert regs.as_dict()["esp"] == regs["esp"]
        assert regs.values is values        # identity-stable for closures

    def test_abi_order_matches_register_tuple(self):
        proc = Process(Kernel(), LINUX_X86)
        for i, name in enumerate(proc.abi.registers):
            assert proc.cpu.regs.index(name) == i


class TestPathEquivalence:
    def test_loop_program_identical_state(self):
        fast_proc, fast_rc = _run(_loop_items(), use_blocks=True)
        slow_proc, slow_rc = _run(_loop_items(), use_blocks=False)
        assert fast_rc == slow_rc
        assert _state(fast_proc) == _state(slow_proc)

    def test_memory_fault_mid_block_identical(self):
        items = [
            label("f"),
            ins("mov", Reg("eax"), Imm(1)),
            ins("mov", Reg("ebx"), Imm(2)),
            ins("mov", Reg("ecx"), Mem(disp=0x500)),    # unmapped
            ins("mov", Reg("edx"), Imm(3)),             # never reached
            ins("ret"),
        ]
        states = {}
        for use_blocks in (True, False):
            proc = Process(Kernel(), LINUX_X86)
            proc.load(_image(items))
            proc.cpu.use_blocks = use_blocks
            with pytest.raises(MemoryFault):
                proc.libcall("f")
            states[use_blocks] = (proc.cpu.eip, _state(proc))
        assert states[True] == states[False]

    def test_run_off_text_end_identical(self):
        items = [label("f"), ins("mov", Reg("eax"), Imm(9)),
                 ins("nop")]                            # no ret: falls off
        states = {}
        for use_blocks in (True, False):
            proc = Process(Kernel(), LINUX_X86)
            proc.load(_image(items))
            proc.cpu.use_blocks = use_blocks
            with pytest.raises(MemoryFault) as err:
                proc.libcall("f")
            assert "unmapped code" in str(err.value)
            states[use_blocks] = (proc.cpu.eip, _state(proc))
        assert states[True] == states[False]

    def test_budget_exhaustion_identical(self):
        """A budget expiring mid-block must land on the exact same
        instruction the step path reports (single-step fallback)."""
        for budget in (5, 17, 23):
            states = {}
            for use_blocks in (True, False):
                proc = Process(Kernel(), LINUX_X86)
                proc.load(_image(_loop_items(1000)))
                proc.cpu.use_blocks = use_blocks
                with pytest.raises(RuntimeFault) as err:
                    proc.libcall("f", max_steps=budget)
                assert "budget exhausted" in str(err.value)
                states[use_blocks] = (proc.cpu.eip, _state(proc))
            assert states[True] == states[False], f"budget={budget}"

    def test_tracer_selects_exact_path(self):
        """An attached tracer must yield one entry per instruction even
        with the block path enabled globally."""
        proc = Process(Kernel(), LINUX_X86)
        proc.load(_image(_loop_items(10)))
        assert proc.cpu.use_blocks           # tracer overrides, not us
        tracer = Tracer(proc)
        before = proc.cpu.instructions_executed
        with tracer:
            proc.libcall("f")
        executed = proc.cpu.instructions_executed - before
        assert len(tracer.entries) == executed

    def test_fused_branch_materializes_flags(self):
        """A later block that only *reads* flags must observe exactly
        what the fused compare-and-branch wrote."""
        items = [
            label("f"),
            ins("cmp", Reg("ebx"), Imm(5)),
            ins("jle", Label("low")),               # fused pair
            ins("mov", Reg("eax"), Imm(100)),
            ins("ret"),
            label("low"),
            ins("js", Label("neg")),                # reads fused SF only
            ins("mov", Reg("eax"), Imm(200)),       # ebx == 5 (SF clear)
            ins("ret"),
            label("neg"),
            ins("mov", Reg("eax"), Imm(300)),       # ebx < 5 (SF set)
            ins("ret"),
        ]
        for ebx, expect in ((9, 100), (5, 200), (3, 300)):
            results = {}
            for use_blocks in (True, False):
                proc = Process(Kernel(), LINUX_X86)
                proc.load(_image(items))
                proc.cpu.use_blocks = use_blocks
                proc.cpu.regs["ebx"] = ebx
                results[use_blocks] = (proc.libcall("f"),
                                       proc.cpu.zf, proc.cpu.sf)
            assert results[True] == results[False]
            assert results[True][0] == expect


class TestForceTransferAndSentinel:
    """§5.1 stub mechanics: raw hosts redirecting control mid-run."""

    def _proc_with_host(self, host_fn):
        items = [
            label("f"),
            ins("call", Reg("eax")),        # eax carries the host addr
            ins("inc", Reg("ebx")),         # only on a normal return
            ins("ret"),
        ]
        proc = Process(Kernel(), LINUX_X86)
        addr = proc.register_host("h", host_fn, raw=True)
        proc.load(_image(items))
        proc.cpu.regs["eax"] = addr
        return proc

    def test_force_transfer_to_caller_skips_original(self):
        """The injection return path: pop the frame, return straight to
        the application caller with the injected value."""
        def inject(proc, cpu):
            sp = cpu.regs[cpu.abi.stack_pointer]
            caller_ret = proc.memory.read_u32(sp)
            if cpu.shadow:
                cpu.shadow.pop()
            cpu.regs[cpu.abi.return_register] = 0xDEAD & 0xFFFF
            cpu.force_transfer(caller_ret, sp + 4)

        for use_blocks in (True, False):
            proc = self._proc_with_host(inject)
            proc.cpu.use_blocks = use_blocks
            proc.cpu.regs["ebx"] = 0
            assert proc.libcall("f") == 0xDEAD & 0xFFFF
            assert proc.cpu.regs["ebx"] == 1    # resumed after the call
            assert not proc.cpu.shadow          # depth fully restored

    def test_force_transfer_to_return_sentinel_completes_run(self):
        """Redirecting to the sentinel ends the run like a final ret."""
        def bail(proc, cpu):
            sp = cpu.regs[cpu.abi.stack_pointer]
            cpu.regs[cpu.abi.return_register] = 41
            del cpu.shadow[:]
            # [sp] ret-into-f, [sp+4] the libcall sentinel
            dest = proc.memory.read_u32(sp + 4)
            assert dest == RETURN_SENTINEL
            cpu.force_transfer(dest, sp + 8)

        for use_blocks in (True, False):
            proc = self._proc_with_host(bail)
            proc.cpu.use_blocks = use_blocks
            proc.cpu.regs["ebx"] = 7
            assert proc.libcall("f") == 41
            assert proc.cpu.regs["ebx"] == 7    # inc ebx never ran
            assert not proc.cpu.shadow

    def test_shadow_depth_under_tail_jump_stub(self, libc_linux,
                                               libc_profiles_linux):
        """A real shim stub, live, dormant, passthrough, injecting or
        with no original behind it (§5.1), on a recycled process with
        its copy-on-write journal active, and with its two stack words
        on either side of a page boundary: the block path, whose fused
        stub closure skips the host on a dormant call, must match the
        step path in every observable, and in coverage the block path
        that always enters the host."""
        for case in _STUB_CASES:
            step = _stub_crossing(libc_linux, libc_profiles_linux, case,
                                  "step")
            block = _stub_crossing(libc_linux, libc_profiles_linux, case,
                                   "block")
            hosted = _stub_crossing(libc_linux, libc_profiles_linux, case,
                                    "block-no-bypass")
            assert block.pop("coverage") == hosted.pop("coverage"), case
            assert step.pop("coverage") == {}, case
            assert block == step, case
            assert hosted == step, case
            assert step["depth_after"] == 0, case
        # the dormant crossing really ran the original, with the
        # caller's shadow frame pointing at it
        dormant = _stub_crossing(libc_linux, libc_profiles_linux,
                                 "dormant", "block")
        assert dormant["result"] == ("returned", -1)     # no fd 3 is open
        [(ret, callee)] = dormant["shadow_in_syscall"][0]
        assert ret == RETURN_SENTINEL and callee == dormant["original"]
        passthrough = _stub_crossing(libc_linux, libc_profiles_linux,
                                     "passthrough", "block")
        assert passthrough["evaluations"] == 0
        assert passthrough["call_counts"] == {"close": 2}


class _Crossing(NamedTuple):
    """One stub crossing of ``_stub_crossing``."""

    function: str
    nth: Optional[int]          # None: 77 passthrough triggers
    before: int                 # calls before the measured one
    #: where the stub's two stack words lie: next to the caller's
    #: words (None), alone on a page proven mapped by a read
    #: ("own-page"), or on either side of a page boundary
    stack: Optional[str] = None
    #: taken over from a pool of parked processes, so the crossing runs
    #: with the copy-on-write journal active; ``memory_restored``, the
    #: memory after ``snapshot_restore``, must be the parked memory
    recycled: bool = False


_STUB_CASES = {
    "live": _Crossing("close", 99, 0),
    "live-cached": _Crossing("close", 99, 1),
    "dormant": _Crossing("close", 1, 1),
    "passthrough": _Crossing("close", None, 1),
    "injecting": _Crossing("close", 1, 0),
    "unresolvable": _Crossing("no_such_function", NEVER_ORDINAL, 0),
    "recycled": _Crossing("close", 1, 1, "own-page", recycled=True),
    "straddling": _Crossing("close", 1, 1, "straddling"),
}

#: a page boundary inside the stack, below everything the other cases use
_PAGE = STACK_TOP - 4 * 4096


def _stub_crossing(libc, profiles, case, arm):
    """Everything one stub crossing leaves behind, on one path."""
    from repro.core.controller import Controller
    from repro.core.scenario.model import (ErrorCode, FunctionTrigger,
                                           INJECT_NTH, INJECT_RANDOM, Plan)
    from repro.runtime import SnapshotCache
    crossing = _STUB_CASES[case]
    function = crossing.function
    plan = Plan(name="stub", seed=1)
    if crossing.nth is None:
        for _ in range(77):
            plan.add(FunctionTrigger(function=function, mode=INJECT_RANDOM,
                                     probability=1e-9,
                                     actions=(ErrorCode(-1, "EBADF"),),
                                     calloriginal=True))
    else:
        plan.add(FunctionTrigger(function=function, mode=INJECT_NTH,
                                 nth=crossing.nth,
                                 actions=(ErrorCode(-1, "EIO"),)))
    Cpu.use_blocks = arm != "step"
    if crossing.recycled:
        pool = SnapshotCache()
        first = Controller(LINUX_X86, profiles, plan)
        first._parked = pool
        parked = first.make_process(Kernel(), [libc.image])
        parked_memory = parked.memory.content_digest()
        first._return_parked()
    lfi = Controller(LINUX_X86, profiles, plan, coverage=True)
    if crossing.recycled:
        lfi._parked = pool
    proc = lfi.make_process(Kernel(), [libc.image])
    assert proc.memory.snapshot_active == crossing.recycled
    if arm == "block-no-bypass":
        proc.rebind_host(proc.lookup(lfi.eval_symbol), lfi.eval_symbol,
                         lfi.injector.eval_host)
    for _ in range(crossing.before):
        proc.libcall(function, 3)
    if crossing.stack is not None:
        # the stub's words at _PAGE - 8 and - 4, or at _PAGE - 4 and
        # _PAGE; a read proves both pages mapped without journaling
        entry_sp = _PAGE if crossing.stack == "own-page" else _PAGE + 4
        for addr in (_PAGE - 8, _PAGE):
            proc.memory.read_u32(addr)
        proc.cpu.regs["esp"] = entry_sp + 8
    seen = []
    dispatch = proc.kernel.dispatch

    def spy(p, nr, args):
        seen.append([(f.return_addr, f.callee_addr) for f in p.cpu.shadow])
        return dispatch(p, nr, args)
    proc.kernel.dispatch = spy
    sp = proc.cpu.regs["esp"]
    depth = len(proc.cpu.shadow)
    try:
        result = ("returned", proc.libcall(function, 3))
    except ControllerError as exc:
        result = ("raised", str(exc))
    entry_sp = sp - 8             # one argument, then the return sentinel
    try:
        original = proc.resolve_next(function,
                                     lfi.injector.shim_module_index)
    except LoaderError:
        original = None
    crossed = {
        "result": result,
        "regs": proc.cpu.regs.as_dict(),
        "eip": proc.cpu.eip,
        "stack_words": (proc.memory.read_u32(entry_sp - 4),
                        proc.memory.read_u32(entry_sp - 8)),
        "memory": proc.memory.content_digest(),
        "shadow_in_syscall": seen,
        "depth_after": len(proc.cpu.shadow) - depth,
        "instructions": proc.cpu.instructions_executed,
        "call_counts": dict(lfi.engine.call_counts),
        "evaluations": lfi.evaluations,
        "injections": lfi.injections,
        "coverage": lfi.coverage_map(),
        "original": original,
    }
    if crossing.recycled:
        proc.memory.snapshot_restore()
        crossed["memory_restored"] = proc.memory.content_digest()
        assert crossed["memory_restored"] == parked_memory, case
    return crossed


class TestStubCall:
    """The fused ``push imm32; call [import]`` closure against the step
    path, on a handwritten stub whose host has a bypass: where the
    call completes, and how every fault is attributed."""

    ITEMS = [
        label("f"),
        ins("push", Imm(7)),
        ins("call", ImportSlot(0)),
        ins("ret"),
        label("g"),
        ins("mov", Reg("eax"), Imm(42)),
        ins("ret"),
    ]
    STACK_BASE = STACK_TOP - STACK_SIZE

    def _run(self, scenario, use_blocks):
        proc = Process(Kernel(), LINUX_X86)
        calls = []

        def host(proc, cpu):
            # a host agrees with its bypass: this one asks it, then
            # passes through to g either way
            sp = cpu.regs["esp"]
            bypass(proc, proc.memory.read_u32(sp + 4))
            calls.append("host")
            cpu.shadow.pop()
            if cpu.shadow:
                cpu.shadow[-1].callee_addr = proc.lookup("g")
            cpu.force_transfer(proc.lookup("g"), sp + 8)

        def bypass(proc, imm):
            calls.append(("bypass", imm))
            if scenario == "bypass-raises":
                raise ControllerError("no original")
            return proc.lookup("g") if scenario == "bypassed" else None

        if scenario != "unresolved":
            proc.register_host("h", host, raw=True, bypass=bypass)
        proc.load(_image(self.ITEMS, imports=("h",)))
        cpu = proc.cpu
        cpu.use_blocks = use_blocks
        sp = {"push-faults": self.STACK_BASE,
              "call-push-faults": self.STACK_BASE + 4}.get(
                  scenario, cpu.regs["esp"])
        if scenario in ("push-faults", "call-push-faults"):
            sp_after = sp          # nothing below the stack to push to
        else:
            sp_after = sp - 4
            proc.memory.write_u32(sp_after, RETURN_SENTINEL)
        cpu.regs["esp"] = sp_after
        cpu.shadow.append(ShadowFrame(RETURN_SENTINEL, proc.lookup("f")))
        try:
            cpu.run(proc.lookup("f"))
            raised = None
        except (MemoryFault, ControllerError, LoaderError) as exc:
            raised = (type(exc).__name__, str(exc))
        return {
            "raised": raised,
            "calls": calls,
            "regs": cpu.regs.as_dict(),
            "eip": cpu.eip,
            "instructions": cpu.instructions_executed,
            "shadow": [(f.return_addr, f.callee_addr) for f in cpu.shadow],
            "memory": proc.memory.content_digest(),
        }

    @pytest.mark.parametrize("scenario", [
        "bypassed", "host", "bypass-raises", "unresolved", "push-faults",
        "call-push-faults"])
    def test_block_path_equals_step_path(self, scenario):
        block = self._run(scenario, True)
        step = self._run(scenario, False)
        # the step path enters the host whenever the call resolves, and
        # the host asks the bypass itself; the fused closure asks first
        # and enters the host only when the bypass declines
        calls = (block.pop("calls"), step.pop("calls"))
        assert calls == {
            "bypassed": ([("bypass", 7)], [("bypass", 7), "host"]),
            "host": ([("bypass", 7)] * 2 + ["host"],
                     [("bypass", 7), "host"]),
            "bypass-raises": ([("bypass", 7)], [("bypass", 7)]),
        }.get(scenario, ([], []))
        assert block == step

    def test_fault_attribution(self):
        push = self._run("push-faults", True)
        assert push["instructions"] == 1
        call = self._run("call-push-faults", True)
        assert call["instructions"] == 2
        assert push["eip"] != call["eip"]          # the push vs the ret
        for scenario in ("bypass-raises", "unresolved"):
            assert self._run(scenario, True)["instructions"] == 2
        bypassed = self._run("bypassed", True)
        assert bypassed["raised"] is None and bypassed["calls"] == [
            ("bypass", 7)]
        assert bypassed["regs"]["eax"] == 42
        # push, call, then g's mov and ret
        assert bypassed["instructions"] == 4
        assert bypassed["shadow"] == []


def _copy_factory(libc_image):
    O_CREAT, O_RDWR = 0o100, 0o2

    def factory(lfi):
        def session():
            proc = lfi.make_process(Kernel(), [libc_image])
            fd = proc.libcall("open", proc.cstr("/f"), O_CREAT | O_RDWR,
                              0o644)
            buf = proc.scratch_alloc(4)
            proc.mem_write(buf, b"data")
            proc.libcall("write", fd, buf, 4)
            rc = proc.libcall("close", fd)
            return 1 if rc != 0 else 0
        return session
    return factory


def _instrumented_campaign(libc_linux, profiles, *, jobs=1,
                           backend=None):
    sink = MemorySink()
    telemetry = Telemetry(events=EventLog(sinks=[sink]), tracer=NULL_TRACER)
    cases = enumerate_cases(profiles, functions=["close", "write"],
                            max_codes_per_function=2)
    report = run_campaign("difftool", _copy_factory(libc_linux.image),
                          LINUX_X86, profiles, cases, jobs=jobs,
                          backend=backend, telemetry=telemetry)
    return report, sink


def _signature(sink):
    """The deterministic portion of the event stream (drops wall-clock
    and worker identity, keeps injection/case semantics + counts)."""
    out = []
    for event in sink.events:
        f = event.fields
        out.append((event.kind, f.get("function"), f.get("errno"),
                    f.get("call"), f.get("case"), f.get("status"),
                    f.get("test"), f.get("fired"), f.get("instructions")))
    return out


def _result_fingerprint(report):
    return [(r.case.case_id(), r.outcome.status, r.fired, r.instructions)
            for r in report.results]


class TestDifferentialCampaign:
    """The tentpole guarantee, end to end: fast path ≡ step path,
    including per-case instruction counts and the event stream."""

    def test_block_path_equals_step_path(self, libc_linux,
                                         libc_profiles_linux):
        Cpu.use_blocks = True
        fast_report, fast_sink = _instrumented_campaign(
            libc_linux, libc_profiles_linux)
        Cpu.use_blocks = False
        slow_report, slow_sink = _instrumented_campaign(
            libc_linux, libc_profiles_linux)
        assert _result_fingerprint(fast_report) \
            == _result_fingerprint(slow_report)
        assert _signature(fast_sink) == _signature(slow_sink)
        assert all(r.instructions > 0 for r in fast_report.results)

    @pytest.mark.parametrize("jobs,backend", [(2, "process")])
    def test_backends_identical_with_blocks_on(self, libc_linux,
                                               libc_profiles_linux,
                                               jobs, backend):
        serial_report, serial_sink = _instrumented_campaign(
            libc_linux, libc_profiles_linux)
        report, sink = _instrumented_campaign(
            libc_linux, libc_profiles_linux, jobs=jobs, backend=backend)
        assert _result_fingerprint(report) \
            == _result_fingerprint(serial_report)
        assert _signature(sink) == _signature(serial_sink)

    def test_minidb_workload_differential(self):
        """The §6-style workload: identical final memory image,
        registers and instruction count on all three interpreter modes
        (blocks, step, step-via-tracer)."""
        from repro.apps.minidb import MiniDB

        def run_workload(use_blocks, trace=False):
            Cpu.use_blocks = use_blocks
            db = MiniDB(Kernel(), LINUX_X86)
            tracer = Tracer(db.proc, limit=50_000_000) if trace else None
            before = db.proc.cpu.instructions_executed
            if tracer is not None:
                tracer.attach()
            db.execute("create table t k v")
            for i in range(8):
                db.execute(f"insert into t {i} value{i}")
            rows = db.execute("select from t")
            db.checkpoint()
            delta = db.proc.cpu.instructions_executed - before
            if tracer is not None:
                tracer.detach()
                assert not tracer.truncated
            traced = len(tracer.entries) if tracer is not None else None
            return (rows, db.proc.cpu.regs.as_dict(),
                    db.proc.memory.content_digest(),
                    db.proc.cpu.instructions_executed, delta, traced)

        fast = run_workload(True)
        slow = run_workload(False)
        traced = run_workload(True, trace=True)
        assert fast[:5] == slow[:5]
        assert traced[:5] == fast[:5]
        assert traced[5] == traced[4]       # one trace entry per insn

    def test_campaign_metrics_carry_execution_counters(
            self, libc_linux, libc_profiles_linux):
        sink = MemorySink()
        telemetry = Telemetry(events=EventLog(sinks=[sink]),
                              tracer=NULL_TRACER)
        cases = enumerate_cases(libc_profiles_linux, functions=["close"],
                                max_codes_per_function=2)
        report = run_campaign("metered", _copy_factory(libc_linux.image),
                              LINUX_X86, libc_profiles_linux, cases,
                              telemetry=telemetry)
        total = telemetry.metrics.counter("repro_instructions_total")
        assert total.total() == sum(r.instructions for r in report.results)
        mips = telemetry.metrics.gauge("repro_case_mips",
                                       labelnames=("case",))
        assert mips.value(case=report.results[0].case.case_id()) > 0
        case_events = [e for e in sink.events if e.kind == "case"]
        assert [e.fields["instructions"] for e in case_events] \
            == [r.instructions for r in report.results]


class TestSharedCodeCache:
    def test_second_process_reuses_decode_and_templates(self):
        CODE_CACHE.clear()
        items = _loop_items(5)
        image = _image(items)

        proc1 = Process(Kernel(), LINUX_X86)
        proc1.load(image)
        proc1.libcall("f")
        s1 = CODE_CACHE.stats()
        assert s1["decode_misses"] == 1
        assert s1["blocks_compiled"] > 0

        proc2 = Process(Kernel(), LINUX_X86)
        proc2.load(image)
        proc2.libcall("f")
        s2 = CODE_CACHE.stats()
        assert s2["decode_misses"] == s1["decode_misses"]   # no re-decode
        assert s2["module_hits"] == s1["module_hits"] + 1
        assert s2["blocks_compiled"] == s1["blocks_compiled"]  # reused
        assert s2["template_hits"] > s1["template_hits"]

    def test_changed_image_misses_by_digest(self):
        CODE_CACHE.clear()
        proc1 = Process(Kernel(), LINUX_X86)
        proc1.load(_image(_loop_items(5)))
        proc2 = Process(Kernel(), LINUX_X86)
        proc2.load(_image(_loop_items(6)))      # different bytes
        stats = CODE_CACHE.stats()
        assert stats["decode_misses"] == 2
        assert stats["module_misses"] == 2

    def test_shims_with_the_same_text_share_module_code(
            self, libc_linux, libc_profiles_linux):
        """Every controller names its shim uniquely, but shims for the
        same number of functions have the same text: they decode and
        translate once, not once per controller."""
        from repro.core.controller import Controller

        CODE_CACHE.clear()
        shims = []
        for function in ("open", "close"):
            case = enumerate_cases(libc_profiles_linux,
                                   functions=[function])[0]
            lfi = Controller(LINUX_X86, libc_profiles_linux, case.plan())
            proc = lfi.make_process(Kernel(), [libc_linux.image])
            base = proc.modules[lfi.injector.shim_module_index].base
            shims.append((lfi.shim, proc._module_code[base]))
        (first, first_code), (second, second_code) = shims
        assert first.soname != second.soname
        assert first.imports != second.imports
        assert first_code is second_code
        stats = CODE_CACHE.stats()
        assert stats["decode_misses"] == 2      # one shim text, one libc
        assert stats["module_misses"] == 2
        assert stats["module_hits"] == 2

    def test_clear_resets_everything(self):
        proc = Process(Kernel(), LINUX_X86)
        proc.load(_image(_loop_items(5)))
        CODE_CACHE.clear()
        assert all(v == 0 for v in CODE_CACHE.stats().values())

    def test_lru_evicts_oldest_decoded_stream(self):
        from repro.runtime.codecache import SharedCodeCache

        cache = SharedCodeCache(capacity=2)
        images = [_image(_loop_items(n), soname=f"lib{n}.so")
                  for n in (5, 6, 7)]
        for image in images:
            cache.decoded(image)
        assert cache.stats()["decode_misses"] == 3
        # newest two still resident...
        cache.decoded(images[2])
        cache.decoded(images[1])
        assert cache.stats()["decode_hits"] == 2
        # ...but the oldest was evicted and must re-decode
        cache.decoded(images[0])
        assert cache.stats()["decode_misses"] == 4

    def test_lru_evicts_oldest_module_code(self):
        from repro.runtime.codecache import SharedCodeCache

        cache = SharedCodeCache(capacity=2)
        image = _image(_loop_items(5))
        bases = [0x1000, 0x2000, 0x3000]
        first = cache.module_code(image, bases[0], 0)
        for base in bases[1:]:
            cache.module_code(image, base, 0)
        assert cache.stats()["module_misses"] == 3
        # base 0x1000 aged out; a re-request builds a fresh ModuleCode
        again = cache.module_code(image, bases[0], 0)
        assert again is not first
        assert cache.stats()["module_misses"] == 4

    def test_concurrent_processes_share_templates(self):
        """A library caller may run guest processes on threads: one
        process per thread, all hammering the shared cache.  Every
        thread must get the right result and the same ModuleCode
        instance; counters stay coherent."""
        import threading

        CODE_CACHE.clear()
        image = _image(_loop_items(8))
        results, modules, errors = [], [], []

        def worker():
            try:
                proc = Process(Kernel(), LINUX_X86)
                module = proc.load(image)
                results.append(proc.libcall("f"))
                modules.append(proc._module_code[module.base])
            except Exception as exc:            # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(set(results)) == 1           # all computed the same
        # racing threads may redundantly decode/build, but the module
        # layer re-checks under its lock, so every thread must end up
        # sharing one ModuleCode (and its compiled templates)
        assert len({id(mc) for mc in modules}) == 1

        stats = CODE_CACHE.stats()
        assert 1 <= stats["decode_misses"] <= 8
        assert stats["module_hits"] + stats["module_misses"] == 8
        assert stats["blocks_compiled"] >= 1
        assert stats["template_hits"] > 0

    def test_stats_coherent_under_serial_campaign(
            self, libc_profiles_linux):
        """A serial campaign over minidb: afterwards the shared cache's
        counters must show reuse across cases, not per-case
        re-translation.  (A forked worker's counters never reach the
        parent, so the parallel shape cannot be checked this way.)"""
        from repro.cli import _campaign_factory

        CODE_CACHE.clear()
        factory = _campaign_factory("minidb", LINUX_X86)
        cases = enumerate_cases(libc_profiles_linux,
                                functions=["open", "read", "close"],
                                max_codes_per_function=2,
                                call_ordinals=(1, 2, 3))
        report = run_campaign("minidb", factory, LINUX_X86,
                              libc_profiles_linux, cases)
        assert len(report.results) == len(cases)

        stats = CODE_CACHE.stats()
        # images decode once, not once per case
        assert 1 <= stats["decode_misses"] < len(cases)
        assert stats["module_hits"] >= 1
        assert stats["blocks_compiled"] >= 1
        # a CPU binds each template it reaches once, and cases recycle
        # one parked process: only the golden run's process and that
        # one ever bind, however many cases run (a fresh process per
        # case would bind about len(cases) times over)
        binds = stats["template_hits"] + stats["blocks_compiled"]
        assert binds <= 2 * stats["blocks_compiled"]


def _parent_plan_recorder(app, seen):
    """The CLI's campaign workload, recording every plan the parent
    process sets it up under (forked workers record nothing)."""
    import os

    from repro.cli import _campaign_factory
    from repro.core.campaign import PrefixFactory

    inner = _campaign_factory(app, LINUX_X86)
    parent = os.getpid()

    def setup(lfi):
        if os.getpid() == parent:
            seen.append(lfi.plan.name)
        return inner.setup(lfi)
    return PrefixFactory(setup, inner.run, workload_id=inner.workload_id)


class TestProcessCampaignPriming:
    """The process backend primes the parent once, before the first
    fork, without running any fault case outside the per-case timeout."""

    def _cases(self, profiles):
        return enumerate_cases(profiles, functions=["close"],
                               max_codes_per_function=2)

    def test_parent_runs_only_the_golden_plan(self, libc_profiles_linux):
        seen = []
        cases = self._cases(libc_profiles_linux)
        report = run_campaign("minidb", _parent_plan_recorder("minidb", seen),
                              LINUX_X86, libc_profiles_linux, cases,
                              jobs=2, backend="process", timeout=30.0)
        assert len(report.results) == len(cases)
        assert seen == ["golden"]

    def test_snapshot_parent_builds_checkpoints_not_cases(
            self, libc_profiles_linux):
        seen = []
        run_campaign("minidb", _parent_plan_recorder("minidb", seen),
                     LINUX_X86, libc_profiles_linux,
                     self._cases(libc_profiles_linux), jobs=2,
                     backend="process", timeout=30.0, snapshot=True)
        assert seen == ["golden", "snapshot-prefix-close"]

    def test_code_cache_is_warm_before_the_first_fork(
            self, monkeypatch, libc_profiles_linux):
        from multiprocessing.context import ForkProcess

        compiled_at_fork = []
        start = ForkProcess.start

        def recording_start(proc):
            compiled_at_fork.append(CODE_CACHE.stats()["blocks_compiled"])
            start(proc)

        monkeypatch.setattr(ForkProcess, "start", recording_start)
        CODE_CACHE.clear()
        run_campaign("minidb", _parent_plan_recorder("minidb", []),
                     LINUX_X86, libc_profiles_linux,
                     self._cases(libc_profiles_linux), jobs=2,
                     backend="process", timeout=30.0)
        assert compiled_at_fork and compiled_at_fork[0] > 0
