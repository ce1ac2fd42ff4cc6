"""Instruction tracing: attribution, interception visibility."""

import pytest

from repro.core.controller import Controller
from repro.core.scenario import ErrorCode, FunctionTrigger, Plan
from repro.kernel import Kernel
from repro.platform import LINUX_X86
from repro.runtime import Process, Tracer


class TestTracer:
    def test_records_instructions_with_attribution(self, libc_linux):
        proc = Process(Kernel(), LINUX_X86)
        proc.load_program([libc_linux.image])
        with Tracer(proc) as trace:
            proc.libcall("getpid")
        assert len(trace) > 0
        assert trace.modules_touched() == ["libc.so.6"]
        assert trace.calls_to("getpid")
        assert "int 0x80" in trace.render()

    def test_detach_stops_recording(self, libc_linux):
        proc = Process(Kernel(), LINUX_X86)
        proc.load_program([libc_linux.image])
        trace = Tracer(proc)
        trace.attach()
        proc.libcall("getpid")
        count = len(trace)
        trace.detach()
        proc.libcall("getpid")
        assert len(trace) == count

    def test_limit_truncates(self, libc_linux):
        proc = Process(Kernel(), LINUX_X86)
        proc.load_program([libc_linux.image])
        with Tracer(proc, limit=5) as trace:
            proc.libcall("getpid")
        assert len(trace) == 5 and trace.truncated
        assert "truncated" in trace.render()

    def test_interception_visible_in_trace(self, libc_linux,
                                           libc_profiles_linux):
        plan = Plan()
        plan.add(FunctionTrigger(function="close", mode="nth", nth=1,
                                 actions=(ErrorCode(-1, "EBADF"),)))
        lfi = Controller(LINUX_X86, libc_profiles_linux, plan)
        proc = lfi.make_process(Kernel(), [libc_linux.image])
        with Tracer(proc) as trace:
            proc.libcall("close", 99)
        # the stub in the shim executes; the original close never does
        shim_names = [m for m in trace.modules_touched()
                      if m.startswith("liblfi_shim")]
        assert shim_names
        shim_entries = [e for e in trace.entries
                        if e.module and e.module.startswith("liblfi_shim")]
        assert any("push" in e.text for e in shim_entries)
        assert not any(e.module == "libc.so.6" and e.symbol == "close"
                       for e in trace.entries)

    def test_passthrough_reaches_original(self, libc_linux,
                                          libc_profiles_linux):
        plan = Plan()
        plan.add(FunctionTrigger(function="getpid", mode="random",
                                 probability=1e-12,
                                 actions=(ErrorCode(-1, None),),
                                 calloriginal=True))
        lfi = Controller(LINUX_X86, libc_profiles_linux, plan)
        proc = lfi.make_process(Kernel(), [libc_linux.image])
        with Tracer(proc) as trace:
            proc.libcall("getpid")
        assert any(e.module == "libc.so.6" and e.symbol == "getpid"
                   for e in trace.entries)
