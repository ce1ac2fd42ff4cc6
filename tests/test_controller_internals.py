"""Controller internals: injector plumbing, attach errors, log details."""

import pytest

from repro.core.controller import (Controller, EVAL_SYMBOL, Injector,
                                   Logbook, TriggerEngine)
from repro.core.controller.logbook import InjectionRecord
from repro.core.scenario import (ErrorCode, FrameSpec, FunctionTrigger,
                                 Plan)
from repro.errors import ControllerError
from repro.kernel import Kernel, O_CREAT, O_RDWR, errno_number
from repro.platform import LINUX_X86, SOLARIS_SPARC
from repro.runtime import Process


def _plan(*triggers, seed=None):
    plan = Plan(seed=seed)
    for t in triggers:
        plan.add(t)
    return plan


class TestAttachment:
    def test_unattached_injector_raises(self):
        engine = TriggerEngine(_plan())
        injector = Injector(engine, Logbook(), ["close"])
        proc = Process(Kernel(), LINUX_X86)
        with pytest.raises(ControllerError, match="not attached"):
            injector._resolve_original(proc, "close")

    def test_shim_without_original_raises(self, libc_profiles_linux):
        # a pass-through needs the real function; none exists behind
        # the shim in this process
        plan = _plan(FunctionTrigger(function="close", mode="random",
                                     probability=1e-12,
                                     actions=(ErrorCode(-1, "EIO"),),
                                     calloriginal=True))
        lfi = Controller(LINUX_X86, libc_profiles_linux, plan)
        proc = Process(Kernel(), LINUX_X86)
        lfi.attach(proc, [])                  # shim but no libc behind it
        with pytest.raises(ControllerError, match="behind the shim"):
            proc.libcall("close", 3)

    def test_injection_works_without_original(self, libc_profiles_linux):
        # injection never touches the original function at all
        plan = _plan(FunctionTrigger(function="close", mode="nth", nth=1,
                                     actions=(ErrorCode(-1, "EIO"),)))
        lfi = Controller(LINUX_X86, libc_profiles_linux, plan)
        proc = Process(Kernel(), LINUX_X86)
        lfi.attach(proc, [])
        assert proc.libcall("close", 3) == -1

    def test_original_cache_is_per_process(self, libc_linux,
                                           libc_profiles_linux):
        plan = _plan(FunctionTrigger(function="getpid", mode="random",
                                     probability=1e-12,
                                     actions=(ErrorCode(-1, None),),
                                     calloriginal=True))
        lfi = Controller(LINUX_X86, libc_profiles_linux, plan)
        kernel = Kernel()
        a = lfi.make_process(kernel, [libc_linux.image])
        b = lfi.make_process(kernel, [libc_linux.image])
        assert a.libcall("getpid") == a.kstate.pid
        assert b.libcall("getpid") == b.kstate.pid
        assert len(lfi.injector._original_cache) == 2

    def test_shim_exports_match_plan(self, libc_profiles_linux):
        plan = _plan(
            FunctionTrigger(function="read", mode="nth", nth=1,
                            actions=(ErrorCode(-1, "EIO"),)),
            FunctionTrigger(function="write", mode="nth", nth=1,
                            actions=(ErrorCode(-1, "EIO"),)))
        lfi = Controller(LINUX_X86, libc_profiles_linux, plan)
        assert {s.name for s in lfi.shim.exports} == {"read", "write"}
        assert lfi.shim.imports == (lfi.eval_symbol,)
        assert lfi.eval_symbol.startswith(EVAL_SYMBOL)


class TestSideEffectApplication:
    def test_errno_written_to_libc_tls(self, libc_linux,
                                       libc_profiles_linux):
        plan = _plan(FunctionTrigger(function="close", mode="nth", nth=1,
                                     actions=(ErrorCode(-1, "ENOSPC"),)))
        lfi = Controller(LINUX_X86, libc_profiles_linux, plan)
        proc = lfi.make_process(Kernel(), [libc_linux.image])
        proc.libcall("close", 3)
        module = proc.module_by_soname("libc.so.6")
        offset = module.image.tls_symbol("errno").offset
        assert proc.memory.read_u32(module.tls_base + offset) \
            == errno_number("ENOSPC")

    def test_errno_written_to_global_on_solaris(self, libc_sparc,
                                                libc_profiles_linux):
        plan = _plan(FunctionTrigger(function="close", mode="nth", nth=1,
                                     actions=(ErrorCode(-1, "EIO"),)))
        lfi = Controller(SOLARIS_SPARC, {}, plan)
        proc = lfi.make_process(Kernel(os_name="Solaris"),
                                [libc_sparc.image])
        proc.libcall("close", 3)
        module = proc.module_by_soname("libc.so.6")
        offset = module.image.data_symbol("errno").offset
        assert proc.memory.read_u32(module.data_base + offset) \
            == errno_number("EIO")

    def test_code_without_errno_skips_side_effect(self, libc_linux,
                                                  libc_profiles_linux):
        plan = _plan(FunctionTrigger(function="getpid", mode="nth", nth=1,
                                     actions=(ErrorCode(-1, None),)))
        lfi = Controller(LINUX_X86, libc_profiles_linux, plan)
        proc = lfi.make_process(Kernel(), [libc_linux.image])
        assert proc.libcall("getpid") == -1
        assert proc.libcall("__errno") == 0       # untouched


class TestStacktraceTriggersLive:
    def test_app_frame_condition_gates_injection(self, libc_linux,
                                                 libc_profiles_linux):
        """The paper's refresh_files-style condition, end to end."""
        plan = _plan(FunctionTrigger(
            function="close", mode="always",
            actions=(ErrorCode(-1, "EBADF"),),
            stacktrace=(FrameSpec("0xfffffff0"),
                        FrameSpec("refresh_files"))))
        lfi = Controller(LINUX_X86, libc_profiles_linux, plan)
        proc = lfi.make_process(Kernel(), [libc_linux.image])
        fd = proc.libcall("open", proc.cstr("/f"), O_CREAT | O_RDWR,
                          0o644)
        # outside the frame: passes through
        assert proc.libcall("close", fd) == 0
        # inside the matching app frame: injected
        with proc.frame("refresh_files"):
            assert proc.libcall("close", 99) == -1
        assert lfi.injections == 1


class TestLogbookQueries:
    def test_for_test_filters(self):
        book = Logbook()
        for test_id in ("a", "b", "a"):
            book.log(InjectionRecord(
                sequence=book.next_sequence(), test_id=test_id,
                function="f", call_number=1, retval=-1, errno="EIO",
                calloriginal=False))
        assert len(book.for_test("a")) == 2
        assert len(book.injections()) == 3

    def test_passthrough_records_marked(self):
        book = Logbook()
        book.log(InjectionRecord(
            sequence=1, test_id="t", function="f", call_number=2,
            retval=None, errno=None, calloriginal=True,
            modifications=("arg3sub10",)))
        assert book.injections() == []
        text = book.render()
        assert "passthrough" in text and "modify[arg3sub10]" in text


class TestStackedControllers:
    """§5.1: 'Interceptors for multiple libraries can coexist ...
    transparently' — here as two independent controllers whose shims
    chain through RTLD_NEXT in one process."""

    def _stacked(self, libc_linux, profiles):
        plan_a = _plan(FunctionTrigger(function="close", mode="nth", nth=2,
                                       actions=(ErrorCode(-1, "EIO"),)))
        plan_b = _plan(FunctionTrigger(function="close", mode="nth", nth=1,
                                       actions=(ErrorCode(-1, "EBADF"),),
                                       calloriginal=False))
        outer = Controller(LINUX_X86, profiles, plan_a)
        inner = Controller(LINUX_X86, profiles, plan_b)
        proc = Process(Kernel(), LINUX_X86)
        proc.register_host(outer.eval_symbol, outer.injector.eval_host,
                           raw=True)
        proc.register_host(inner.eval_symbol, inner.injector.eval_host,
                           raw=True)
        outer_mod = proc.load(outer.shim)      # resolves first
        inner_mod = proc.load(inner.shim)      # RTLD_NEXT target of outer
        proc.load(libc_linux.image)
        outer.injector.shim_module_index = outer_mod.index
        inner.injector.shim_module_index = inner_mod.index
        return outer, inner, proc

    def test_two_shims_chain(self, libc_linux, libc_profiles_linux):
        outer, inner, proc = self._stacked(libc_linux,
                                           libc_profiles_linux)
        # call 1: outer passes through (nth=2), inner injects (nth=1)
        assert proc.libcall("close", 99) == -1
        assert outer.injections == 0 and inner.injections == 1
        # call 2: outer injects before inner ever sees the call
        assert proc.libcall("close", 99) == -1
        assert outer.injections == 1 and inner.injections == 1
        assert outer.engine.call_counts["close"] == 2
        assert inner.engine.call_counts["close"] == 1

    def test_chain_reaches_libc_when_no_trigger_fires(
            self, libc_linux, libc_profiles_linux):
        outer, inner, proc = self._stacked(libc_linux,
                                           libc_profiles_linux)
        proc.libcall("close", 99)      # inner injects
        proc.libcall("close", 99)      # outer injects
        # call 3: both pass through -> the real libc close runs (EBADF
        # from the kernel, errno set by genuine libc code)
        assert proc.libcall("close", 99) == -1
        assert proc.libcall("__errno") == errno_number("EBADF")
        assert outer.injections == 1 and inner.injections == 1
