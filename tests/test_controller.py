"""The controller end to end: stubs, triggers, injection, logs, replay."""

import pytest

from repro.core.controller import (Controller, Logbook, TriggerEngine,
                                   build_replay_plan, generate_c_source,
                                   replay_script, synthesize_shim)
from repro.core.scenario import (INJECT_EXHAUSTIVE, INJECT_NTH,
                                 INJECT_RANDOM, ArgModification, ErrorCode,
                                 FrameSpec, FunctionTrigger, Plan,
                                 plan_from_xml)
from repro.kernel import Kernel, O_CREAT, O_RDWR, errno_number
from repro.platform import ALL_PLATFORMS, LINUX_X86, WINDOWS_X86
from repro.runtime import Process


def _plan(*triggers, seed=None):
    plan = Plan(seed=seed)
    for t in triggers:
        plan.add(t)
    return plan


def _controller(profiles, plan, platform=LINUX_X86):
    return Controller(platform, profiles, plan)


@pytest.fixture()
def ready(libc_linux, libc_profiles_linux):
    """(make_proc, profiles): convenience for injection tests."""
    def make(plan, platform=LINUX_X86):
        lfi = Controller(platform, libc_profiles_linux, plan)
        proc = lfi.make_process(Kernel(os_name=platform.os),
                                [libc_linux.image])
        return lfi, proc
    return make


class TestTriggerEngine:
    def test_nth_call_only(self):
        plan = _plan(FunctionTrigger(function="f", mode=INJECT_NTH, nth=3,
                                     actions=(ErrorCode(-1, "EIO"),)))
        engine = TriggerEngine(plan)
        results = [engine.on_call("f", [])[1] for _ in range(5)]
        assert [r is not None for r in results] == \
            [False, False, True, False, False]

    def test_exhaustive_rotates_codes(self):
        codes = (ErrorCode(-1, "EIO"), ErrorCode(-1, "EBADF"),
                 ErrorCode(-1, "EINTR"))
        plan = _plan(FunctionTrigger(function="f",
                                     mode=INJECT_EXHAUSTIVE, actions=codes))
        engine = TriggerEngine(plan)
        seen = [engine.on_call("f", [])[1].code.errno for _ in range(6)]
        assert seen == ["EIO", "EBADF", "EINTR", "EIO", "EBADF", "EINTR"]

    def test_random_is_seed_deterministic(self):
        def run(seed):
            plan = _plan(FunctionTrigger(
                function="f", mode=INJECT_RANDOM, probability=0.5,
                actions=(ErrorCode(-1, "EIO"),)), seed=seed)
            engine = TriggerEngine(plan)
            return [engine.on_call("f", [])[1] is not None
                    for _ in range(32)]
        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_stacktrace_condition(self):
        plan = _plan(FunctionTrigger(
            function="f", mode=INJECT_NTH, nth=1,
            actions=(ErrorCode(-1, "EIO"),),
            stacktrace=(FrameSpec("0xb824490"),
                        FrameSpec("refresh_files"))))
        engine = TriggerEngine(plan)
        count, decision = engine.on_call(
            "f", [(0xB824490, None), (0, "refresh_files")])
        assert decision is not None
        engine2 = TriggerEngine(plan)
        _, decision2 = engine2.on_call("f", [(0x1111, None)])
        assert decision2 is None

    def test_call_counts_per_function(self):
        engine = TriggerEngine(_plan())
        engine.on_call("a", [])
        engine.on_call("a", [])
        engine.on_call("b", [])
        assert engine.call_counts == {"a": 2, "b": 1}

    def test_first_matching_trigger_wins(self):
        plan = _plan(
            FunctionTrigger(function="f", mode=INJECT_NTH, nth=1,
                            actions=(ErrorCode(-1, "EIO"),)),
            FunctionTrigger(function="f", mode=INJECT_NTH, nth=1,
                            actions=(ErrorCode(-2, "EBADF"),)))
        engine = TriggerEngine(plan)
        _, decision = engine.on_call("f", [])
        assert decision.code.retval == -1


class TestShimSynthesis:
    def test_exports_match_functions(self):
        shim, source = synthesize_shim(["read", "close"], LINUX_X86)
        assert {s.name for s in shim.exports} == {"read", "close"}
        assert shim.imports == ("__lfi_eval",)

    def test_c_source_mirrors_paper_stub(self):
        source = generate_c_source(["close"], LINUX_X86)
        assert "dlsym(RTLD_NEXT" in source
        assert "eval_trigger" in source
        assert "jmp [original_fn_ptr]" in source
        assert "int close(void)" in source

    def test_shim_is_disassemblable(self):
        from repro.binfmt import objdump
        shim, _ = synthesize_shim(["read"], LINUX_X86)
        listing = objdump(shim)
        assert "push" in listing and "call" in listing


class TestInjection:
    def test_nth_call_injection_with_errno(self, ready):
        plan = _plan(FunctionTrigger(function="close", mode=INJECT_NTH,
                                     nth=2,
                                     actions=(ErrorCode(-1, "EIO"),)))
        lfi, proc = ready(plan)
        fd1 = proc.libcall("open", proc.cstr("/a"), O_CREAT | O_RDWR, 0o644)
        fd2 = proc.libcall("open", proc.cstr("/b"), O_CREAT | O_RDWR, 0o644)
        assert proc.libcall("close", fd1) == 0          # 1st: passthrough
        assert proc.libcall("close", fd2) == -1         # 2nd: injected
        assert proc.libcall("__errno") == errno_number("EIO")
        assert lfi.injections == 1

    def test_injection_does_not_reach_kernel(self, ready):
        plan = _plan(FunctionTrigger(function="unlink", mode=INJECT_NTH,
                                     nth=1,
                                     actions=(ErrorCode(-1, "EACCES"),)))
        lfi, proc = ready(plan)
        proc.kernel.vfs.write_file("/keep", b"data")
        assert proc.libcall("unlink", proc.cstr("/keep")) == -1
        assert proc.kernel.vfs.exists("/keep")          # nothing deleted

    def test_passthrough_preserves_semantics(self, ready):
        plan = _plan(FunctionTrigger(function="write", mode=INJECT_RANDOM,
                                     probability=1e-12,
                                     actions=(ErrorCode(-1, "EIO"),),
                                     calloriginal=True))
        lfi, proc = ready(plan)
        fd = proc.libcall("open", proc.cstr("/f"), O_CREAT | O_RDWR, 0o644)
        buf = proc.scratch_alloc(4)
        proc.mem_write(buf, b"abcd")
        assert proc.libcall("write", fd, buf, 4) == 4
        assert proc.kernel.vfs.read_file("/f") == b"abcd"
        # the trigger's countdown is far off: the call was counted, and
        # dormant, so nothing was evaluated
        assert lfi.engine.call_counts["write"] == 1
        assert lfi.evaluations == 0 and lfi.injections == 0

    def test_argument_modification_shrinks_write(self, ready):
        """The paper's third example: modify arg 3 of write by -10."""
        plan = _plan(FunctionTrigger(
            function="write", mode=INJECT_NTH, nth=1, calloriginal=True,
            modifications=(ArgModification(3, "sub", 10),)))
        lfi, proc = ready(plan)
        fd = proc.libcall("open", proc.cstr("/f"), O_CREAT | O_RDWR, 0o644)
        buf = proc.scratch_alloc(32)
        proc.mem_write(buf, b"x" * 30)
        assert proc.libcall("write", fd, buf, 30) == 20
        assert proc.kernel.vfs.read_file("/f") == b"x" * 20

    def test_exhaustive_iterates_error_codes(self, ready,
                                             libc_profiles_linux):
        from repro.core.scenario import exhaustive_plan
        plan = exhaustive_plan(libc_profiles_linux, functions=["close"])
        lfi, proc = ready(plan)
        fd = proc.libcall("open", proc.cstr("/f"), O_CREAT | O_RDWR, 0o644)
        errnos = set()
        for _ in range(8):
            assert proc.libcall("close", fd) in (-1, 0)
            errnos.add(proc.libcall("__errno"))
        assert len(errnos) >= 2       # rotated through multiple codes

    def test_interception_on_every_platform(self, libc_profiles_linux):
        from repro.corpus.libc import libc as build
        for platform in ALL_PLATFORMS:
            built = build(platform)
            plan = _plan(FunctionTrigger(
                function="getpid", mode=INJECT_NTH, nth=1,
                actions=(ErrorCode(-1, None),)))
            lfi = Controller(platform, {}, plan)
            proc = lfi.make_process(Kernel(os_name=platform.os),
                                    [built.image])
            assert proc.libcall("getpid") == -1
            assert proc.libcall("getpid") == proc.kstate.pid

    def test_cross_library_interception(self, web_stack_linux):
        """libapr's internal use of libc must route through the shim."""
        images, profiles = web_stack_linux
        plan = _plan(FunctionTrigger(function="read", mode=INJECT_NTH,
                                     nth=1,
                                     actions=(ErrorCode(-1, "EINTR"),)))
        lfi = Controller(LINUX_X86, profiles, plan)
        proc = lfi.make_process(Kernel(), list(images.values()))
        fd = proc.libcall("apr_file_open", proc.cstr("/f"),
                          O_CREAT | O_RDWR, 0o644)
        buf = proc.scratch_alloc(8)
        assert proc.libcall("apr_file_read", fd, buf, 8) == -1
        assert lfi.injections == 1

    def test_windows_remote_thread_injection(self, libc_profiles_linux):
        from repro.corpus.libc import libc as build
        built = build(WINDOWS_X86)
        plan = _plan(FunctionTrigger(function="close", mode=INJECT_NTH,
                                     nth=1, actions=(ErrorCode(-1, "EBADF"),)))
        lfi = Controller(WINDOWS_X86, {}, plan)
        proc = lfi.make_process(Kernel(os_name="Windows"), [built.image])
        assert proc.libcall("close", 5) == -1
        assert lfi.injections == 1


class TestLogAndReplay:
    def test_log_records_details(self, ready):
        plan = _plan(FunctionTrigger(function="close", mode=INJECT_NTH,
                                     nth=1, actions=(ErrorCode(-1, "EIO"),)))
        lfi, proc = ready(plan)
        proc.libcall("close", 3)
        record = lfi.logbook.records[0]
        assert record.function == "close"
        assert record.call_number == 1
        assert record.retval == -1 and record.errno == "EIO"
        assert "close" in lfi.logbook.render()

    def test_replay_reproduces_injection(self, ready, libc_linux,
                                         libc_profiles_linux):
        plan = _plan(FunctionTrigger(function="close", mode=INJECT_RANDOM,
                                     probability=0.5,
                                     actions=(ErrorCode(-1, "EIO"),)),
                     seed=123)
        lfi, proc = ready(plan)
        original = [proc.libcall("close", 99) for _ in range(10)]

        replay_xml = replay_script(lfi.logbook.records)
        replay = plan_from_xml(replay_xml)
        lfi2 = Controller(LINUX_X86, libc_profiles_linux, replay)
        proc2 = lfi2.make_process(Kernel(), [libc_linux.image])
        replayed = [proc2.libcall("close", 99) for _ in range(10)]
        assert replayed == original

    def test_run_test_outcomes(self, ready):
        plan = _plan(FunctionTrigger(function="close", mode=INJECT_NTH,
                                     nth=1, actions=(ErrorCode(-1, "EIO"),)))
        lfi, proc = ready(plan)

        outcome = lfi.run_test(lambda: proc.libcall("close", 3) and 0)
        assert outcome.status in ("normal", "error-exit")
        assert outcome.replay_xml.startswith("<plan")

    def test_run_test_detects_sigabrt(self, ready):
        from repro.errors import GuestAbort
        plan = _plan()
        lfi, proc = ready(plan)

        def crashing():
            raise GuestAbort("g_malloc failure")

        outcome = lfi.run_test(crashing)
        assert outcome.status == "SIGABRT"
        assert outcome.crashed

    def test_campaign_aggregates(self, ready):
        plan = _plan()
        lfi, proc = ready(plan)
        outcomes = [lfi.run_test(lambda: 0), lfi.run_test(lambda: 1)]
        assert len(outcomes) == 2
        assert outcomes[1].status == "error-exit"
        assert not any(outcome.crashed for outcome in outcomes)
