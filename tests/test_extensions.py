"""Extensions beyond the paper's prototype, and ablation switches.

* Argument-condition inference — §3.1's stated future work ("inferring
  the relationship between arguments can be done using symbolic
  execution, but the current LFI prototype does not support this yet").
* ``argcond`` trigger conditions in the scenario language, so a fault
  fires only for specific live argument values.
* The ``use_edge_constraints`` ablation: turning off path sensitivity
  shows why the analysis needs it (kernel error constants leak into
  syscall wrappers' success paths).
"""

import pytest

from repro.core.profiler import AnalysisContext, Profiler
from repro.core.profiles import ArgCondition, LibraryProfile
from repro.core.scenario import (ErrorCode, FunctionTrigger, Plan,
                                 plan_from_xml, plan_to_xml)
from repro.core.controller import Controller, TriggerEngine
from repro.kernel import Kernel, O_CREAT, O_RDWR, errno_number
from repro.platform import LINUX_X86
from repro.toolchain import minc

from .helpers import build_one


def _analyze_with_conditions(*stmts, nparams=1):
    image = build_one("f", nparams, *stmts)
    ctx = AnalysisContext(LINUX_X86, {image.soname: image},
                          infer_arg_conditions=True)
    return ctx.analyze_function(image.soname,
                                image.find_export("f").offset)


class TestArgConditionInference:
    def test_equality_guard_inferred(self):
        analysis = _analyze_with_conditions(
            minc.If(minc.Cond("==", minc.Param(0), minc.Const(1000)),
                    minc.body(minc.Return(minc.Const(-9)))),
            minc.Return(minc.Param(0)))
        entry = next(e for e in analysis.entries if e.value == -9)
        assert ArgCondition(0, "==", 1000) in entry.conditions

    def test_inequality_guard_inferred(self):
        analysis = _analyze_with_conditions(
            minc.If(minc.Cond("<", minc.Param(0), minc.Const(0)),
                    minc.body(minc.Return(minc.Const(-22)))),
            minc.Return(minc.Const(0)))
        entry = next(e for e in analysis.entries if e.value == -22)
        assert ArgCondition(0, "<", 0) in entry.conditions

    def test_fallthrough_gets_negated_guard(self):
        analysis = _analyze_with_conditions(
            minc.If(minc.Cond("==", minc.Param(0), minc.Const(5)),
                    minc.body(minc.Return(minc.Const(-1)))),
            minc.Return(minc.Const(0)))
        zero = next(e for e in analysis.entries if e.value == 0)
        assert ArgCondition(0, "!=", 5) in zero.conditions

    def test_condition_dropped_when_paths_disagree(self):
        # -7 is returned both when p0==1 and when p0==2: neither guard
        # holds universally, so no condition may be reported
        analysis = _analyze_with_conditions(
            minc.If(minc.Cond("==", minc.Param(0), minc.Const(1)),
                    minc.body(minc.Return(minc.Const(-7)))),
            minc.If(minc.Cond("==", minc.Param(0), minc.Const(2)),
                    minc.body(minc.Return(minc.Const(-7)))),
            minc.Return(minc.Const(0)))
        entry = next(e for e in analysis.entries if e.value == -7)
        assert entry.conditions == ()

    def test_second_parameter_guard(self):
        analysis = _analyze_with_conditions(
            minc.If(minc.Cond(">", minc.Param(1), minc.Const(100)),
                    minc.body(minc.Return(minc.Const(-3)))),
            minc.Return(minc.Const(0)), nparams=2)
        entry = next(e for e in analysis.entries if e.value == -3)
        assert ArgCondition(1, ">", 100) in entry.conditions

    def test_off_by_default(self):
        image = build_one("f", 1,
                          minc.If(minc.Cond("==", minc.Param(0),
                                            minc.Const(9)),
                                  minc.body(minc.Return(minc.Const(-1)))),
                          minc.Return(minc.Param(0)))
        ctx = AnalysisContext(LINUX_X86, {image.soname: image})
        analysis = ctx.analyze_function(image.soname,
                                        image.find_export("f").offset)
        assert all(e.conditions == () for e in analysis.entries)

    def test_profile_xml_carries_conditions(self):
        image = build_one("g", 1,
                          minc.If(minc.Cond("==", minc.Param(0),
                                            minc.Const(42)),
                                  minc.body(minc.Return(minc.Const(-5)))),
                          minc.Return(minc.Param(0)))
        profiler = Profiler(LINUX_X86, {image.soname: image},
                            infer_arg_conditions=True)
        profile = profiler.profile_library(image.soname)
        xml = profile.to_xml()
        assert "<when" in xml and 'value="42"' in xml
        again = LibraryProfile.from_xml(xml)
        er = again.function("g").find(-5)
        assert ArgCondition(0, "==", 42) in er.conditions


class TestArgCondTriggers:
    def test_engine_checks_live_arguments(self):
        plan = Plan()
        plan.add(FunctionTrigger(
            function="close", mode="always",
            actions=(ErrorCode(-1, "EBADF"),),
            argconds=(ArgCondition(0, "==", 7),)))
        engine = TriggerEngine(plan)
        assert engine.needs_args
        _, hit = engine.on_call("close", (), [7])
        assert hit is not None
        _, miss = engine.on_call("close", (), [8])
        assert miss is None

    def test_xml_roundtrip(self):
        plan = Plan()
        plan.add(FunctionTrigger(
            function="read", mode="always",
            actions=(ErrorCode(-1, "EIO"),),
            argconds=(ArgCondition(2, ">=", 4096),)))
        xml = plan_to_xml(plan)
        assert "<argcond" in xml and 'argument="3"' in xml  # 1-based XML
        again = plan_from_xml(xml)
        assert again.triggers[0].argconds == \
            (ArgCondition(2, ">=", 4096),)

    def test_end_to_end_fd_targeted_injection(self, libc_linux,
                                              libc_profiles_linux):
        """Inject close() failures only for one specific descriptor."""
        plan = Plan()
        plan.add(FunctionTrigger(
            function="close", mode="always",
            actions=(ErrorCode(-1, "EIO"),),
            argconds=(ArgCondition(0, "==", 4),)))
        lfi = Controller(LINUX_X86, libc_profiles_linux, plan)
        proc = lfi.make_process(Kernel(), [libc_linux.image])
        fd_a = proc.libcall("open", proc.cstr("/a"), O_CREAT | O_RDWR,
                            0o644)                       # fd 3
        fd_b = proc.libcall("open", proc.cstr("/b"), O_CREAT | O_RDWR,
                            0o644)                       # fd 4
        assert proc.libcall("close", fd_a) == 0          # untouched
        assert proc.libcall("close", fd_b) == -1         # targeted
        assert proc.libcall("__errno") == errno_number("EIO")
        assert lfi.injections == 1


class TestEdgeConstraintAblation:
    def test_success_path_leaks_without_pruning(self, libc_linux,
                                                kernel_image_linux):
        """Without path sensitivity, kernel error constants pollute the
        wrapper's return set — the close profile would claim close() can
        return -9 directly."""
        sound = Profiler(LINUX_X86, {"libc.so.6": libc_linux.image},
                         kernel_image_linux)
        ablated = Profiler(LINUX_X86, {"libc.so.6": libc_linux.image},
                           kernel_image_linux,
                           use_edge_constraints=False)
        sound_close = sound.profile_library("libc.so.6").function("close")
        ablated_close = ablated.profile_library(
            "libc.so.6").function("close")
        assert -9 not in sound_close.retvals()
        assert -9 in ablated_close.retvals()
        assert len(ablated_close.retvals()) > len(sound_close.retvals())
