"""The generalized fault-model API: actions, schedules, scopes.

Covers the scenario-schema redesign: the open action model
(return / delay / short-read / partial-write), probability schedules
(always, seeded rate, ordinal sets), target scopes (fd, path glob,
socket peer), the ``repro.plan/2`` XML round-trip with ``/1`` read
compatibility, the deprecation shims, and the end-to-end physical
effects of every new action through the controller.
"""

from __future__ import annotations

import pickle
import warnings

import pytest

from repro.core.campaign import (FAULT_CLASSES, FaultCase, PlanCase,
                                 enumerate_cases, fail_rate_case)
from repro.core.controller import Controller
from repro.core.controller.replay import build_replay_plan
from repro.core.controller.triggers import TriggerEngine
from repro.core.results import case_digest
from repro.core.scenario import (ACCEPTED_SCHEMAS, INJECT_ORDINALS,
                                 PLAN_SCHEMA, DelayFault, ErrorCode,
                                 FunctionTrigger, PartialWriteFault, Plan,
                                 ReturnFault, ShortReadFault, TargetScope,
                                 action_from_token, derive_plan_seed,
                                 plan_from_xml, plan_to_xml)
from repro.errors import ScenarioError
from repro.kernel import Kernel, O_CREAT, O_RDWR, errno_number
from repro.obs import Telemetry
from repro.platform import LINUX_X86

from .fail_rate_reference import ReferenceFailRateCase


def _metric_total(tele, name):
    snap = tele.metrics.snapshot()
    if name not in snap:
        return 0
    return sum(v["value"] for v in snap[name]["values"])


class TestActionModel:
    def test_return_fault_is_error_code(self):
        assert ErrorCode is ReturnFault
        assert ReturnFault(-1, "EIO").kind == "return"

    def test_delay_fault_validates(self):
        assert DelayFault(1000).virtual_ns == 1000
        with pytest.raises(ScenarioError):
            DelayFault(0)
        with pytest.raises(ScenarioError):
            DelayFault(-5)

    def test_partial_io_needs_exactly_one_bound(self):
        with pytest.raises(ScenarioError, match="exactly one"):
            ShortReadFault()
        with pytest.raises(ScenarioError, match="exactly one"):
            PartialWriteFault(max_bytes=4, fraction=0.5)
        with pytest.raises(ScenarioError, match="0 < fraction < 1"):
            ShortReadFault(fraction=1.5)
        with pytest.raises(ScenarioError, match="max_bytes >= 0"):
            PartialWriteFault(max_bytes=-1)

    def test_partial_io_limit(self):
        assert ShortReadFault(max_bytes=4).limit(100) == 4
        assert ShortReadFault(max_bytes=400).limit(100) == 100
        assert PartialWriteFault(fraction=0.25).limit(100) == 25
        assert ShortReadFault(max_bytes=4).limit(0) == 0
        assert ShortReadFault(max_bytes=4).limit(-1) == -1

    def test_token_roundtrip(self):
        for action in (ReturnFault(-1, "EIO"), ReturnFault(0, None),
                       DelayFault(2_000_000),
                       ShortReadFault(max_bytes=16),
                       ShortReadFault(fraction=0.5, argument=2),
                       PartialWriteFault(max_bytes=0)):
            assert action_from_token(action.token()) == action

    def test_bad_tokens_rejected(self):
        for text in ("", "warp:9", "delay:", "delay:abc",
                     "return:notanint:EIO"):
            with pytest.raises(ScenarioError, match="bad action token"):
                action_from_token(text)

    def test_trigger_rejects_non_actions(self):
        with pytest.raises(ScenarioError, match="non-action"):
            FunctionTrigger(function="read", actions=("EIO",))


class TestTargetScope:
    def test_needs_a_predicate(self):
        with pytest.raises(ScenarioError, match="at least one"):
            TargetScope()

    def test_fd_predicate(self):
        scope = TargetScope(fd=4)
        assert scope.matches(fd=4)
        assert not scope.matches(fd=5)
        assert not scope.matches(fd=None)

    def test_path_glob_predicate(self):
        scope = TargetScope(path="/www/*.html")
        assert scope.matches(fd=3, path="/www/index.html")
        assert not scope.matches(fd=3, path="/www/app.php")
        assert not scope.matches(fd=3, path=None)

    def test_peer_predicate(self):
        scope = TargetScope(peer=80)
        assert scope.matches(fd=9, peer=80)
        assert not scope.matches(fd=9, peer=8080)
        assert not scope.matches(fd=9, peer=None)

    def test_conjunction(self):
        scope = TargetScope(fd=4, path="/log/*")
        assert scope.matches(fd=4, path="/log/app")
        assert not scope.matches(fd=4, path="/tmp/app")
        assert not scope.matches(fd=5, path="/log/app")

    def test_engine_consults_resolver(self):
        plan = Plan()
        plan.add(FunctionTrigger(function="write", mode="always",
                                 actions=(ReturnFault(-1, "EIO"),),
                                 scope=TargetScope(path="/log/*")))
        engine = TriggerEngine(plan)
        assert engine.needs_scope and engine.needs_args

        table = {4: ("/log/app", None), 5: ("/data/db", None)}
        resolver = lambda fd: table.get(fd, (None, None))
        _, hit = engine.on_call("write", (), [4, 0, 10], resolver)
        assert hit is not None
        _, miss = engine.on_call("write", (), [5, 0, 10], resolver)
        assert miss is None
        # no resolver -> no path knowledge -> no match
        _, blind = engine.on_call("write", (), [4, 0, 10], None)
        assert blind is None

    def test_peer_resolver(self):
        plan = Plan()
        plan.add(FunctionTrigger(function="send", mode="always",
                                 actions=(ReturnFault(-1, "EPIPE"),),
                                 scope=TargetScope(peer=80)))
        engine = TriggerEngine(plan)
        resolver = lambda fd: (None, 80 if fd == 7 else 443)
        _, hit = engine.on_call("send", (), [7], resolver)
        assert hit is not None
        _, miss = engine.on_call("send", (), [8], resolver)
        assert miss is None


class TestOrdinalSchedules:
    def test_ordinals_fire_on_listed_calls_only(self):
        plan = Plan()
        plan.add(FunctionTrigger(function="read", mode=INJECT_ORDINALS,
                                 ordinals=(3, 5),
                                 actions=(ReturnFault(-1, "EIO"),)))
        engine = TriggerEngine(plan)
        fired = [engine.on_call("read", ())[1] is not None
                 for _ in range(6)]
        assert fired == [False, False, True, False, True, False]

    def test_ordinals_validate(self):
        with pytest.raises(ScenarioError, match="non-empty"):
            FunctionTrigger(function="read", mode=INJECT_ORDINALS)
        with pytest.raises(ScenarioError, match="1-based"):
            FunctionTrigger(function="read", mode=INJECT_ORDINALS,
                            ordinals=(0, 2))


class TestFailRateSchedule:
    def test_seeded_rate_is_statistical_and_deterministic(self):
        def build():
            plan = Plan(seed=20090629)
            plan.add(FunctionTrigger(
                function="read", mode="random", probability=0.3,
                actions=(ReturnFault(-1, "EIO"),)))
            return TriggerEngine(plan)

        first = build()
        pattern = [first.on_call("read", ())[1] is not None
                   for _ in range(2000)]
        rate = sum(pattern) / len(pattern)
        assert 0.25 < rate < 0.35, rate
        # the recorded seed makes the whole firing pattern replayable
        second = build()
        replayed = [second.on_call("read", ())[1] is not None
                    for _ in range(2000)]
        assert replayed == pattern

    def test_different_seeds_differ(self):
        def pattern(seed):
            plan = Plan(seed=seed)
            plan.add(FunctionTrigger(
                function="read", mode="random", probability=0.3,
                actions=(ReturnFault(-1, "EIO"),)))
            engine = TriggerEngine(plan)
            return [engine.on_call("read", ())[1] is not None
                    for _ in range(200)]

        assert pattern(1) != pattern(2)


class TestSchemaV2:
    def test_writer_stamps_v2(self):
        plan = Plan()
        plan.add(FunctionTrigger(function="close", mode="nth", nth=1,
                                 actions=(ReturnFault(-1, "EIO"),)))
        xml = plan_to_xml(plan)
        assert f'schema="{PLAN_SCHEMA}"' in xml
        assert PLAN_SCHEMA == "repro.plan/2"

    def test_return_only_plan_keeps_v1_shorthand(self):
        plan = Plan()
        plan.add(FunctionTrigger(function="close", mode="nth", nth=2,
                                 actions=(ReturnFault(-1, "EBADF"),)))
        xml = plan_to_xml(plan)
        assert 'retval="-1"' in xml and 'errno="EBADF"' in xml
        assert "<code" not in xml

    def test_v1_document_without_schema_parses(self):
        v1 = ('<plan name="legacy"><function name="close" inject="1" '
              'retval="-1" errno="EIO" calloriginal="false" />'
              '</plan>')
        plan = plan_from_xml(v1)
        assert plan.triggers[0].actions == (ReturnFault(-1, "EIO"),)

    def test_v1_schema_tag_accepted(self):
        v1 = ('<plan name="legacy" schema="repro.plan/1">'
              '<function name="close" inject="1" retval="-1" />'
              '</plan>')
        assert plan_from_xml(v1).triggers[0].codes == (ReturnFault(-1),)
        assert "repro.plan/1" in ACCEPTED_SCHEMAS

    def test_unknown_schema_rejected(self):
        bad = '<plan name="x" schema="repro.plan/9" />'
        with pytest.raises(ScenarioError,
                           match="unsupported plan schema 'repro.plan/9'"):
            plan_from_xml(bad)

    def test_unknown_action_element_rejected_by_name(self):
        bad = ('<plan name="x"><function name="send" inject="always" '
               'calloriginal="true"><warpdrive factor="9" />'
               '</function></plan>')
        with pytest.raises(
                ScenarioError,
                match="function 'send' carries unknown action element "
                      "<warpdrive>"):
            plan_from_xml(bad)

    def test_full_action_roundtrip(self):
        plan = Plan(name="everything", seed=7)
        plan.add(FunctionTrigger(
            function="send", mode=INJECT_ORDINALS, ordinals=(3, 5, 9),
            actions=(DelayFault(2_000_000),), calloriginal=True,
            scope=TargetScope(peer=80)))
        plan.add(FunctionTrigger(
            function="recv", mode="always",
            actions=(ShortReadFault(max_bytes=16),), calloriginal=True,
            scope=TargetScope(path="/www/*.html")))
        plan.add(FunctionTrigger(
            function="write", mode="random", probability=0.1,
            actions=(ReturnFault(-1, "ENOSPC"),
                     PartialWriteFault(fraction=0.5))))
        xml = plan_to_xml(plan)
        again = plan_from_xml(xml)
        assert again.seed == 7
        assert again.triggers[0].mode == INJECT_ORDINALS
        assert again.triggers[0].ordinals == (3, 5, 9)
        assert again.triggers[0].actions == (DelayFault(2_000_000),)
        assert again.triggers[0].scope == TargetScope(peer=80)
        assert again.triggers[1].actions == \
            (ShortReadFault(max_bytes=16),)
        assert again.triggers[1].scope == \
            TargetScope(path="/www/*.html")
        assert again.triggers[2].actions == \
            (ReturnFault(-1, "ENOSPC"), PartialWriteFault(fraction=0.5))
        # a v2 document survives a second round-trip untouched
        assert plan_to_xml(again) == xml

    def test_partial_io_element_validates(self):
        bad = ('<plan name="x"><function name="recv" inject="always" '
               'calloriginal="true">'
               '<shortread max_bytes="4" fraction="0.5" />'
               '</function></plan>')
        with pytest.raises(ScenarioError, match="exactly one"):
            plan_from_xml(bad)


class TestDeprecationShims:
    def test_actions_kwarg_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trigger = FunctionTrigger(function="close", mode="nth",
                                      nth=1,
                                      actions=(ReturnFault(-1),))
        assert trigger.codes == (ReturnFault(-1),)

    def test_codes_property_filters_non_return_actions(self):
        trigger = FunctionTrigger(
            function="read", mode="always",
            actions=(DelayFault(100), ReturnFault(-1, "EIO")))
        assert trigger.codes == (ReturnFault(-1, "EIO"),)


class TestSeedFolding:
    def test_actions_fold_into_derived_seed(self):
        base = derive_plan_seed("p", 0.1, ("read",),
                               (ReturnFault(-1, "EIO"),))
        assert base == derive_plan_seed("p", 0.1, ("read",),
                                        (ReturnFault(-1, "EIO"),))
        assert base != derive_plan_seed("p", 0.1, ("read",),
                                        (DelayFault(1000),))
        assert base != derive_plan_seed("p", 0.1, ("read",),
                                        (ReturnFault(-1, "EIO"),
                                         DelayFault(1000)))

    def test_action_order_does_not_matter(self):
        a = derive_plan_seed("p", 0.1, ("read",),
                            (ReturnFault(-1), DelayFault(9)))
        b = derive_plan_seed("p", 0.1, ("read",),
                            (DelayFault(9), ReturnFault(-1)))
        assert a == b


class TestEndToEndActions:
    def _controller(self, profiles, plan, tele=None):
        return Controller(LINUX_X86, profiles, plan, telemetry=tele)

    def _file_with_content(self, proc, path, payload):
        fd = proc.libcall("open", proc.cstr(path), O_CREAT | O_RDWR,
                          0o644)
        buf = proc.scratch_alloc(max(len(payload), 64))
        proc.mem_write(buf, payload)
        proc.libcall("write", fd, buf, len(payload))
        proc.libcall("lseek", fd, 0, 0)
        return fd, buf

    def test_delay_advances_virtual_clock(self, libc_linux,
                                          libc_profiles_linux):
        plan = Plan()
        plan.add(FunctionTrigger(function="read", mode="nth", nth=1,
                                 actions=(DelayFault(500_000),)))
        tele = Telemetry()
        lfi = self._controller(libc_profiles_linux, plan, tele)
        kern = Kernel()
        proc = lfi.make_process(kern, [libc_linux.image])
        fd, buf = self._file_with_content(proc, "/f", b"hello world!")
        before = kern.clock_ns
        assert proc.libcall("read", fd, buf, 12) == 12   # call still runs
        assert kern.clock_ns - before == 500_000
        assert lfi.injections == 1
        assert _metric_total(tele, "repro_virtual_delay_ns_total") \
            == 500_000

    def test_short_read_clamps_count(self, libc_linux,
                                     libc_profiles_linux):
        plan = Plan()
        plan.add(FunctionTrigger(function="read", mode="nth", nth=1,
                                 actions=(ShortReadFault(max_bytes=4),)))
        tele = Telemetry()
        lfi = self._controller(libc_profiles_linux, plan, tele)
        proc = lfi.make_process(Kernel(), [libc_linux.image])
        fd, buf = self._file_with_content(proc, "/f", b"hello world!")
        assert proc.libcall("read", fd, buf, 12) == 4
        assert proc.mem_read(buf, 4) == b"hell"
        # the next read is untouched and picks up where the short one
        # left off — exactly how a real short read behaves
        assert proc.libcall("read", fd, buf, 12) == 8
        assert _metric_total(tele, "repro_partial_io_bytes_total") == 8

    def test_partial_write_clamps_count(self, libc_linux,
                                        libc_profiles_linux):
        plan = Plan()
        plan.add(FunctionTrigger(
            function="write", mode="nth", nth=1,
            actions=(PartialWriteFault(fraction=0.5),)))
        lfi = self._controller(libc_profiles_linux, plan)
        proc = lfi.make_process(Kernel(), [libc_linux.image])
        fd = proc.libcall("open", proc.cstr("/f"), O_CREAT | O_RDWR,
                          0o644)
        buf = proc.scratch_alloc(64)
        proc.mem_write(buf, b"hello world!")
        assert proc.libcall("write", fd, buf, 12) == 6
        assert lfi.injections == 1

    def test_path_scoped_return_fault(self, libc_linux,
                                      libc_profiles_linux):
        plan = Plan()
        plan.add(FunctionTrigger(function="close", mode="always",
                                 actions=(ReturnFault(-1, "EIO"),),
                                 scope=TargetScope(path="/b*")))
        lfi = self._controller(libc_profiles_linux, plan)
        proc = lfi.make_process(Kernel(), [libc_linux.image])
        fa = proc.libcall("open", proc.cstr("/aa"), O_CREAT | O_RDWR,
                          0o644)
        fb = proc.libcall("open", proc.cstr("/bb"), O_CREAT | O_RDWR,
                          0o644)
        assert proc.libcall("close", fa) == 0
        assert proc.libcall("close", fb) == -1
        assert proc.libcall("__errno") == errno_number("EIO")
        assert lfi.injections == 1

    def test_path_scope_matches_pathname_first_arg(self, libc_linux,
                                                   libc_profiles_linux):
        """open() takes the path directly; the scope resolver reads it
        through the pointer argument."""
        plan = Plan()
        plan.add(FunctionTrigger(function="open", mode="always",
                                 actions=(ReturnFault(-1, "EACCES"),),
                                 scope=TargetScope(path="/secret*")))
        lfi = self._controller(libc_profiles_linux, plan)
        proc = lfi.make_process(Kernel(), [libc_linux.image])
        ok = proc.libcall("open", proc.cstr("/public"),
                          O_CREAT | O_RDWR, 0o644)
        assert ok >= 0
        denied = proc.libcall("open", proc.cstr("/secret-key"),
                              O_CREAT | O_RDWR, 0o644)
        assert denied == -1
        assert proc.libcall("__errno") == errno_number("EACCES")

    def test_delay_replay_roundtrip(self, libc_linux,
                                    libc_profiles_linux):
        """A logged delay injection reconstructs through its token."""
        plan = Plan()
        plan.add(FunctionTrigger(function="read", mode="nth", nth=1,
                                 actions=(DelayFault(250_000),)))
        lfi = self._controller(libc_profiles_linux, plan)
        proc = lfi.make_process(Kernel(), [libc_linux.image])
        fd, buf = self._file_with_content(proc, "/f", b"abcd")
        proc.libcall("read", fd, buf, 4)
        records = lfi.logbook.records
        assert records and records[-1].action == "delay:250000"
        replay = build_replay_plan(records)
        assert replay.triggers[0].actions == (DelayFault(250_000),)
        assert replay.triggers[0].nth == 1


class TestCaseEnumeration:
    def test_default_is_return_only(self, libc_profiles_linux):
        cases = enumerate_cases(libc_profiles_linux,
                                functions=["read", "close"])
        assert cases
        assert all(isinstance(c.code, ReturnFault) for c in cases)
        assert all(isinstance(c, FaultCase) for c in cases)

    def test_delay_class_adds_one_case_per_function(
            self, libc_profiles_linux):
        cases = enumerate_cases(libc_profiles_linux,
                                functions=["read", "close"],
                                fault_classes=("delay",),
                                latency_ns=2_000_000)
        assert {c.function for c in cases} == {"read", "close"}
        assert all(c.code == DelayFault(2_000_000) for c in cases)

    def test_partial_io_gated_to_io_functions(self, libc_profiles_linux):
        cases = enumerate_cases(
            libc_profiles_linux,
            functions=["read", "write", "close"],
            fault_classes=("short-read", "partial-write"),
            fraction=0.25)
        kinds = {(c.function, type(c.code).__name__) for c in cases}
        assert kinds == {("read", "ShortReadFault"),
                         ("write", "PartialWriteFault")}

    def test_unknown_class_rejected(self, libc_profiles_linux):
        with pytest.raises(ValueError, match="unknown fault class"):
            enumerate_cases(libc_profiles_linux, fault_classes=("warp",))
        assert "return" in FAULT_CLASSES

    def test_fail_rate_makes_cases_probabilistic(self,
                                                 libc_profiles_linux):
        cases = enumerate_cases(libc_profiles_linux, functions=["read"],
                                fault_classes=("delay",),
                                fail_rate=0.2)
        assert all(isinstance(c, PlanCase) for c in cases)
        case = cases[0]
        assert "~p0.2" in case.case_id()
        plan = case.plan()
        assert plan.seed is not None
        [trigger] = plan.triggers
        assert (trigger.mode, trigger.probability) == ("random", 0.2)
        assert (case.function, case.code) == ("read", trigger.actions[0])
        # re-enumeration derives the identical recorded seed
        again = enumerate_cases(libc_profiles_linux, functions=["read"],
                                fault_classes=("delay",),
                                fail_rate=0.2)[0]
        assert again.plan().seed == plan.seed

    def test_deterministic_case_plan_shape_is_legacy(self,
                                                     libc_profiles_linux):
        case = enumerate_cases(libc_profiles_linux,
                               functions=["close"])[0]
        assert case.case_id().startswith("close@1=")
        plan = case.plan()
        assert plan.seed is None
        assert plan.triggers[0].mode == "nth"

    def test_fail_rate_cases_keep_the_8_0_ids_seeds_and_keys(
            self, libc_profiles_linux):
        """A journal of 8.0 fail-rate cases resumes only while every
        case keeps its id, recorded seed and case key (the digest of its
        plan XML)."""
        cases = enumerate_cases(libc_profiles_linux,
                                fault_classes=FAULT_CLASSES,
                                fail_rate=0.3)
        assert len(cases) > 40
        for case in cases:
            old = ReferenceFailRateCase(case.function, case.code, 0.3)
            assert case.case_id() == old.case_id()
            assert case.plan().seed == old.effective_seed()
            assert case_digest(case) == case_digest(old), case.case_id()
        # as 8.0 computed them, whatever derive_plan_seed does now
        pinned = {
            ("read", ErrorCode(-1, "EIO"), 0.3): (
                "read@1=-1/EIO~p0.3", 2781768024, "74fe1a29d319487e"),
            ("write", DelayFault(1_000_000), 0.05): (
                "write@1=delay1000000ns~p0.05", 2163004416,
                "f82b6f7585828a0a"),
            ("read", ShortReadFault(fraction=0.5), 0.3): (
                "read@1=short-read0.5x~p0.3", 2181446205,
                "942120132b028800"),
        }
        for args, (case_id, seed, key) in pinned.items():
            case = fail_rate_case(*args)
            assert (case.case_id(), case.plan().seed,
                    case_digest(case)[:16]) == (case_id, seed, key)

    def test_a_cell_builds_its_plan_once(self):
        """The case key and the controller read one plan; a cell crosses
        a worker's pipe as its fields and builds an equal plan there."""
        case = FaultCase("read", ErrorCode(-1, "EIO"), 2)
        plan = case.plan()
        assert case.plan() is plan
        copy = pickle.loads(pickle.dumps(case))
        assert copy == case and "_plan" not in vars(copy)
        assert plan_to_xml(copy.plan()) == plan_to_xml(plan)
