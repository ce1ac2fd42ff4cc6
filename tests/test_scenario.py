"""Fault scenarios: model validation, the XML language, generators."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.scenario import (INJECT_EXHAUSTIVE, INJECT_NTH,
                                 INJECT_RANDOM, ArgModification, ErrorCode,
                                 FrameSpec, FunctionTrigger, Plan,
                                 error_codes_from_profile, exhaustive_plan,
                                 file_io_faults, io_faults, memory_faults,
                                 passthrough_plan, plan_from_xml,
                                 plan_to_xml, random_plan, socket_io_faults)
from repro.errors import ScenarioError

PAPER_EXAMPLE = """
<plan>
  <function name="readdir64" inject="5" retval="0"
            errno="EBADF" calloriginal="false" />
  <function name="readdir" inject="5" retval="0"
            errno="EBADF" calloriginal="false">
    <stacktrace>
      <frame>0xb824490</frame>
      <frame>refresh_files</frame>
    </stacktrace>
  </function>
  <function name="read" inject="20" calloriginal="true">
    <modify argument="3" op="sub" value="10" />
  </function>
</plan>
"""


class TestModel:
    def test_nth_requires_positive(self):
        with pytest.raises(ScenarioError):
            FunctionTrigger(function="f", mode=INJECT_NTH, nth=0)

    def test_random_requires_probability(self):
        with pytest.raises(ScenarioError):
            FunctionTrigger(function="f", mode=INJECT_RANDOM,
                            probability=0.0)

    def test_bad_mode(self):
        with pytest.raises(ScenarioError):
            FunctionTrigger(function="f", mode="sometimes")

    def test_modification_ops(self):
        assert ArgModification(1, "sub", 10).apply(30) == 20
        assert ArgModification(1, "add", 5).apply(30) == 35
        assert ArgModification(1, "set", 7).apply(30) == 7

    def test_modification_validation(self):
        with pytest.raises(ScenarioError):
            ArgModification(0, "sub", 1)
        with pytest.raises(ScenarioError):
            ArgModification(1, "xor", 1)

    def test_frame_spec_matches_address_or_name(self):
        assert FrameSpec("0xb824490").matches(0xB824490, None)
        assert not FrameSpec("0xb824490").matches(0xB824491, None)
        assert FrameSpec("refresh_files").matches(0, "refresh_files")
        assert not FrameSpec("refresh_files").matches(0, "other")

    def test_frame_spec_is_built_as_xml_reads_it_back(self):
        """A frame's value is normalized where the frame is built: LF
        line ends and no surrounding space, as the XML reader gives it
        back."""
        assert FrameSpec(" \r\nrefresh_files\r ").value == "refresh_files"
        assert FrameSpec("a\r\nb\rc").value == "a\nb\nc"
        assert FrameSpec(" 0x10\n").matches(0x10, None)

    def test_plan_functions_dedup_ordered(self):
        plan = Plan()
        for name in ("b", "a", "b"):
            plan.add(FunctionTrigger(function=name))
        assert plan.functions() == ["b", "a"]
        assert plan.trigger_count() == 3
        assert len(plan.triggers_for("b")) == 2


class TestXmlLanguage:
    def test_paper_example_parses(self):
        plan = plan_from_xml(PAPER_EXAMPLE)
        assert plan.trigger_count() == 3
        first = plan.triggers[0]
        assert first.function == "readdir64"
        assert first.mode == INJECT_NTH and first.nth == 5
        assert first.codes == (ErrorCode(0, "EBADF"),)
        assert first.calloriginal is False

        second = plan.triggers[1]
        assert [f.value for f in second.stacktrace] == \
            ["0xb824490", "refresh_files"]

        third = plan.triggers[2]
        assert third.calloriginal is True
        assert third.modifications == (ArgModification(3, "sub", 10),)
        assert third.codes == ()

    def test_roundtrip(self):
        plan = plan_from_xml(PAPER_EXAMPLE)
        again = plan_from_xml(plan_to_xml(plan))
        assert again.triggers == plan.triggers

    def test_multi_code_roundtrip(self):
        plan = Plan(seed=7)
        plan.add(FunctionTrigger(
            function="write", mode=INJECT_RANDOM, probability=0.25,
            actions=(ErrorCode(-1, "EIO"), ErrorCode(-1, "ENOSPC"))))
        again = plan_from_xml(plan_to_xml(plan))
        assert again.seed == 7
        assert again.triggers[0].probability == 0.25
        assert again.triggers[0].codes == plan.triggers[0].codes

    def test_exhaustive_mode_roundtrip(self):
        plan = Plan()
        plan.add(FunctionTrigger(function="close", mode=INJECT_EXHAUSTIVE,
                                 actions=(ErrorCode(-1, "EBADF"),)))
        again = plan_from_xml(plan_to_xml(plan))
        assert again.triggers[0].mode == INJECT_EXHAUSTIVE

    def test_bad_root(self):
        with pytest.raises(ScenarioError):
            plan_from_xml("<profile/>")

    def test_missing_name(self):
        with pytest.raises(ScenarioError):
            plan_from_xml('<plan><function inject="1"/></plan>')

    def test_bad_inject(self):
        with pytest.raises(ScenarioError):
            plan_from_xml('<plan><function name="f" inject="soon"/></plan>')


class TestGenerators:
    def test_exhaustive_covers_profiled_errors(self, libc_profiles_linux):
        plan = exhaustive_plan(libc_profiles_linux)
        by_name = {t.function: t for t in plan.triggers}
        assert "close" in by_name
        close = by_name["close"]
        assert close.mode == INJECT_EXHAUSTIVE
        errnos = {c.errno for c in close.codes if c.retval == -1}
        assert {"EBADF", "EIO", "EINTR"} <= errnos

    def test_exhaustive_skips_functions_without_errors(
            self, libc_profiles_linux):
        plan = exhaustive_plan(libc_profiles_linux)
        assert "memset" not in plan.functions()

    def test_random_plan_probability(self, libc_profiles_linux):
        plan = random_plan(libc_profiles_linux, probability=0.1, seed=3)
        assert plan.seed == 3
        assert all(t.mode == INJECT_RANDOM and t.probability == 0.1
                   for t in plan.triggers)

    def test_function_subset_restriction(self, libc_profiles_linux):
        plan = random_plan(libc_profiles_linux, probability=0.5,
                           functions=["read", "write"])
        assert set(plan.functions()) == {"read", "write"}

    def test_passthrough_plan_multiplicity(self):
        plan = passthrough_plan({"read": [ErrorCode(-1, "EIO")]},
                                per_function=3)
        assert plan.trigger_count() == 3
        assert all(t.calloriginal for t in plan.triggers)

    def test_error_codes_from_profile_maps_errno_names(
            self, libc_profile_linux):
        codes = error_codes_from_profile(libc_profile_linux.function("close"))
        assert ErrorCode(-1, "EBADF") in codes

    def test_presets_cover_their_families(self, libc_profile_linux):
        io_plan = file_io_faults(libc_profile_linux)
        assert "open" in io_plan.functions()
        assert "socket" not in io_plan.functions()

        mem_plan = memory_faults(libc_profile_linux)
        assert set(mem_plan.functions()) <= {"malloc", "calloc", "realloc"}
        assert "malloc" in mem_plan.functions()

        sock_plan = socket_io_faults(libc_profile_linux)
        assert "connect" in sock_plan.functions()

        pidgin_plan = io_faults(libc_profile_linux, probability=0.1, seed=1)
        assert "write" in pidgin_plan.functions()
        assert all(t.probability == 0.1 for t in pidgin_plan.triggers)


# -- property-based round-trip over the whole language ----------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiles import ArgCondition
from repro.core.scenario import INJECT_NTH
from repro.core.scenario.model import (DelayFault, PartialWriteFault,
                                       ShortReadFault, TargetScope)

from .plan_xml_reference import reference_plan_to_xml

#: every character the writer escapes, in attributes or in text
_SPECIAL = '&<>"\r\n\t'
_TEXT = st.text(alphabet="abcdefgh_ ./*" + _SPECIAL, min_size=1,
                max_size=12)
_NAMES = st.one_of(st.text(alphabet="abcdefgh_", min_size=1, max_size=10),
                   _TEXT)
_ERRNOS = st.one_of(st.sampled_from([None, "EIO", "EBADF", "ENOSPC",
                                     "EINTR"]), _TEXT)
_RELOPS = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])

_code = st.builds(ErrorCode, st.integers(-100, 100), _ERRNOS)
_delay = st.builds(DelayFault, st.integers(1, 10 ** 12))


def _partial_io(cls):
    return st.one_of(
        st.builds(cls, max_bytes=st.integers(0, 1 << 16),
                  argument=st.integers(1, 6)),
        st.builds(cls, fraction=st.floats(0.001, 0.999),
                  argument=st.integers(1, 6)))


_action = st.one_of(_code, _delay, _partial_io(ShortReadFault),
                    _partial_io(PartialWriteFault))
_frame = st.one_of(
    st.builds(FrameSpec, _NAMES),
    st.integers(0, 0xFFFFFFF).map(lambda a: FrameSpec(hex(a))),
    st.just(FrameSpec("")),
)
_mod = st.builds(ArgModification,
                 argument=st.integers(1, 6),
                 op=st.sampled_from(["add", "sub", "set"]),
                 value=st.integers(-1000, 1000))
_argcond = st.builds(ArgCondition,
                     arg_index=st.integers(0, 5),
                     relop=_RELOPS,
                     value=st.integers(-1000, 1000))


@st.composite
def _scope(draw):
    fd = draw(st.one_of(st.none(), st.integers(0, 64)))
    path = draw(st.one_of(st.none(), _TEXT))
    peer = draw(st.one_of(st.none(), st.integers(1, 65535)))
    if fd is None and path is None and peer is None:
        fd = 3
    return TargetScope(fd=fd, path=path, peer=peer)


@st.composite
def _trigger(draw):
    mode = draw(st.sampled_from(["nth", "always", "random", "exhaustive",
                                 "ordinals"]))
    return FunctionTrigger(
        function=draw(_NAMES),
        mode=mode,
        nth=draw(st.integers(1, 50)) if mode == "nth" else 0,
        probability=(draw(st.floats(0.01, 1.0)) if mode == "random"
                     else 0.0),
        ordinals=(draw(st.lists(st.integers(1, 50), min_size=1,
                                max_size=4))
                  if mode == "ordinals" else ()),
        actions=tuple(draw(st.lists(_action, max_size=4))),
        calloriginal=draw(st.booleans()),
        stacktrace=tuple(draw(st.lists(_frame, max_size=3))),
        modifications=tuple(draw(st.lists(_mod, max_size=2))),
        argconds=tuple(draw(st.lists(_argcond, max_size=2))),
        scope=draw(st.one_of(st.none(), _scope())),
    )


@given(triggers=st.lists(_trigger(), max_size=6),
       seed=st.one_of(st.none(), st.integers(0, 1 << 31)),
       name=st.one_of(st.just("scenario"), _TEXT))
@example(triggers=[FunctionTrigger(
    "readdir", mode=INJECT_NTH, nth=5, actions=(ErrorCode(0),),
    stacktrace=(FrameSpec(" "), FrameSpec("a\rb ")))], seed=1,
    name="scenario")
@settings(max_examples=200, deadline=None)
def test_property_plan_language_roundtrip(triggers, seed, name):
    plan = Plan(seed=seed, name=name)
    for trigger in triggers:
        plan.add(trigger)
    text = plan_to_xml(plan)
    # case keys and journaled replay scripts are this text: it must be
    # what the ElementTree writer gave, byte for byte
    assert text == reference_plan_to_xml(plan)
    again = plan_from_xml(text)
    # a plan read back from a replay script keeps the case key of the
    # plan that ran
    assert plan_to_xml(again) == text
    assert again.seed == plan.seed
    assert again.name == plan.name
    assert len(again.triggers) == len(plan.triggers)
    for orig, parsed in zip(plan.triggers, again.triggers):
        assert parsed.function == orig.function
        if orig.mode == "ordinals" and len(orig.ordinals) == 1:
            # inject="5" is the one-ordinal set and the 5th call alike
            assert (parsed.mode, parsed.nth) == ("nth", orig.ordinals[0])
        else:
            assert parsed.mode == orig.mode
            assert parsed.nth == orig.nth
            assert parsed.ordinals == orig.ordinals
        assert parsed.probability == orig.probability
        assert parsed.actions == orig.actions
        assert parsed.codes == orig.codes
        assert parsed.calloriginal == orig.calloriginal
        assert parsed.scope == orig.scope
        assert parsed.stacktrace == orig.stacktrace
        assert parsed.modifications == orig.modifications
        assert parsed.argconds == orig.argconds


def test_reader_keeps_action_order():
    """An exhaustive trigger rotates through its actions in order, so a
    round trip must not regroup them by kind; the retval shorthand of
    hand-written XML comes first."""
    plan = Plan(seed=3)
    plan.add(FunctionTrigger("read", mode=INJECT_EXHAUSTIVE,
                             actions=(DelayFault(5), ErrorCode(-1, "EIO"),
                                      ShortReadFault(fraction=0.5),
                                      ErrorCode(-1, "EINTR"))))
    text = plan_to_xml(plan)
    assert plan_from_xml(text).triggers[0].actions == \
        plan.triggers[0].actions
    assert plan_to_xml(plan_from_xml(text)) == text
    [trigger] = plan_from_xml(
        '<plan><function name="read" inject="exhaustive" retval="-1" '
        'errno="EIO"><delay ns="5" /><code retval="-2" errno="EINTR" />'
        '</function></plan>').triggers
    assert trigger.actions == (ErrorCode(-1, "EIO"), DelayFault(5),
                               ErrorCode(-2, "EINTR"))


def test_writer_matches_reference_on_every_element():
    """One plan with every element, attribute and escaped character."""
    special = 'a&b<c>d"e\rf\ng\th'
    plan = Plan(name=special, seed=7)
    plan.add(FunctionTrigger(
        special, mode="ordinals", ordinals=(3, 5),
        actions=(ErrorCode(-1, special), DelayFault(5),
                 ShortReadFault(max_bytes=3),
                 PartialWriteFault(fraction=0.5, argument=2)),
        calloriginal=True,
        stacktrace=(FrameSpec(special), FrameSpec(""), FrameSpec("  ")),
        modifications=(ArgModification(1, "add", 5),),
        argconds=(ArgCondition(0, "<=", 3),),
        scope=TargetScope(fd=3, path=special, peer=80)))
    plan.add(FunctionTrigger("x", mode="random", probability=0.25))
    plan.add(FunctionTrigger("y", actions=(ErrorCode(0, ""),)))
    plan.add(FunctionTrigger("z", mode=INJECT_NTH, nth=2,
                             actions=(ErrorCode(-1, "EIO"),)))
    for each in (plan, Plan(), Plan(name="", seed=0)):
        assert plan_to_xml(each) == reference_plan_to_xml(each)


class TestDerivedSeeds:
    """Unseeded random plans must still be reproducible: the default
    seed is derived from the plan's content and recorded in its XML."""

    def test_unseeded_random_plan_gets_concrete_seed(
            self, libc_profiles_linux):
        plan = random_plan(libc_profiles_linux, probability=0.1)
        assert isinstance(plan.seed, int)
        again = random_plan(libc_profiles_linux, probability=0.1)
        assert again.seed == plan.seed          # same content, same seed
        other = random_plan(libc_profiles_linux, probability=0.2)
        assert other.seed != plan.seed          # new content, new seed

    def test_explicit_seed_wins(self, libc_profiles_linux):
        plan = random_plan(libc_profiles_linux, probability=0.1, seed=7)
        assert plan.seed == 7

    def test_derived_seed_round_trips_through_xml(
            self, libc_profiles_linux):
        plan = random_plan(libc_profiles_linux, probability=0.1)
        again = plan_from_xml(plan_to_xml(plan))
        assert again.seed == plan.seed

    def test_random_presets_are_seeded(self, libc_profile_linux):
        plan = io_faults(libc_profile_linux, probability=0.1)
        assert isinstance(plan.seed, int)
        assert plan.seed == io_faults(libc_profile_linux,
                                      probability=0.1).seed
        # exhaustive presets use no RNG, so they stay unseeded
        assert file_io_faults(libc_profile_linux).seed is None

    def test_controller_test_event_carries_the_seed(
            self, libc_profiles_linux):
        from repro.core.controller import Controller
        from repro.core.scenario import random_plan as rp
        from repro.obs import MemorySink, Telemetry
        from repro.platform import LINUX_X86

        sink = MemorySink()
        plan = rp(libc_profiles_linux, probability=0.1,
                  functions=["close"])
        lfi = Controller(LINUX_X86, libc_profiles_linux, plan,
                         telemetry=Telemetry(sinks=[sink]))
        lfi.run_test(lambda: 0)
        (event,) = [e for e in sink.events if e.kind == "test"]
        assert event.fields["seed"] == plan.seed


class TestProbabilityErrors:
    """The builder and the XML parser must agree: a random trigger
    without a usable probability is a ScenarioError naming the
    offending function, whichever path built it."""

    def test_builder_names_the_function(self):
        with pytest.raises(ScenarioError,
                           match="random trigger for 'fsync'"):
            FunctionTrigger(function="fsync", mode=INJECT_RANDOM,
                            probability=0.0)

    def test_xml_missing_probability_names_the_function(self):
        with pytest.raises(ScenarioError,
                           match="random trigger for 'fsync'.*probability"):
            plan_from_xml(
                '<plan><function name="fsync" inject="random"/></plan>')

    def test_xml_zero_probability_names_the_function(self):
        with pytest.raises(ScenarioError,
                           match="random trigger for 'fsync'"):
            plan_from_xml('<plan><function name="fsync" inject="random"'
                          ' probability="0.0"/></plan>')

    def test_xml_unparsable_probability_names_the_function(self):
        with pytest.raises(ScenarioError,
                           match="random trigger for 'fsync'.*'lots'"):
            plan_from_xml('<plan><function name="fsync" inject="random"'
                          ' probability="lots"/></plan>')

    def test_nth_error_names_the_function_too(self):
        with pytest.raises(ScenarioError,
                           match="nth-call trigger for 'read'"):
            FunctionTrigger(function="read", mode=INJECT_NTH, nth=0)
