"""Compiled trigger evaluation against the per-trigger reference.

``TriggerEngine`` compiles each function's triggers once and evaluates
runs of plain random triggers as a tight loop of RNG draws.  The
reference below is the engine's previous evaluation loop, kept verbatim:
it checks every trigger in turn.  Over generated plans and call streams,
both must agree after every call on the ordinal, the decision, the
evaluation and firing counters, dormancy, and the RNG state.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core.controller.triggers import (NEVER_ORDINAL, Decision, Frame,
                                            ScopeResolver, TriggerEngine,
                                            trigger_horizon)
from repro.core.profiles import ArgCondition
from repro.core.scenario import (INJECT_ALWAYS, INJECT_EXHAUSTIVE,
                                 INJECT_NTH, INJECT_ORDINALS, INJECT_RANDOM,
                                 ArgModification, DelayFault, FrameSpec,
                                 FunctionTrigger, Plan, ReturnFault)
from repro.core.scenario.model import Action, TargetScope

FUNCTIONS = ("read", "write", "open", "close")
NAMES = ("main", "helper", "flush")
ADDRS = (0x1000, 0x2000, 0x3000)


class ReferenceEngine:
    """The per-trigger evaluation loop, as it was before compilation."""

    def __init__(self, plan: Plan, rng: random.Random) -> None:
        self.rng = rng
        self.call_counts: Dict[str, int] = {}
        self._rotation: Dict[int, int] = {}
        self._by_function: Dict[str, List[Tuple[int, FunctionTrigger]]] = {}
        for index, trigger in enumerate(plan.triggers):
            self._by_function.setdefault(trigger.function, []).append(
                (index, trigger))
        self.evaluations = 0
        self.firings = 0

    def can_still_fire(self, function: str) -> bool:
        count = self.call_counts.get(function, 0)
        for _index, trigger in self._by_function.get(function, ()):
            horizon = trigger_horizon(trigger)
            if horizon is None:
                return True
            if count < horizon < NEVER_ORDINAL:
                return True
        return False

    def prefix_evaluations(self, prefix_calls: Dict[str, int]
                           ) -> Dict[str, int]:
        prefix_evals: Dict[str, int] = {}
        for function, triggers in self._by_function.items():
            calls = prefix_calls.get(function, 0)
            live_calls = 0
            for _index, trigger in triggers:
                horizon = trigger_horizon(trigger)
                if horizon is None:
                    live_calls = calls
                    break
                if horizon < NEVER_ORDINAL:
                    live_calls = max(live_calls, min(calls, horizon))
            if live_calls:
                prefix_evals[function] = live_calls * len(triggers)
        return prefix_evals

    def on_call(self, function: str, frames: Sequence[Frame],
                args: Sequence[int] = (),
                scope_resolver: Optional[ScopeResolver] = None,
                ) -> Tuple[int, Optional[Decision]]:
        count = self.call_counts.get(function, 0) + 1
        self.call_counts[function] = count
        for index, trigger in self._by_function.get(function, ()):
            self.evaluations += 1
            if not self._fires(trigger, count, frames, args,
                               scope_resolver):
                continue
            self.firings += 1
            return count, Decision(
                trigger=trigger,
                action=self._select_action(index, trigger),
                calloriginal=trigger.calloriginal,
                modifications=trigger.modifications)
        return count, None

    def _fires(self, trigger: FunctionTrigger, count: int,
               frames: Sequence[Frame],
               args: Sequence[int] = (),
               scope_resolver: Optional[ScopeResolver] = None) -> bool:
        if trigger.mode == INJECT_NTH and count != trigger.nth:
            return False
        if trigger.mode == INJECT_ORDINALS \
                and count not in trigger.ordinals:
            return False
        if trigger.scope is not None and not self._scope_matches(
                trigger, args, scope_resolver):
            return False
        if trigger.mode == INJECT_RANDOM \
                and self.rng.random() >= trigger.probability:
            return False
        if trigger.stacktrace and not self._stack_matches(
                trigger, frames):
            return False
        for cond in trigger.argconds:
            if cond.arg_index >= len(args) \
                    or not cond.holds(args[cond.arg_index]):
                return False
        return True

    @staticmethod
    def _scope_matches(trigger: FunctionTrigger, args: Sequence[int],
                       scope_resolver: Optional[ScopeResolver]) -> bool:
        if not args:
            return False
        fd = args[0]
        path: Optional[str] = None
        peer: Optional[int] = None
        if scope_resolver is not None:
            path, peer = scope_resolver(fd)
        return trigger.scope.matches(fd=fd, path=path, peer=peer)

    @staticmethod
    def _stack_matches(trigger: FunctionTrigger,
                       frames: Sequence[Frame]) -> bool:
        if len(trigger.stacktrace) > len(frames):
            return False
        for spec, (addr, name) in zip(trigger.stacktrace, frames):
            if not spec.matches(addr, name):
                return False
        return True

    def _select_action(self, index: int,
                       trigger: FunctionTrigger) -> Optional[Action]:
        if not trigger.actions:
            return None
        if trigger.mode == INJECT_EXHAUSTIVE:
            rotation = self._rotation.get(index, 0)
            self._rotation[index] = rotation + 1
            return trigger.actions[rotation % len(trigger.actions)]
        if trigger.mode == INJECT_RANDOM and len(trigger.actions) > 1:
            return trigger.actions[self.rng.randrange(len(trigger.actions))]
        return trigger.actions[0]


# -- generators ---------------------------------------------------------------


def _resolver(fd: int) -> Tuple[Optional[str], Optional[int]]:
    return (f"/data/{fd}.db" if fd % 3 else None), 8000 + fd % 4


def _random_trigger(rng: random.Random, function: str) -> FunctionTrigger:
    mode = rng.choice((INJECT_RANDOM, INJECT_RANDOM, INJECT_RANDOM,
                       INJECT_NTH, INJECT_ORDINALS, INJECT_EXHAUSTIVE,
                       INJECT_ALWAYS))
    kwargs = {}
    if mode == INJECT_NTH:
        kwargs["nth"] = rng.choice((1, 2, 3, 5, 8, NEVER_ORDINAL))
    elif mode == INJECT_ORDINALS:
        kwargs["ordinals"] = tuple(rng.sample(range(1, 12),
                                              rng.randint(1, 3)))
    elif mode == INJECT_RANDOM:
        kwargs["probability"] = rng.choice((1e-9, 0.05, 0.2, 0.5, 1.0))
    actions = [ReturnFault(-1, "EIO"), ReturnFault(-2, "EBADF"),
               DelayFault(1000)]
    rng.shuffle(actions)
    plain = rng.random() < 0.5
    if not plain and rng.random() < 0.3:
        kwargs["scope"] = rng.choice((
            TargetScope(fd=rng.randint(0, 5)), TargetScope(path="/data/1*"),
            TargetScope(peer=8001), TargetScope(fd=4, peer=8000)))
    if not plain and rng.random() < 0.3:
        kwargs["stacktrace"] = tuple(
            FrameSpec(rng.choice((hex(rng.choice(ADDRS)),
                                  rng.choice(NAMES))))
            for _ in range(rng.randint(1, 2)))
    if not plain and rng.random() < 0.3:
        kwargs["argconds"] = tuple(
            ArgCondition(rng.randint(0, 3), rng.choice(("==", "<", ">=")),
                         rng.randint(0, 5))
            for _ in range(rng.randint(1, 2)))
    if rng.random() < 0.2:
        kwargs["modifications"] = (ArgModification(2, "add", 1),)
    return FunctionTrigger(
        function=function, mode=mode,
        actions=actions[:rng.randint(0, 3)],
        calloriginal=rng.random() < 0.5, **kwargs)


def _random_plan(rng: random.Random, seed: int) -> Plan:
    plan = Plan(seed=seed)
    for function in rng.sample(FUNCTIONS, rng.randint(1, 3)):
        for _ in range(rng.randint(1, 8)):
            plan.add(_random_trigger(rng, function))
    rng.shuffle(plan.triggers)
    return plan


def _random_call(rng: random.Random):
    function = rng.choice(FUNCTIONS)
    frames = [(rng.choice(ADDRS), rng.choice(NAMES + (None,)))
              for _ in range(rng.randint(0, 3))]
    args = [rng.randint(0, 5) for _ in range(rng.randint(0, 4))]
    return function, frames, args, rng.choice((_resolver, None))


def _assert_same(engine: TriggerEngine, ref: ReferenceEngine,
                 got, want) -> None:
    (count, decision), (ref_count, ref_decision) = got, want
    assert count == ref_count
    assert decision == ref_decision
    if decision is not None:
        assert decision.trigger is ref_decision.trigger
    assert engine.evaluations == ref.evaluations
    assert engine.firings == ref.firings
    assert engine.call_counts == ref.call_counts
    assert engine.rng.getstate() == ref.rng.getstate()
    for function in FUNCTIONS:
        assert engine.can_still_fire(function) == \
            ref.can_still_fire(function)


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("block", range(8))
def test_compiled_engine_matches_reference(block):
    """240 generated plans, 60 generated calls each."""
    for plan_index in range(30):
        rng = random.Random(block * 1000 + plan_index)
        plan = _random_plan(rng, seed=plan_index)
        engine = TriggerEngine(plan, random.Random(plan.seed))
        ref = ReferenceEngine(plan, random.Random(plan.seed))
        for _ in range(60):
            function, frames, args, resolver = _random_call(rng)
            _assert_same(engine, ref,
                         engine.on_call(function, frames, args, resolver),
                         ref.on_call(function, frames, args, resolver))


@pytest.mark.parametrize("seed", range(40))
def test_reassigned_call_counts_match_reference(seed):
    """Snapshot replay swaps in the checkpoint's call counts mid-stream;
    the compiled engine must read them live."""
    rng = random.Random(seed)
    plan = _random_plan(rng, seed=seed)
    engine = TriggerEngine(plan, random.Random(seed))
    ref = ReferenceEngine(plan, random.Random(seed))
    for step in range(80):
        if step in (20, 50):
            counts = {function: rng.randint(0, 12)
                      for function in rng.sample(FUNCTIONS, 2)}
            engine.call_counts = dict(counts)
            ref.call_counts = dict(counts)
            assert engine.prefix_evaluations(counts) == \
                ref.prefix_evaluations(counts)
        function, frames, args, resolver = _random_call(rng)
        _assert_same(engine, ref,
                     engine.on_call(function, frames, args, resolver),
                     ref.on_call(function, frames, args, resolver))


def test_passthrough_run_draws_once_per_trigger():
    """The plain-random fast path consumes the RNG exactly like the
    per-trigger loop: one draw per evaluated trigger."""
    plan = Plan(seed=7)
    for _ in range(77):
        plan.add(FunctionTrigger(function="read", mode=INJECT_RANDOM,
                                 probability=1e-9,
                                 actions=(ReturnFault(-1, "EIO"),),
                                 calloriginal=True))
    engine = TriggerEngine(plan, random.Random(7))
    ref = random.Random(7)
    for _ in range(10):
        assert engine.on_call("read", ())[1] is None
    for _ in range(770):
        ref.random()
    assert engine.evaluations == 770
    assert engine.rng.getstate() == ref.getstate()
    assert engine.can_still_fire("read")
