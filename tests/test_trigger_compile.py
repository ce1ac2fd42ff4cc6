"""Compiled trigger evaluation against the per-trigger reference.

``TriggerEngine`` compiles each function's triggers once, counts random
triggers down lazily and skips dormant calls.  The reference below is
written plainly: on every call it checks every trigger in turn, and a
random trigger decrements its own countdown whenever a check reaches
its roll.  Over generated plans and call streams, both must agree
after every call on the ordinal, the decision, the evaluation and
firing counters, the call counts, the RNG state and dormancy.  The
dormant-call rule has two copies, ``TriggerEngine.dormant_call`` and
the stub crossing's ``Injector.bypass``; the streams interleave both.

The countdown rule replaced a Bernoulli roll per call; the statistical
tests at the end hold the two to the same distribution.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core.controller import Injector, Logbook
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


def _countdown(rng: random.Random, probability: float) -> int:
    """Evaluations until a trigger of this probability fires: one draw,
    geometric on 1, 2, ..."""
    u = rng.random()
    if probability >= 1.0:
        return 1
    return 1 + math.floor(math.log(1.0 - u) / math.log1p(-probability))


def _plain_random(trigger: FunctionTrigger) -> bool:
    return trigger.mode == INJECT_RANDOM and trigger.scope is None \
        and not trigger.stacktrace and not trigger.argconds


class ReferenceEngine:
    """Every trigger checked in turn on every call; each random trigger
    holds its countdown and decrements it when a check reaches its
    roll.  Evaluations count only on calls that are not dormant."""

    def __init__(self, plan: Plan, rng: random.Random) -> None:
        self.rng = rng
        self.call_counts: Dict[str, int] = {}
        self._rotation: Dict[int, int] = {}
        self._by_function: Dict[str, List[Tuple[int, FunctionTrigger]]] = {}
        self.countdown: Dict[int, int] = {}
        for index, trigger in enumerate(plan.triggers):
            self._by_function.setdefault(trigger.function, []).append(
                (index, trigger))
            if trigger.mode == INJECT_RANDOM:
                self.countdown[index] = _countdown(rng, trigger.probability)
        self.evaluations = 0
        self.firings = 0

    def dormancy(self, function: str) -> float:
        triggers = self._by_function.get(function, ())
        if not triggers:
            return math.inf
        if all(_plain_random(trigger) for _index, trigger in triggers):
            return min(self.countdown[index]
                       for index, _trigger in triggers) - 1
        count = self.call_counts.get(function, 0)
        for _index, trigger in triggers:
            horizon = trigger_horizon(trigger)
            if horizon is None or count < horizon < NEVER_ORDINAL:
                return 0
        return math.inf

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
        dormant = self.dormancy(function) > 0
        count = self.call_counts.get(function, 0) + 1
        self.call_counts[function] = count
        for index, trigger in self._by_function.get(function, ()):
            if not dormant:
                self.evaluations += 1
            if not self._fires(index, trigger, count, frames, args,
                               scope_resolver):
                continue
            assert not dormant, "a dormant call fired"
            self.firings += 1
            return count, Decision(
                trigger=trigger,
                action=self._select_action(index, trigger),
                calloriginal=trigger.calloriginal,
                modifications=trigger.modifications)
        return count, None

    def _fires(self, index: int, trigger: FunctionTrigger, count: int,
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
        if trigger.mode == INJECT_RANDOM:
            self.countdown[index] -= 1
            if self.countdown[index] > 0:
                return False
            self.countdown[index] = _countdown(self.rng,
                                               trigger.probability)
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


class PerCallRollEngine:
    """The 6.x rule, kept as the statistical baseline: plain random
    triggers checked in plan order, one Bernoulli roll each per call."""

    def __init__(self, probabilities: Sequence[float],
                 rng: random.Random) -> None:
        self.probabilities = tuple(probabilities)
        self.rng = rng

    def on_call(self) -> Optional[int]:
        """The index of the trigger that fires, or None."""
        for index, probability in enumerate(self.probabilities):
            if self.rng.random() < probability:
                return index
        return None


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
        assert engine.dormancy(function) == ref.dormancy(function)


def _stub_bypass(engine: TriggerEngine):
    """A stub crossing's dormancy check on ``function``:
    ``Injector.bypass`` over ``engine``, with the original behind stub
    ``fn_id`` at ``0x8000 + fn_id``.  It must hand back that original
    exactly when the engine reads the function dormant; True when it
    did (and counted the call)."""
    injector = Injector(engine, Logbook(), FUNCTIONS)
    proc = object()
    injector._originals[proc] = {fn_id: 0x8000 + fn_id
                                 for fn_id in range(len(FUNCTIONS))}

    def cross(function: str) -> bool:
        fn_id = FUNCTIONS.index(function)
        dormant = engine.dormancy(function) > 0
        original = injector.bypass(proc, fn_id)
        assert original == (0x8000 + fn_id if dormant else None)
        return dormant
    return cross


def _dormant(engine: TriggerEngine, cross, rng: random.Random,
             function: str) -> bool:
    """Ask the stub crossing's bypass, the engine's ``dormant_call`` or
    neither (the step path), at random: whether the call was counted
    dormant, with nothing else owed."""
    way = rng.random()
    if way < 0.35:
        return cross(function)
    if way < 0.7:
        return engine.dormant_call(function)
    return False


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("block", range(8))
def test_compiled_engine_matches_reference(block):
    """240 generated plans, 60 generated calls each."""
    for plan_index in range(30):
        rng = random.Random(block * 1000 + plan_index)
        plan = _random_plan(rng, seed=plan_index)
        engine = TriggerEngine(plan, random.Random(plan.seed))
        ref = ReferenceEngine(plan, random.Random(plan.seed))
        cross = _stub_bypass(engine)
        for _ in range(60):
            function, frames, args, resolver = _random_call(rng)
            if _dormant(engine, cross, rng, function):
                _assert_same(engine, ref,
                             (engine.call_counts[function], None),
                             ref.on_call(function, frames, args, resolver))
                continue
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


def _passthrough_plan(probabilities: Sequence[float], seed: int,
                      function: str = "read") -> Plan:
    plan = Plan(seed=seed)
    for probability in probabilities:
        plan.add(FunctionTrigger(function=function, mode=INJECT_RANDOM,
                                 probability=probability,
                                 actions=(ReturnFault(-1, "EIO"),),
                                 calloriginal=True))
    return plan


@pytest.mark.parametrize("seed", range(20))
def test_plain_random_functions_match_reference(seed):
    """Functions whose triggers are all plain random sleep between due
    calls; at a due call the triggers after the firing one keep their
    countdowns."""
    rng = random.Random(seed)
    plan = Plan(seed=seed)
    for function in ("read", "write"):
        for _ in range(rng.randint(2, 6)):
            plan.add(FunctionTrigger(
                function=function, mode=INJECT_RANDOM,
                probability=rng.choice((0.05, 0.2, 0.5, 1.0)),
                actions=(ReturnFault(-1, "EIO"), DelayFault(5))[
                    :rng.randint(1, 2)]))
    engine = TriggerEngine(plan, random.Random(seed))
    ref = ReferenceEngine(plan, random.Random(seed))
    cross = _stub_bypass(engine)
    for _ in range(120):
        function = rng.choice(("read", "write", "close"))
        if _dormant(engine, cross, rng, function):
            _assert_same(engine, ref, (engine.call_counts[function], None),
                         ref.on_call(function, ()))
            continue
        _assert_same(engine, ref, engine.on_call(function, ()),
                     ref.on_call(function, ()))


def test_passthrough_run_draws_once_per_trigger():
    """77 passthrough triggers draw their 77 countdowns when the engine
    is built, and nothing while their function sleeps."""
    plan = _passthrough_plan([1e-9] * 77, seed=7)
    ref = random.Random(7)
    for _ in range(77):
        ref.random()
    engine = TriggerEngine(plan, random.Random(7))
    assert engine.rng.getstate() == ref.getstate()
    for call in range(10_000):
        if call % 2:
            assert engine.on_call("read", ()) == (call + 1, None)
        else:
            assert engine.dormant_call("read")
    assert engine.call_counts == {"read": 10_000}
    assert engine.evaluations == 0 and engine.firings == 0
    assert engine.rng.getstate() == ref.getstate()
    assert 0 < engine.dormancy("read") < math.inf


@pytest.mark.parametrize("probability", [1e-310, 5e-324])
def test_subnormal_probability_draws_a_finite_countdown(probability):
    """log1p(-p) is subnormal here, so log(1 - U) / log1p(-p) overflows
    to inf for almost every U; the engine still builds and sleeps."""
    plan = _passthrough_plan([probability] * 3, seed=3)
    engine = TriggerEngine(plan, random.Random(3))
    for call in range(1, 101):
        assert engine.on_call("read", ()) == (call, None)
    assert engine.firings == 0 and engine.evaluations == 0
    assert 0 < engine.dormancy("read") < math.inf


def test_call_ordinal_functions_keep_their_evaluations():
    """nth triggers evaluate every call up to their horizon and none
    after, exactly as before the countdown rule."""
    plan = Plan(seed=1)
    for nth in (2, 5):
        plan.add(FunctionTrigger(function="close", mode=INJECT_NTH, nth=nth,
                                 actions=(ReturnFault(-1, "EIO"),)))
    engine = TriggerEngine(plan, random.Random(1))
    fired = [engine.on_call("close", ())[1] is not None for _ in range(9)]
    assert fired == [False, True, False, False, True] + [False] * 4
    # calls 1-5 check both triggers, except call 2, which stops at the
    # first; calls 6-9 are dormant
    assert engine.evaluations == 2 + 1 + 2 + 2 + 2
    assert engine.dormancy("close") == math.inf
    assert engine.rng.getstate() == random.Random(1).getstate()


# -- the countdown rule against the per-call roll ------------------------------

#: significance of each chi-square comparison below
ALPHA_Z = 3.090232306167813          # standard normal quantile of 0.999
SEEDS = 2_000
CALLS = 30


def _chi2_critical(df: int) -> float:
    """The chi-square quantile at 1 - alpha (Wilson-Hilferty; within 3%
    of the exact value, on the conservative side, for any df >= 1)."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + ALPHA_Z * math.sqrt(c)) ** 3


def _same_distribution(a: Dict[object, int], b: Dict[object, int]) -> bool:
    """Chi-square test of homogeneity of two histograms, with
    neighbouring bins pooled until each expects at least 5 per sample."""
    keys = sorted(set(a) | set(b), key=lambda k: (k is None, k))
    na, nb = sum(a.values()), sum(b.values())
    bins: List[Tuple[int, int]] = []
    oa = ob = 0
    for key in keys:
        oa += a.get(key, 0)
        ob += b.get(key, 0)
        if min(na, nb) * (oa + ob) / (na + nb) >= 5:
            bins.append((oa, ob))
            oa = ob = 0
    if oa or ob:
        if bins:
            last = bins.pop()
            bins.append((last[0] + oa, last[1] + ob))
        else:
            bins.append((oa, ob))
    if len(bins) < 2:
        return True                  # one pooled bin: nothing to tell
    stat = 0.0
    for oa, ob in bins:
        total = oa + ob
        for observed, n in ((oa, na), (ob, nb)):
            expected = n * total / (na + nb)
            stat += (observed - expected) ** 2 / expected
    return stat <= _chi2_critical(len(bins) - 1)


def _histograms(run_one) -> Tuple[Dict, Dict, Dict]:
    """Firing counts per seed, first-firing ordinal per seed (None:
    none in :data:`CALLS` calls) and firings per trigger."""
    counts: Dict[int, int] = {}
    firsts: Dict[Optional[int], int] = {}
    which: Dict[int, int] = {}
    for seed in range(SEEDS):
        fired = run_one(seed)
        counts[len(fired)] = counts.get(len(fired), 0) + 1
        first = fired[0][0] if fired else None
        firsts[first] = firsts.get(first, 0) + 1
        for _ordinal, index in fired:
            which[index] = which.get(index, 0) + 1
    return counts, firsts, which


def _countdown_run(probabilities):
    def run_one(seed):
        plan = _passthrough_plan(probabilities, seed)
        engine = TriggerEngine(plan, random.Random(seed))
        triggers = {id(t): i for i, t in enumerate(plan.triggers)}
        fired = []
        for ordinal in range(1, CALLS + 1):
            decision = engine.on_call("read", ())[1]
            if decision is not None:
                fired.append((ordinal, triggers[id(decision.trigger)]))
        return fired
    return run_one


def _per_call_run(probabilities):
    def run_one(seed):
        # another seed stream: the two samples must be independent
        engine = PerCallRollEngine(probabilities,
                                   random.Random(10_000_000 + seed))
        fired = []
        for ordinal in range(1, CALLS + 1):
            index = engine.on_call()
            if index is not None:
                fired.append((ordinal, index))
        return fired
    return run_one


@pytest.mark.parametrize("probabilities", [
    (0.05,), (0.2,), (0.5,), (1.0,),
    (0.05, 0.2), (0.2, 0.5, 0.05), (0.5, 1.0), (0.2, 0.2, 0.2)])
def test_countdowns_fire_like_per_call_rolls(probabilities):
    """Over 2,000 seeds and 30 calls, firing counts, first-firing
    ordinals and which trigger fires agree in distribution with one
    Bernoulli roll per trigger per call (chi-square, alpha = 0.001)."""
    got = _histograms(_countdown_run(probabilities))
    want = _histograms(_per_call_run(probabilities))
    for name, a, b in zip(("firings", "first firing", "trigger"),
                          got, want):
        assert _same_distribution(a, b), (name, sorted(a.items()),
                                          sorted(b.items()))
