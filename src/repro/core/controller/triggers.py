"""Runtime trigger evaluation (§4/§5.1).

Every intercepted call increments the function's call counter and
evaluates its triggers in plan order; the first satisfied trigger
decides the injection.  Stack-trace conditions compare against the
caller's backtrace; target scopes compare against the descriptor the
call operates on; exhaustive triggers rotate their action list across
consecutive firings; random triggers roll the controller's RNG.

Each function's triggers are compiled once, when the engine is built
(:func:`_compile`): a run of plain random triggers becomes a tight loop
of RNG draws, every other trigger a step with its count predicate
precomputed.  Compilation changes no result: evaluation counts, firings
and RNG consumption are those of checking each trigger in turn.

Ordering inside a step is load-bearing: the scope predicate runs
*before* the probability roll, so plans without scoped triggers consume
the RNG exactly as the pre-action-model engine did — the
differential-equivalence guarantee for ReturnFault-only plans depends
on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..scenario.model import (INJECT_EXHAUSTIVE, INJECT_NTH,
                              INJECT_ORDINALS, INJECT_RANDOM, Action,
                              ArgModification, FunctionTrigger, Plan,
                              ReturnFault, TargetScope)

Frame = Tuple[int, Optional[str]]   # (return address, enclosing function)

#: Call ordinals at or above this value are treated as unreachable: a
#: trigger aimed there provably never fires, so the injector's dormant
#: fast path engages from the first call.  The snapshot prefix sentinel
#: (``core.exec.snapshot.PREFIX_SENTINEL``) is defined as this value.
NEVER_ORDINAL = 1 << 30

#: Resolves a call's first argument to (path, peer port) for scope
#: predicates; ``None`` when no scoped trigger needs it.
ScopeResolver = Callable[[int], Tuple[Optional[str], Optional[int]]]


@dataclass(frozen=True)
class Decision:
    """Outcome of trigger evaluation for one intercepted call."""

    trigger: FunctionTrigger
    action: Optional[Action]
    calloriginal: bool
    modifications: Tuple[ArgModification, ...]

    @property
    def code(self) -> Optional[ReturnFault]:
        """The legacy (retval, errno) view — None for other actions."""
        return (self.action
                if isinstance(self.action, ReturnFault) else None)

    @property
    def injects_return(self) -> bool:
        return isinstance(self.action, ReturnFault) \
            and not self.calloriginal


def trigger_horizon(trigger: FunctionTrigger) -> Optional[int]:
    """The last call ordinal at which ``trigger`` could still fire, or
    None when no call-count bound exists (random/exhaustive/always)."""
    if trigger.mode == INJECT_NTH:
        return trigger.nth
    if trigger.mode == INJECT_ORDINALS:
        return max(trigger.ordinals) if trigger.ordinals else 0
    return None


def _compile(entries: List[Tuple[int, FunctionTrigger]]) -> tuple:
    """One function's triggers as evaluation steps, in plan order.

    A run of consecutive plain random triggers (no count, scope, stack or
    argument predicate) becomes one step ``(probabilities, ((index,
    trigger), ...))``.  Any other trigger is a step ``(None, (index,
    trigger, ordinals, scope, probability, late))``: the call ordinals it
    may fire at (None: any), its scope, its roll (None: no draw) and
    whether stack or argument conditions follow the roll.
    """
    steps: List[tuple] = []
    for index, trigger in entries:
        if trigger.mode == INJECT_RANDOM and trigger.scope is None \
                and not trigger.stacktrace and not trigger.argconds:
            if not steps or steps[-1][0] is None:
                steps.append(([], []))
            steps[-1][0].append(trigger.probability)
            steps[-1][1].append((index, trigger))
            continue
        at = (frozenset((trigger.nth,)) if trigger.mode == INJECT_NTH
              else frozenset(trigger.ordinals)
              if trigger.mode == INJECT_ORDINALS else None)
        steps.append((None, (
            index, trigger, at, trigger.scope,
            trigger.probability if trigger.mode == INJECT_RANDOM else None,
            bool(trigger.stacktrace or trigger.argconds))))
    return tuple((None, payload) if probs is None
                 else (tuple(probs), tuple(payload))
                 for probs, payload in steps)


def _function_horizon(entries: List[Tuple[int, FunctionTrigger]]) -> float:
    """The call count below which some trigger on the function could
    still fire: infinite if any trigger has no call-count bound, else
    the largest reachable horizon (0 when none is reachable)."""
    horizons = [trigger_horizon(trigger) for _index, trigger in entries]
    if None in horizons:
        return math.inf
    return max([h for h in horizons if h < NEVER_ORDINAL], default=0)


class TriggerEngine:
    """Evaluates a plan's triggers against live calls."""

    def __init__(self, plan: Plan, rng: Optional[random.Random] = None) -> None:
        self.plan = plan
        self.rng = rng or random.Random(plan.seed)
        self.call_counts: Dict[str, int] = {}
        self._rotation: Dict[int, int] = {}
        by_function: Dict[str, List[Tuple[int, FunctionTrigger]]] = {}
        for index, trigger in enumerate(plan.triggers):
            by_function.setdefault(trigger.function, []).append(
                (index, trigger))
        self._steps = {function: _compile(entries)
                       for function, entries in by_function.items()}
        self._horizons = {function: _function_horizon(entries)
                          for function, entries in by_function.items()}
        self._sizes = {function: len(entries)
                       for function, entries in by_function.items()}
        self.evaluations = 0
        self.firings = 0
        #: whether any trigger needs a backtrace; callers may skip
        #: building one otherwise (stack walks are the expensive part)
        self.needs_frames = any(t.stacktrace for t in plan.triggers)
        #: whether any trigger inspects live call arguments
        self.needs_args = any(t.argconds or t.scope is not None
                              for t in plan.triggers)
        #: whether any trigger carries a target scope (callers then
        #: supply a descriptor resolver to :meth:`on_call`)
        self.needs_scope = any(t.scope is not None for t in plan.triggers)

    def record_dormant_call(self, function: str) -> int:
        """Count one call on the dormant fast path.

        Call counting is the only observable bookkeeping a dormant
        function still owes (ordinal semantics, snapshot prefix_calls);
        everything else — evaluation counters, decisions, logbook and
        telemetry — is provably dead while :meth:`can_still_fire` is
        False.
        """
        count = self.call_counts.get(function, 0) + 1
        self.call_counts[function] = count
        return count

    def can_still_fire(self, function: str) -> bool:
        """Whether any trigger on ``function`` could fire on a future
        call, given the calls counted so far.

        The proof is conservative: only call-ordinal exhaustion (an
        nth/ordinals horizon behind the current count) and unreachable
        ordinals (at or past :data:`NEVER_ORDINAL`) count as "never";
        random, exhaustive, scoped and stack-matched triggers are
        assumed live forever.
        """
        return self.call_counts.get(function, 0) \
            < self._horizons.get(function, 0)

    def prefix_evaluations(self, prefix_calls: Dict[str, int]
                           ) -> Dict[str, int]:
        """Trigger evaluations a fresh run spends on ``prefix_calls``.

        Every call evaluates all of a function's triggers until the
        function goes dormant (:meth:`can_still_fire`), after which the
        injector skips evaluation; functions with none are omitted.
        """
        evaluations = {}
        for function, horizon in self._horizons.items():
            live_calls = min(prefix_calls.get(function, 0), horizon)
            if live_calls:
                evaluations[function] = live_calls * self._sizes[function]
        return evaluations

    def on_call(self, function: str, frames: Sequence[Frame],
                args: Sequence[int] = (),
                scope_resolver: Optional[ScopeResolver] = None,
                ) -> Tuple[int, Optional[Decision]]:
        """Record one call; return (call ordinal, decision or None)."""
        count = self.call_counts.get(function, 0) + 1
        self.call_counts[function] = count
        for probs, payload in self._steps.get(function, ()):
            if probs is not None:
                rnd = self.rng.random
                for n, probability in enumerate(probs, 1):
                    if rnd() < probability:
                        self.evaluations += n
                        return count, self._decide(*payload[n - 1])
                self.evaluations += len(probs)
                continue
            self.evaluations += 1
            index, trigger, at, scope, probability, late = payload
            if at is not None and count not in at:
                continue
            if scope is not None and not self._scope_matches(
                    scope, args, scope_resolver):
                continue
            if probability is not None and self.rng.random() >= probability:
                continue
            if late and not self._late_checks_hold(trigger, frames, args):
                continue
            return count, self._decide(index, trigger)
        return count, None

    # -- internals --------------------------------------------------------

    def _decide(self, index: int, trigger: FunctionTrigger) -> Decision:
        self.firings += 1
        return Decision(trigger=trigger,
                        action=self._select_action(index, trigger),
                        calloriginal=trigger.calloriginal,
                        modifications=trigger.modifications)

    @staticmethod
    def _scope_matches(scope: TargetScope, args: Sequence[int],
                       scope_resolver: Optional[ScopeResolver]) -> bool:
        if not args:
            return False
        fd = args[0]
        path: Optional[str] = None
        peer: Optional[int] = None
        if scope_resolver is not None:
            path, peer = scope_resolver(fd)
        return scope.matches(fd=fd, path=path, peer=peer)

    @staticmethod
    def _late_checks_hold(trigger: FunctionTrigger, frames: Sequence[Frame],
                          args: Sequence[int]) -> bool:
        """The stack-trace and argument conditions, after the roll."""
        if len(trigger.stacktrace) > len(frames):
            return False
        for spec, (addr, name) in zip(trigger.stacktrace, frames):
            if not spec.matches(addr, name):
                return False
        for cond in trigger.argconds:
            if cond.arg_index >= len(args) \
                    or not cond.holds(args[cond.arg_index]):
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
