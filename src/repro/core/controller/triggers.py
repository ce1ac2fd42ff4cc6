"""Runtime trigger evaluation (§4/§5.1).

Every intercepted call increments the function's call counter and
evaluates its triggers in plan order; the first satisfied trigger
decides the injection.  Stack-trace conditions compare against the
caller's backtrace; target scopes compare against the descriptor the
call operates on; exhaustive triggers rotate their action list across
consecutive firings.

A random trigger counts down.  Its countdown is the number of its
evaluations left until it fires, geometric in its probability p: it is
drawn from the plan's RNG when the engine is built (in plan order) and
again after each success, as ``1 + floor(log(1 - U) / log1p(-p))``.  An
evaluation that reaches the roll decrements the countdown instead of
drawing, so each evaluation still fires with probability p, and the RNG
is drawn once per firing rather than once per call.

Ordering inside a trigger is load-bearing: the scope predicate runs
*before* the roll (a call outside the scope does not count down) and
the stack and argument conditions after it.

Each function carries one dormancy number (:meth:`TriggerEngine.dormancy`):
how many of its next calls need no evaluation.  A function whose
triggers all have call-ordinal bounds is dormant for good once its
count passes them; a function whose triggers are all plain random (no
scope, stack or argument condition) is dormant until its earliest
countdown comes due; any other function evaluates every call.  A
dormant call is counted and nothing else (:meth:`dormant_call`; a stub
crossing on the block path counts it in ``Injector.bypass``, which does
the same inline on the engine's tables).
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
#: trigger aimed there provably never fires, so the function is dormant
#: from the first call.  The snapshot prefix sentinel
#: (``core.exec.snapshot.PREFIX_SENTINEL``) is defined as this value.
NEVER_ORDINAL = 1 << 30

#: The largest gap a countdown draws, in evaluations.
_COUNTDOWN_CAP = float(1 << 62)

#: The random-trigger rule in force, recorded in campaign meta so that
#: ``--resume`` never mixes results rolled by two rules (6.x rolled
#: every random trigger once per call).
RANDOM_RULE = "countdown"

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


def _plain_random(trigger: FunctionTrigger) -> bool:
    return trigger.mode == INJECT_RANDOM and trigger.scope is None \
        and not trigger.stacktrace and not trigger.argconds


def _function_horizon(triggers: List[FunctionTrigger]) -> float:
    """The call count below which some trigger on the function could
    still fire: infinite if any trigger has no call-count bound, else
    the largest reachable horizon (0 when none is reachable)."""
    horizons = [trigger_horizon(trigger) for trigger in triggers]
    if None in horizons:
        return math.inf
    return max([h for h in horizons if h < NEVER_ORDINAL], default=0)


class TriggerEngine:
    """Evaluates a plan's triggers against live calls.

    ``call_counts`` may be replaced by a new dict (snapshot replay does
    so with its checkpoint's counts); the engine then re-derives the
    dormancy of every function whose triggers have call-ordinal
    bounds.  Countdowns do not depend on the counts.
    """

    def __init__(self, plan: Plan, rng: Optional[random.Random] = None) -> None:
        self.plan = plan
        self.rng = rng or random.Random(plan.seed)
        self._rotation: Dict[int, int] = {}
        #: countdown per random trigger (by slot), and log1p(-p) per
        #: slot (None for p = 1, whose countdown is always 1)
        self._countdowns: List[int] = []
        self._log_q: List[Optional[float]] = []
        steps: Dict[str, List[tuple]] = {}
        for index, trigger in enumerate(plan.triggers):
            slot = None
            if trigger.mode == INJECT_RANDOM:
                slot = len(self._countdowns)
                self._log_q.append(math.log1p(-trigger.probability)
                                   if trigger.probability < 1.0 else None)
                self._countdowns.append(self._draw(slot))
            # a step: the trigger, the call ordinals it may fire at
            # (None: any), its scope, its countdown slot (None: no
            # roll) and whether stack or argument conditions follow
            steps.setdefault(trigger.function, []).append((
                index, trigger,
                frozenset((trigger.nth,)) if trigger.mode == INJECT_NTH
                else frozenset(trigger.ordinals)
                if trigger.mode == INJECT_ORDINALS else None,
                trigger.scope, slot,
                bool(trigger.stacktrace or trigger.argconds)))
        self._steps = {function: tuple(entries)
                       for function, entries in steps.items()}
        self._horizons = {
            function: _function_horizon([step[1] for step in entries])
            for function, entries in steps.items()}
        #: the countdown slots of each function whose triggers are all
        #: plain random: it is dormant until the smallest comes due
        self._slots = {
            function: tuple(step[4] for step in entries)
            for function, entries in steps.items()
            if all(_plain_random(step[1]) for step in entries)}
        #: function -> how many of its next calls need no evaluation
        self._idle: Dict[str, float] = {}
        for function in self._slots:
            self._rearm(function, 0)
        self.call_counts = {}
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

    @property
    def call_counts(self) -> Dict[str, int]:
        """Calls counted so far, per function."""
        return self._call_counts

    @call_counts.setter
    def call_counts(self, counts: Dict[str, int]) -> None:
        self._call_counts = counts
        for function, horizon in self._horizons.items():
            if function not in self._slots:
                self._idle[function] = (
                    math.inf if counts.get(function, 0) >= horizon else 0)

    def dormancy(self, function: str) -> float:
        """How many of ``function``'s next calls need no evaluation:
        ``math.inf`` once no trigger on it can fire again (none at all,
        unreachable ordinals, or exhausted nth/ordinal horizons), 0 when
        the next call must be evaluated."""
        return self._idle.get(function, math.inf)

    def dormant_call(self, function: str) -> bool:
        """Count one call of ``function`` if it is dormant.

        Returns False, counting nothing, when the call must be
        evaluated (:meth:`on_call` then counts it).  Call counting is
        the only bookkeeping a dormant call owes: no evaluation, no
        decision, no RNG draw.  ``Injector.bypass`` applies this rule
        inline, on ``_idle`` and ``_call_counts``, to keep a stub
        crossing at one call.
        """
        idle = self._idle.get(function, math.inf)
        if not idle:
            return False
        self._idle[function] = idle - 1
        counts = self._call_counts
        counts[function] = counts.get(function, 0) + 1
        return True

    def prefix_evaluations(self, prefix_calls: Dict[str, int]
                           ) -> Dict[str, int]:
        """Trigger evaluations a fresh run spends on ``prefix_calls``
        of a plan without random triggers (the only plans snapshot
        replay serves).

        Every call evaluates all of a function's triggers until the
        function goes dormant, after which it evaluates none; functions
        with none are omitted.
        """
        evaluations = {}
        for function, horizon in self._horizons.items():
            live_calls = min(prefix_calls.get(function, 0), horizon)
            if live_calls:
                evaluations[function] = \
                    live_calls * len(self._steps[function])
        return evaluations

    def on_call(self, function: str, frames: Sequence[Frame],
                args: Sequence[int] = (),
                scope_resolver: Optional[ScopeResolver] = None,
                ) -> Tuple[int, Optional[Decision]]:
        """Record one call; return (call ordinal, decision or None)."""
        counts = self._call_counts
        if self.dormant_call(function):
            return counts[function], None
        count = counts.get(function, 0) + 1
        counts[function] = count
        decision = None
        countdowns = self._countdowns
        checked = 0
        for index, trigger, at, scope, slot, late in self._steps[function]:
            checked += 1
            if at is not None and count not in at:
                continue
            if scope is not None and not self._scope_matches(
                    scope, args, scope_resolver):
                continue
            if slot is not None:
                left = countdowns[slot] - 1
                if left:
                    countdowns[slot] = left
                    continue
                countdowns[slot] = self._draw(slot)
            if late and not self._late_checks_hold(trigger, frames, args):
                continue
            decision = self._decide(index, trigger)
            break
        self.evaluations += checked
        self._rearm(function, count)
        return count, decision

    # -- internals --------------------------------------------------------

    def _draw(self, slot: int) -> int:
        """A fresh countdown for the random trigger in ``slot``."""
        u = self.rng.random()
        log_q = self._log_q[slot]
        if log_q is None:
            return 1
        # a p so small that log1p(-p) is subnormal overflows the
        # quotient to inf; no run makes 2**62 evaluations anyway
        return 1 + math.floor(min(math.log(1.0 - u) / log_q,
                                  _COUNTDOWN_CAP))

    def _rearm(self, function: str, count: int) -> None:
        """Re-derive ``function``'s dormancy after an evaluated call.

        A plain-random function sleeps until its smallest countdown
        comes due; the calls it sleeps through are subtracted from every
        countdown now, so the due call finds the earliest at 1.
        """
        slots = self._slots.get(function)
        if slots is not None:
            countdowns = self._countdowns
            gap = min([countdowns[slot] for slot in slots]) - 1
            if gap:
                for slot in slots:
                    countdowns[slot] -= gap
            self._idle[function] = gap
        elif count >= self._horizons[function]:
            self._idle[function] = math.inf

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
