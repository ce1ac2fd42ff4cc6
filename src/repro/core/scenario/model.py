"""Fault-scenario (faultload) model (§4).

A scenario is a set of <trigger, action> tuples.  Triggers fire on call
counts, ordinal sets, probabilities, or stack-trace matches, optionally
restricted to a target scope (file descriptor, path glob, socket peer);
actions are drawn from an open, versioned model:

* :class:`ReturnFault` — the paper's original fault shape: an error
  return value plus errno, suppressing the original call;
* :class:`DelayFault` — advance the simulated kernel clock by a fixed
  number of virtual nanoseconds, then run the original (injected
  latency);
* :class:`ShortReadFault` / :class:`PartialWriteFault` — clamp the
  byte-count argument of read/write/send/recv-shaped calls so the
  original performs a short transfer (partial I/O).

``ErrorCode`` remains as a compatibility alias for :class:`ReturnFault`.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence, Tuple, Union

from ...errors import ScenarioError
from ..profiles import ArgCondition

INJECT_NTH = "nth"              # fire on the n-th call only
INJECT_ALWAYS = "always"        # fire on every call
INJECT_RANDOM = "random"        # fire with probability p per call
INJECT_EXHAUSTIVE = "exhaustive"  # fire every call, rotating actions
INJECT_ORDINALS = "ordinals"    # fire on an explicit set of call ordinals

_MODES = (INJECT_NTH, INJECT_ALWAYS, INJECT_RANDOM, INJECT_EXHAUSTIVE,
          INJECT_ORDINALS)


@dataclass(frozen=True)
class ReturnFault:
    """Inject an error return value + errno symbol, skip the original."""

    retval: int
    errno: Optional[str] = None

    kind: ClassVar[str] = "return"

    def describe(self) -> str:
        return f"{self.retval}/{self.errno or 'none'}"

    def token(self) -> str:
        return f"return:{self.retval}:{self.errno or ''}"


#: Back-compat alias: the pre-redesign name for :class:`ReturnFault`.
ErrorCode = ReturnFault


@dataclass(frozen=True)
class DelayFault:
    """Advance the simulated kernel clock, then run the original call.

    ``virtual_ns`` is deterministic virtual time — it moves
    ``Kernel.clock_ns`` exactly as ``nanosleep`` would, so injected
    latency is bit-reproducible and snapshot replay restores it.
    """

    virtual_ns: int

    kind: ClassVar[str] = "delay"

    def __post_init__(self) -> None:
        if self.virtual_ns <= 0:
            raise ScenarioError("DelayFault needs virtual_ns > 0")

    def describe(self) -> str:
        return f"delay{self.virtual_ns}ns"

    def token(self) -> str:
        return f"delay:{self.virtual_ns}"


def _validate_partial_io(action: "_PartialIo") -> None:
    if (action.max_bytes is None) == (action.fraction is None):
        raise ScenarioError(
            f"{type(action).__name__} needs exactly one of "
            f"max_bytes= or fraction=")
    if action.max_bytes is not None and action.max_bytes < 0:
        raise ScenarioError(
            f"{type(action).__name__} needs max_bytes >= 0")
    if action.fraction is not None \
            and not (0.0 < action.fraction < 1.0):
        raise ScenarioError(
            f"{type(action).__name__} needs 0 < fraction < 1")
    if action.argument < 1:
        raise ScenarioError(
            f"{type(action).__name__} arguments are 1-based")


class _PartialIo:
    """Shared behavior of the two partial-I/O actions."""

    max_bytes: Optional[int]
    fraction: Optional[float]
    argument: int

    def limit(self, count: int) -> int:
        """The clamped byte count for a request of ``count`` bytes."""
        if count <= 0:
            return count
        if self.max_bytes is not None:
            return min(count, self.max_bytes)
        return int(count * self.fraction)

    def describe(self) -> str:
        bound = (f"{self.max_bytes}b" if self.max_bytes is not None
                 else f"{self.fraction:g}x")
        return f"{self.kind}{bound}"

    def token(self) -> str:
        if self.max_bytes is not None:
            return f"{self.kind}:max={self.max_bytes}:arg={self.argument}"
        return f"{self.kind}:frac={self.fraction!r}:arg={self.argument}"


@dataclass(frozen=True)
class ShortReadFault(_PartialIo):
    """Clamp a read-shaped call's count argument (short read).

    The original still runs — it just asks the kernel for fewer bytes.
    ``argument`` is the 1-based position of the byte count (3 for the
    ``(fd, buf, count)`` family, which covers read/recv and the APR
    wrappers miniweb uses).
    """

    max_bytes: Optional[int] = None
    fraction: Optional[float] = None
    argument: int = 3

    kind: ClassVar[str] = "short-read"

    def __post_init__(self) -> None:
        _validate_partial_io(self)


@dataclass(frozen=True)
class PartialWriteFault(_PartialIo):
    """Clamp a write-shaped call's count argument (partial write)."""

    max_bytes: Optional[int] = None
    fraction: Optional[float] = None
    argument: int = 3

    kind: ClassVar[str] = "partial-write"

    def __post_init__(self) -> None:
        _validate_partial_io(self)


#: The open action model: anything a firing trigger can do to the call.
Action = Union[ReturnFault, DelayFault, ShortReadFault, PartialWriteFault]

#: Action classes by their serialized ``kind`` tag.
ACTION_KINDS = {cls.kind: cls for cls in
                (ReturnFault, DelayFault, ShortReadFault,
                 PartialWriteFault)}


def action_from_token(text: str) -> Action:
    """Rebuild an action from its :meth:`token` form (logbook/replay)."""
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "return":
            return ReturnFault(int(parts[1]), parts[2] or None)
        if kind == "delay":
            return DelayFault(int(parts[1]))
        if kind in ("short-read", "partial-write"):
            cls = ShortReadFault if kind == "short-read" \
                else PartialWriteFault
            kwargs = {}
            for part in parts[1:]:
                key, _, value = part.partition("=")
                if key == "max":
                    kwargs["max_bytes"] = int(value)
                elif key == "frac":
                    kwargs["fraction"] = float(value)
                elif key == "arg":
                    kwargs["argument"] = int(value)
            return cls(**kwargs)
    except (IndexError, ValueError) as exc:
        raise ScenarioError(f"bad action token {text!r}: {exc}") from None
    raise ScenarioError(f"bad action token {text!r}")


@dataclass(frozen=True)
class TargetScope:
    """Restrict a trigger to calls against a specific target.

    At least one predicate must be set; all set predicates must hold.
    ``fd`` matches the call's first argument as a file descriptor;
    ``path`` is a glob matched against the descriptor's opened path (or
    a pathname first argument, for open/stat-shaped calls); ``peer``
    matches the port of the socket connection behind the descriptor.
    """

    fd: Optional[int] = None
    path: Optional[str] = None
    peer: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fd is None and self.path is None and self.peer is None:
            raise ScenarioError(
                "TargetScope needs at least one of fd=, path= or peer=")

    def matches(self, *, fd: Optional[int] = None,
                path: Optional[str] = None,
                peer: Optional[int] = None) -> bool:
        if self.fd is not None and fd != self.fd:
            return False
        if self.path is not None:
            if path is None or not fnmatch.fnmatchcase(path, self.path):
                return False
        if self.peer is not None and peer != self.peer:
            return False
        return True


@dataclass(frozen=True)
class ArgModification:
    """Modify an argument before passing the call on (§4's third example).

    ``argument`` is 1-based, as in the paper's XML.
    """

    argument: int
    op: str            # add | sub | set
    value: int

    def __post_init__(self) -> None:
        if self.op not in ("add", "sub", "set"):
            raise ScenarioError(f"bad modify op {self.op!r}")
        if self.argument < 1:
            raise ScenarioError("modify arguments are 1-based")

    def apply(self, old: int) -> int:
        if self.op == "add":
            return old + self.value
        if self.op == "sub":
            return old - self.value
        return self.value


@dataclass(frozen=True)
class FrameSpec:
    """One stack-trace frame condition: hex address or function name."""

    value: str

    def matches(self, return_addr: int, function: Optional[str]) -> bool:
        text = self.value.strip()
        if text.lower().startswith("0x"):
            try:
                return int(text, 16) == return_addr
            except ValueError:
                return False
        return function == text


@dataclass(frozen=True, init=False)
class FunctionTrigger:
    """One <function .../> element of a plan."""

    function: str
    mode: str
    nth: int                             # for INJECT_NTH
    probability: float                   # for INJECT_RANDOM
    actions: Tuple[Action, ...]
    calloriginal: bool
    stacktrace: Tuple[FrameSpec, ...]
    modifications: Tuple[ArgModification, ...]
    #: fire only when the live call arguments satisfy these predicates
    #: (the arg-condition extension; indices are 0-based here)
    argconds: Tuple[ArgCondition, ...]
    #: explicit call-ordinal set, for INJECT_ORDINALS
    ordinals: Tuple[int, ...]
    #: restrict firing to calls against this target (fd/path/peer)
    scope: Optional[TargetScope]

    def __init__(self, function: str, mode: str = INJECT_ALWAYS,
                 nth: int = 0, probability: float = 0.0,
                 actions: Optional[Sequence[Action]] = None,
                 calloriginal: bool = False,
                 stacktrace: Sequence[FrameSpec] = (),
                 modifications: Sequence[ArgModification] = (),
                 argconds: Sequence[ArgCondition] = (),
                 ordinals: Sequence[int] = (),
                 scope: Optional[TargetScope] = None) -> None:
        write = object.__setattr__
        write(self, "function", function)
        write(self, "mode", mode)
        write(self, "nth", nth)
        write(self, "probability", probability)
        write(self, "actions", tuple(actions or ()))
        write(self, "calloriginal", calloriginal)
        write(self, "stacktrace", tuple(stacktrace))
        write(self, "modifications", tuple(modifications))
        write(self, "argconds", tuple(argconds))
        write(self, "ordinals", tuple(ordinals))
        write(self, "scope", scope)
        self._validate()

    def _validate(self) -> None:
        if self.mode not in _MODES:
            raise ScenarioError(f"bad inject mode {self.mode!r}")
        if self.mode == INJECT_NTH and self.nth < 1:
            raise ScenarioError(f"nth-call trigger for {self.function!r} "
                                f"needs a positive count")
        if self.mode == INJECT_RANDOM \
                and not (0.0 < self.probability <= 1.0):
            raise ScenarioError(f"random trigger for {self.function!r} "
                                f"needs 0 < probability <= 1")
        if self.mode == INJECT_ORDINALS:
            if not self.ordinals:
                raise ScenarioError(
                    f"ordinals trigger for {self.function!r} needs a "
                    f"non-empty ordinal set")
            if any(o < 1 for o in self.ordinals):
                raise ScenarioError(
                    f"ordinals trigger for {self.function!r} needs "
                    f"1-based call ordinals")
        for action in self.actions:
            if not isinstance(action, tuple(ACTION_KINDS.values())):
                raise ScenarioError(
                    f"trigger for {self.function!r} carries a "
                    f"non-action {action!r}")

    @property
    def codes(self) -> Tuple[ReturnFault, ...]:
        """The ReturnFault subset of :attr:`actions` (legacy view)."""
        return tuple(a for a in self.actions
                     if isinstance(a, ReturnFault))

    def wants_injection(self) -> bool:
        """Whether firing injects a fault (vs. only modifying arguments)."""
        return bool(self.actions) or not self.calloriginal


@dataclass
class Plan:
    """A fault-injection scenario: ordered triggers, optional RNG seed."""

    triggers: List[FunctionTrigger] = field(default_factory=list)
    seed: Optional[int] = None
    name: str = "scenario"

    def functions(self) -> List[str]:
        seen: List[str] = []
        for trigger in self.triggers:
            if trigger.function not in seen:
                seen.append(trigger.function)
        return seen

    def triggers_for(self, function: str) -> List[FunctionTrigger]:
        return [t for t in self.triggers if t.function == function]

    def trigger_count(self) -> int:
        return len(self.triggers)

    def add(self, trigger: FunctionTrigger) -> "Plan":
        self.triggers.append(trigger)
        return self
