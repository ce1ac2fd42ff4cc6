"""Systematic per-fault campaigns: one test case per (function, fault).

§5's workflow: "the LFI controller invokes a developer-provided script
that starts the program under test, exercises it with the desired
workload, and monitors its behavior ... This information is collected in
a log, along with an LFI-generated replay script for each fault
injection test case."

Where random scenarios sample the fault space, a *systematic campaign*
enumerates it: for every profiled function and every one of its error
codes, run the workload with exactly that one fault injected on the
function's n-th call.  The result is a fault-tolerance matrix of the
application ("how does it cope when the k-th close() returns EIO?") and
a replay script per cell — precisely the artifacts §6.1 suggests folding
into regression suites.

A :class:`PlanCase` carries any other plan — a fail-rate cell, one
faultload of §2's robustness battery — through the same engine, journal
and matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Union)

from ..platform import Platform
from .controller import (REPORT_SCHEMA, STATUS_HUNG, Controller, TestOutcome)
from .profiles import LibraryProfile
from .scenario.generate import derive_plan_seed, error_codes_from_profile
from .scenario.model import (INJECT_NTH, INJECT_RANDOM, Action, DelayFault,
                             ErrorCode, FunctionTrigger, PartialWriteFault,
                             Plan, ShortReadFault)

#: functions whose 3rd argument is a transfer count readable by
#: short-read faults (the simulated corpus' read-side calls)
READ_LIKE = frozenset({"read", "recv", "apr_socket_recv", "apr_file_read"})

#: same, write-side — eligible for partial-write faults
WRITE_LIKE = frozenset({"write", "send", "apr_brigade_write"})

#: the fault classes :func:`enumerate_cases` can expand
FAULT_CLASSES = ("return", "delay", "short-read", "partial-write")

#: A session factory: receives the per-case controller, returns the
#: workload callable to run under monitoring.
SessionFactory = Callable[[Controller], Callable[[], Optional[int]]]


@dataclass
class PrefixFactory:
    """A workload split into a shared setup prefix and a per-case suffix.

    ``setup`` builds the program under test (load libraries, open the
    database, seed state, ...) and returns an opaque workload context;
    ``run`` drives the monitored suffix against that context.  Campaigns
    with snapshots enabled execute ``setup`` once per trigger function,
    checkpoint the guest at workload-ready, and replay only ``run`` per
    fault case — with outcomes bit-identical to fresh runs.

    A ``PrefixFactory`` is also a plain :data:`SessionFactory`: calling
    it with a controller returns a closure running setup + suffix, which
    is exactly what snapshot-disabled (and fallback) cases execute.
    """

    setup: Callable[[Controller], Any]
    run: Callable[[Controller, Any], Optional[int]]
    #: stable workload identity, part of the snapshot cache key
    workload_id: str = "workload"

    def __call__(self, lfi: Controller) -> Callable[[], Optional[int]]:
        def session() -> Optional[int]:
            return self.run(lfi, self.setup(lfi))
        return session


@dataclass(frozen=True)
class FaultCase:
    """One cell of the campaign matrix: ``code`` injected at the
    ``call_ordinal``-th call of ``function``, one INJECT_NTH trigger.

    ``code`` keeps its historical name but accepts any fault action
    (return, delay, short-read, partial-write).  Only cells are derived,
    replayed and searched: each rests on the run being the golden run's
    until the one trigger fires.
    """

    function: str
    code: Action
    call_ordinal: int = 1

    def case_id(self) -> str:
        return (f"{self.function}@{self.call_ordinal}"
                f"={self.code.describe()}")

    def plan(self) -> Plan:
        """The case's plan, built on first use and kept, so the case
        key and the case's controller read the same one."""
        plan = self.__dict__.get("_plan")
        if plan is None:
            plan = Plan(name=f"case-{self.case_id()}")
            plan.add(FunctionTrigger(
                function=self.function, mode=INJECT_NTH,
                nth=self.call_ordinal, actions=(self.code,),
                calloriginal=False))
            object.__setattr__(self, "_plan", plan)
        return plan

    def __reduce__(self):
        # pickled as its fields: a plan builds faster than it unpickles
        return (FaultCase, (self.function, self.code, self.call_ordinal))


@dataclass(frozen=True)
class PlanCase:
    """A campaign case that runs any other plan, under its case id
    ``name``: a :func:`fail_rate_case`, one faultload of a battery.

    Its matrix row is ``function`` and the fault class of ``code``, if
    one action names the case.  A plan case always runs fresh: no other
    run stands in for it.
    """

    name: str
    scenario: Plan
    function: str
    code: Optional[Action] = None

    def case_id(self) -> str:
        return self.name

    def plan(self) -> Plan:
        return self.scenario


#: Either kind of campaign case.
CampaignCase = Union[FaultCase, PlanCase]


def fail_rate_case(function: str, code: Action,
                   probability: float) -> PlanCase:
    """A fail-rate cell: ``code`` injected into ``function`` at
    ``probability`` per call.  Its random trigger counts down geometric
    gaps drawn from a content-derived recorded seed, which is how
    fail-rate campaigns stay bit-identical under ``--resume``."""
    case_id = f"{function}@1={code.describe()}~p{probability}"
    name = f"case-{case_id}"
    plan = Plan(name=name, seed=derive_plan_seed(
        name, probability, (function,), (code,)))
    plan.add(FunctionTrigger(function=function, mode=INJECT_RANDOM,
                             probability=probability, actions=(code,),
                             calloriginal=False))
    return PlanCase(case_id, plan, function, code)


def case_row(case) -> Dict[str, Any]:
    """The fields of a case's journal record and ``case`` event that
    place it in the matrix (a plan case has no ordinal)."""
    code = case.code
    return {"function": case.function,
            "retval": getattr(code, "retval", None),
            "errno": getattr(code, "errno", None),
            **({"action": code.token()}
               if code is not None and not isinstance(code, ErrorCode)
               else {}),
            "ordinal": getattr(case, "call_ordinal", None)}


@dataclass
class CaseResult:
    """Outcome of one fault case."""

    case: CampaignCase
    outcome: TestOutcome
    fired: bool          # the workload actually reached the injection
    seconds: float = 0.0  # wall time of this case (filled by the engine)
    #: Worker-side telemetry, captured when a telemetry context is
    #: attached: serialized events, a metrics snapshot, and the worker
    #: that ran the case.  Plain dicts/strings so they cross the
    #: process-backend pickle boundary.
    events: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    worker: str = ""
    #: guest instructions this case executed (deterministic per case —
    #: identical across backends and interpreter paths)
    instructions: int = 0
    #: replay bookkeeping when the case ran from a workload checkpoint:
    #: group, dirty pages, bytes and restore seconds (None = fresh run)
    snapshot: Optional[Dict[str, Any]] = None
    #: the case's logbook injection sites as plain dicts (see
    #: :func:`injection_sites`) — the stack-hash currency failure
    #: triage buckets by; crosses the process-backend pickle boundary
    sites: List[Dict[str, Any]] = field(default_factory=list)
    #: the five-way failure-mode class (see ``core.results.matrix``),
    #: assigned deterministically by the campaign *parent* when a
    #: result store is attached; None = unclassified
    outcome_class: Optional[str] = None
    #: guest-filesystem content digest at end of case — compared against
    #: the campaign's no-fault golden digest to detect silent corruption
    output: Optional[str] = None
    #: exported block-coverage summary (``runtime.blocks
    #: .export_coverage``): digest, block/dispatch counts, hex-addr map
    coverage: Optional[Dict[str, Any]] = None
    #: calls the case's function received in this run; below
    #: ``call_ordinal`` means the injection point was never reached
    #: (None = unknown: a crashed, hung or pre-``calls`` journal record)
    calls: Optional[int] = None
    #: trigger firings in this run (``TriggerEngine.firings``); a run
    #: stands in for its function's not-reached cases only when it is 0
    #: (None = unknown: a crashed, hung or pre-``firings`` record)
    firings: Optional[int] = None
    #: copied from its function's not-reached representative instead of
    #: executed (see ``core.exec.engine.NotReachedCases``).  Counted
    #: into the run summary; never journaled or emitted — the golden
    #: counts decide it again on every run, backend and resume
    derived: bool = False

    @property
    def tolerated(self) -> bool:
        return self.fired and not self.outcome.crashed \
            and self.outcome.status != "hung"

    def to_dict(self) -> Dict[str, Any]:
        row = case_row(self.case)
        return {
            "case": self.case.case_id(),
            "function": row.pop("function"),
            "call_ordinal": row.pop("ordinal"),
            **row,
            "outcome": self.outcome.status,
            "fired": self.fired,
            "tolerated": self.tolerated,
            "duration": round(self.seconds, 6),
            "worker": self.worker,
            "instructions": self.instructions,
            **({"seed": self.case.plan().seed}
               if isinstance(self.case, PlanCase) else {}),
            **({"snapshot": self.snapshot}
               if self.snapshot is not None else {}),
            **({"class": self.outcome_class}
               if self.outcome_class is not None else {}),
            **({"output": self.output}
               if self.output is not None else {}),
            **({"coverage": {"digest": self.coverage.get("digest", ""),
                             "blocks": self.coverage.get("blocks", 0)}}
               if self.coverage else {}),
        }


def injection_sites(records) -> List[Dict[str, Any]]:
    """Serialize logbook :class:`InjectionRecord` rows for a result.

    Plain JSON-able dicts: they ride on :attr:`CaseResult.sites` across
    the process backend and into the durable result journal, where
    triage hashes the stack frames into bucket keys.
    """
    return [{
        "sequence": r.sequence,
        "test": r.test_id,
        "function": r.function,
        "call": r.call_number,
        "retval": r.retval,
        "errno": r.errno,
        "calloriginal": r.calloriginal,
        "modifications": list(r.modifications),
        "stack": list(r.stacktrace),
        **({"action": r.action} if r.action else {}),
    } for r in records]


@dataclass
class CampaignReport:
    """The complete fault-tolerance matrix."""

    app: str
    results: List[CaseResult] = field(default_factory=list)
    duration: float = 0.0           # wall-clock seconds of the whole run
    summary: Any = None             # RunSummary when run via core.exec
    #: set when a result journal was attached: how many cases the
    #: journal satisfied vs. how many actually (re-)ran
    resumed: Optional[Dict[str, int]] = None

    def fired(self) -> List[CaseResult]:
        return [r for r in self.results if r.fired]

    def crashes(self) -> List[CaseResult]:
        return [r for r in self.results if r.fired and r.outcome.crashed]

    def hung(self) -> List[CaseResult]:
        return [r for r in self.results
                if r.outcome.status == STATUS_HUNG]

    def not_reached(self) -> List[CaseResult]:
        return [r for r in self.results if not r.fired]

    def outcome(self) -> str:
        if any(r.outcome.crashed for r in self.results):
            return "crashes"
        if self.hung():
            return "hung"
        return "ok"

    @property
    def tolerance_rate(self) -> float:
        fired = self.fired()
        if not fired:
            return 1.0
        return sum(1 for r in fired if r.tolerated) / len(fired)

    def by_function(self) -> Dict[str, List[CaseResult]]:
        table: Dict[str, List[CaseResult]] = {}
        for result in self.results:
            table.setdefault(result.case.function, []).append(result)
        return table

    def render(self) -> str:
        lines = [f"systematic campaign for {self.app}: "
                 f"{len(self.results)} cases, {len(self.fired())} fired, "
                 f"{len(self.crashes())} crashes, "
                 f"tolerance {100 * self.tolerance_rate:.1f}%"]
        for function, rows in sorted(self.by_function().items()):
            cells = []
            for result in rows:
                code = result.case.code
                if code is None:
                    errno = result.case.case_id()
                elif isinstance(code, ErrorCode):
                    errno = code.errno or str(code.retval)
                else:
                    errno = code.describe()
                if result.outcome.status == STATUS_HUNG:
                    mark = "h"          # reaped by the per-case timeout
                elif not result.fired:
                    mark = "·"          # workload never called it
                elif result.outcome.crashed:
                    mark = "✗"
                elif result.outcome.status == "error-exit":
                    mark = "e"
                else:
                    mark = "✓"
                cells.append(f"{errno}:{mark}")
            lines.append(f"  {function:<12} " + " ".join(cells))
        lines.append("  legend: ✓ tolerated  e graceful error  "
                     "✗ crash  h hung  · not reached")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "campaign",
            "app": self.app,
            "outcome": self.outcome(),
            "duration": round(self.duration, 6),
            "cases": len(self.results),
            "fired": len(self.fired()),
            "crashes": len(self.crashes()),
            "hung": len(self.hung()),
            "not_reached": len(self.not_reached()),
            "tolerance_rate": round(self.tolerance_rate, 6),
            "results": [r.to_dict() for r in self.results],
            "summary": (self.summary.to_dict()
                        if self.summary is not None else None),
            **({"resumed": dict(self.resumed)}
               if self.resumed is not None else {}),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def enumerate_cases(profiles: Mapping[str, LibraryProfile],
                    *, functions: Optional[Sequence[str]] = None,
                    call_ordinals: Sequence[int] = (1,),
                    max_codes_per_function: Optional[int] = None,
                    fault_classes: Sequence[str] = ("return",),
                    latency_ns: int = 1_000_000,
                    fraction: float = 0.5,
                    fail_rate: Optional[float] = None,
                    ) -> List[CampaignCase]:
    """Expand profiles into the systematic case list.

    ``fault_classes`` picks which action families to enumerate (any of
    :data:`FAULT_CLASSES`).  ``return`` expands per profiled error
    code; ``delay`` adds one :class:`DelayFault` of ``latency_ns`` per
    function; ``short-read`` / ``partial-write`` add a count-clamping
    fault (keeping ``fraction`` of the transfer) for the functions in
    :data:`READ_LIKE` / :data:`WRITE_LIKE`.  ``fail_rate`` makes every
    enumerated cell a :func:`fail_rate_case` instead: its plan fires at
    that rate from a content-derived recorded seed rather than at an
    exact call ordinal, replayable bit-identically under ``--resume``.

    ``fail_rate`` and ``call_ordinals`` are mutually exclusive axes: a
    probabilistic plan may fire on *any* call, so there is no ordinal
    to vary and each (function, action) pair yields exactly one
    case.  Passing explicit non-default ordinals together with
    ``fail_rate`` raises :class:`ValueError` (historically the
    ordinals were silently discarded).
    """
    for cls in fault_classes:
        if cls not in FAULT_CLASSES:
            raise ValueError(f"unknown fault class {cls!r} "
                             f"(choose from {', '.join(FAULT_CLASSES)})")
    if fail_rate is not None and tuple(call_ordinals) != (1,):
        raise ValueError(
            "call_ordinals and fail_rate cannot be combined: a "
            "fail-rate case may fire on any call, so it has no "
            "call ordinal to enumerate")
    wanted = set(functions) if functions is not None else None
    cases: List[CampaignCase] = []
    for soname in sorted(profiles):
        for name in profiles[soname].function_names():
            if wanted is not None and name not in wanted:
                continue
            actions: List[Action] = []
            if "return" in fault_classes:
                codes = error_codes_from_profile(
                    profiles[soname].functions[name])
                if max_codes_per_function is not None:
                    codes = codes[:max_codes_per_function]
                actions.extend(codes)
            if "delay" in fault_classes:
                actions.append(DelayFault(latency_ns))
            if "short-read" in fault_classes and name in READ_LIKE:
                actions.append(ShortReadFault(fraction=fraction))
            if "partial-write" in fault_classes and name in WRITE_LIKE:
                actions.append(PartialWriteFault(fraction=fraction))
            for action in actions:
                if fail_rate is not None:
                    cases.append(fail_rate_case(name, action, fail_rate))
                    continue
                for ordinal in call_ordinals:
                    cases.append(FaultCase(name, action, ordinal))
    return cases


def run_campaign(app: str,
                 factory: SessionFactory,
                 platform: Platform,
                 profiles: Mapping[str, LibraryProfile],
                 cases: Iterable[CampaignCase],
                 *, jobs: int = 1,
                 timeout: Optional[float] = None,
                 backend: Optional[str] = None,
                 snapshot: bool = False,
                 telemetry=None,
                 results=None,
                 results_key: Optional[Mapping[str, Any]] = None,
                 resume: bool = False,
                 guided: bool = False,
                 budget_cases: Optional[int] = None) -> CampaignReport:
    """Run every case, :class:`FaultCase` cell or :class:`PlanCase`, as
    its own monitored test.

    With the defaults (``jobs=1``, no timeout) cases run inline exactly
    as a plain loop would.  ``jobs > 1`` (``0`` = one per CPU) or a
    ``timeout`` runs cases on forked workers of a
    :class:`repro.core.exec.WorkerPool` (the ``"process"`` backend), and
    ``timeout`` bounds each case's wall time — an overrunning worker is
    killed and its case becomes a ``"hung"`` :class:`CaseResult`
    instead of stalling the campaign.  Result ordering is the case
    order regardless of worker count.

    ``snapshot=True`` with a :class:`PrefixFactory` checkpoints the
    guest once per trigger function at workload-ready and replays only
    the post-trigger suffix per cell; results are bit-identical to
    fresh runs (cells whose trigger would fire inside the prefix, and
    every plan case, run fresh).

    ``results`` (a :class:`~repro.core.results.ResultStore`) journals
    every finished case durably as the run drains; ``resume=True``
    additionally satisfies already-journaled cases from the store
    instead of re-running them.  ``results_key`` supplies extra
    campaign-identity components (images, heuristics, workload) for the
    store's content-addressed key.

    ``guided=True`` replaces the fixed schedule with the
    coverage-guided :class:`~repro.core.search.GuidedFrontier`:
    ``cases``, cells only, become the search space, the scheduler runs
    the highest-novelty cases first, prunes subsumed ones and expands
    promising call ordinals, and ``budget_cases`` caps how many cases
    actually execute.
    """
    from .exec.engine import execute_campaign

    return execute_campaign(app, factory, platform, profiles, cases,
                            jobs=jobs, timeout=timeout, backend=backend,
                            snapshot=snapshot, telemetry=telemetry,
                            results=results, results_key=results_key,
                            resume=resume, guided=guided,
                            budget_cases=budget_cases)
