"""The parallel campaign engine and its machine-readable run summary.

§6.2 reports profiling times "on the order of minutes" and §5 campaigns
enumerate one monitored test per (function, error code) — a fault space
with no cross-case data flow.  This module fans those cases out over a
:class:`~repro.core.exec.pool.WorkerPool` while preserving the exact
result ordering of a serial run, and distills each run into a
:class:`RunSummary` (cases/sec, cache hits, worker utilization) that
downstream tooling can parse as JSON.

A finished case has one status, its outcome's: the summary counts the
campaign's results by it, the journal records it, and with telemetry on
the same loop records ``repro_cases_total`` by it, so the JSON summary,
the journal and ``repro stats`` read the same numbers.

With a telemetry context attached, workers capture their controllers'
injection events and metrics in-memory and ship them back with each
:class:`CaseResult`; the engine re-emits them *in case order*, so the
JSONL event stream is deterministic whatever the backend or job count.

Most cells of an exhaustive campaign never reach their injection point,
and all of one function's such cells run the same workload to the same
end.  The golden run's call counts say which cells those are before any
case is sent, so :class:`NotReachedCases` runs the first of each
function and the parent derives the rest: no derived result crosses a
worker's pipe, and every backend derives the same cases.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ...errors import ResultsError
from ...obs.telemetry import Telemetry, as_telemetry
from ...platform import Platform
from ..controller import (REPORT_SCHEMA, STATUS_CRASHED, STATUS_HUNG,
                          Controller, TestOutcome)
from ..controller.replay import replay_script
from ..controller.triggers import RANDOM_RULE
from ...runtime import CODE_CACHE, SnapshotCache
from ..profiles import LibraryProfile
from .pool import (PROCESS, TASK_HUNG, TASK_OK, RemoteTaskError,
                   TaskResult, WorkerPool, exception_line)

_log = logging.getLogger(__name__)


@dataclass
class RunSummary:
    """One engine run, condensed for dashboards and scripts.

    Shares the ``app`` / ``outcome`` / ``duration`` key triple with
    :class:`~repro.core.campaign.CampaignReport` so downstream consumers
    parse a single schema.
    """

    kind: str                   # "campaign" | "profile"
    app: str
    outcome: str                # "ok" | "hung" | "crashes"
    duration: float             # wall-clock seconds
    cases: int = 0
    #: a campaign's cases by outcome status (``normal``, ``error-exit``,
    #: ``SIGABRT``, ``crashed``, ...), as journaled; empty for profiling
    outcomes: Dict[str, int] = field(default_factory=dict)
    jobs: int = 1
    backend: str = "serial"
    timeout: Optional[float] = None
    cases_per_second: float = 0.0
    busy_seconds: float = 0.0
    worker_utilization: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: cases that took an earlier not-reached run's result instead of
    #: running (see :class:`NotReachedCases`); the same on every backend
    #: and on resume, where restored cases count as they were journaled
    derived: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "kind": self.kind,
            "app": self.app,
            "outcome": self.outcome,
            "duration": round(self.duration, 6),
            "cases": self.cases,
            "outcomes": dict(self.outcomes),
            "derived": self.derived,
            "jobs": self.jobs,
            "backend": self.backend,
            "timeout": self.timeout,
            "cases_per_second": round(self.cases_per_second, 3),
            "busy_seconds": round(self.busy_seconds, 6),
            "worker_utilization": round(self.worker_utilization, 4),
            "cache": {"hits": self.cache_hits,
                      "misses": self.cache_misses},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _summarize(app: str, outcome: str, duration: float, results: List[Any],
               waits: List[float], pool: WorkerPool,
               tele: Telemetry) -> RunSummary:
    """Count a campaign's results, in case order, into its summary.

    ``waits`` holds each case's queue wait (0 for a case the pool did
    not run).  With telemetry on, the same loop records the
    ``repro_case*`` metrics; off, ``tele.metrics`` discards them.
    """
    metrics = tele.metrics
    cases = metrics.counter("repro_cases_total",
                            "Campaign cases by outcome status", ("status",))
    seconds = metrics.histogram("repro_case_seconds", "Per-case wall time")
    queue = metrics.histogram("repro_case_queue_wait_seconds",
                              "Per-case queue wait")
    utilization = metrics.gauge("repro_worker_utilization",
                                "busy / (duration * jobs) of this run")
    derived = metrics.counter(
        "repro_cases_derived_total",
        "Campaign cases that took an earlier not-reached run's result "
        "instead of running")
    summary = RunSummary(kind="campaign", app=app, outcome=outcome,
                         duration=duration, cases=len(results),
                         jobs=pool.jobs, backend=pool.backend,
                         timeout=pool.timeout)
    outcomes = summary.outcomes
    for result, waited in zip(results, waits):
        status = result.outcome.status
        outcomes[status] = outcomes.get(status, 0) + 1
        cases.inc(status=status)
        if result.derived:
            summary.derived += 1
            derived.inc()
        summary.busy_seconds += result.seconds
        seconds.observe(result.seconds)
        queue.observe(waited)
    if duration > 0:
        summary.cases_per_second = len(results) / duration
        if pool.jobs > 0:
            summary.worker_utilization = min(
                1.0, summary.busy_seconds / (duration * pool.jobs))
            utilization.set(summary.worker_utilization)
    return summary


def _worker_label() -> str:
    """Who am I: ``proc-<pid>`` in a forked worker, else ``main``."""
    if multiprocessing.parent_process() is not None:
        return f"proc-{os.getpid()}"
    return "main"


def _case_runner(factory, platform: Platform,
                 profiles: Mapping[str, LibraryProfile], case,
                 capture: bool = False, observe: bool = False,
                 parked: Optional[SnapshotCache] = None):
    """Run one fault case in isolation; shared by every backend.

    With ``capture``, the controller gets a private in-memory telemetry
    context whose events and metrics travel back on the result (they
    pickle, so this works across the process backend too).

    With ``observe``, the worker additionally collects the raw
    classification signals — the guest-filesystem output digest and the
    block-coverage map — which ride back on the result for the *parent*
    to classify and journal (deterministic across backends).

    With ``parked``, the campaign's pool of post-load processes, the
    case's controller takes its processes from the pool and returns
    them once the result is built (see ``Controller.make_process``).
    A case that raises outside the monitored run returns nothing: its
    processes' state is suspect, so later cases build new ones.
    """
    case_telemetry = _case_telemetry() if capture else None
    lfi = Controller(platform, dict(profiles), case.plan(),
                     telemetry=case_telemetry, coverage=observe)
    lfi._parked = parked
    session = factory(lfi)
    outcome = lfi.run_test(session, test_id=case.case_id())
    result = _case_result(lfi, case, outcome, lfi.injections > 0,
                          case_telemetry, observe)
    lfi._return_parked()
    return result


def _case_telemetry() -> Telemetry:
    """A private in-memory telemetry context for one case: its events
    and metrics travel back on the result (they pickle, so this works
    across the process backend too)."""
    from ...obs.events import MemorySink
    from ...obs.tracing import NULL_TRACER
    return Telemetry(sinks=[MemorySink()], tracer=NULL_TRACER)


def _case_result(lfi: Controller, case, outcome: TestOutcome, fired: bool,
                 case_telemetry: Optional[Telemetry], observe: bool):
    """The :class:`CaseResult` of a monitored run that just finished on
    ``lfi`` — fresh or replayed from a snapshot."""
    from ..campaign import CaseResult, injection_sites

    result = CaseResult(case=case, outcome=outcome, fired=fired,
                        instructions=lfi.instructions_executed,
                        sites=injection_sites(
                            lfi.logbook.for_test(case.case_id())),
                        calls=lfi.engine.call_counts.get(case.function, 0),
                        firings=lfi.engine.firings)
    if case_telemetry is not None:
        (sink,) = case_telemetry.events.sinks
        # no wall-clock ``ts``: the parent stamps each event as it
        # re-emits it, and without it a record is the same on every run
        result.events = [event.to_dict(timestamp=False)
                         for event in sink.events]
        result.metrics = case_telemetry.metrics.snapshot()
        result.worker = _worker_label()
    if observe:
        _observe_result(result, lfi)
    return result


def _observe_result(result, lfi: Controller) -> None:
    """Attach the classification signals to a worker-side result."""
    from ...runtime.blocks import export_coverage
    from ..results.matrix import output_digest

    result.output = output_digest(lfi)
    result.coverage = export_coverage(lfi.coverage_map())


class NotReachedCases:
    """The campaign parent's record of which cases cannot fire, and the
    one run per function that stands in for them.

    Most cells of an exhaustive campaign never reach their injection
    point, and all such cells of one function run the same workload to
    the same end.  The golden run already says which ones they are
    (:meth:`~repro.core.search.GoldenBound.cannot_fire`), so the parent
    marks them before a batch goes to the pool.  The first one of each
    function in schedule order is that function's *representative* and
    runs; the others are held back and settled as the in-order drain
    reaches them.  The representative comes first, so its result is
    known by then: when it has ``firings == 0`` and ``calls == c_f``
    (the golden count), a held case takes a copy of it, relabelled,
    without building a controller or running the workload; otherwise
    the held case runs after all.  A restored record serves as its
    function's representative when it was journaled with ``firings``;
    one journaled before that field existed cannot, and the next case
    that cannot fire takes the role.

    Soundness rule.  Cell B = (f, action_b, ordinal k_b) may take the
    result of an earlier case A of the same campaign and function when
    all of these hold:

    * A is also a cell;
    * A's run returned a result (it did not raise);
    * A's ``TriggerEngine.firings`` is 0 (firings, not ``fired``:
      ``fired`` counts injections only);
    * k_b > c, where c is A's final ``call_counts[f]``.

    Both plans are one INJECT_NTH trigger on f.  So both runs load the
    same shim text, evaluate one trigger per call of f, never consult
    the RNG and never go dormant, and the two runs stay identical until
    one fires.  B fires only at its k_b-th call of f; A's identical run
    never made that call, so B never fires, and B's run is A's run.
    Here c is the golden count c_f, checked against A's own ``calls``,
    and k_b > c_f because B cannot fire.

    A derived result differs from what running B gives only in what
    names the case: ``case``, ``outcome.test_id``, ``outcome.replay_xml``
    (the empty replay script named ``replay-<case id>``), the ``test``
    field of its captured ``test`` event, and the wall-clock
    ``seconds``, which the parent sets to the time the copy took.
    Everything else — ``worker`` and snapshot record included — is
    A's, and it shares no mutable container with A.
    """

    def __init__(self, golden) -> None:
        #: the :class:`~repro.core.search.GoldenBound` of the campaign
        self.golden = golden
        #: function -> its representative's result once it qualified;
        #: None while it runs, or for good when it did not qualify
        self._runs: Dict[str, Any] = {}

    def plan(self, batch: List[Any], done: Mapping[int, Any]):
        """Mark a batch before it goes to the pool.

        ``done`` maps the batch positions restored from the journal to
        their results.  Returns ``(representatives, held)``:
        the positions to run whose result :meth:`remember` must see, and
        the positions that cannot fire behind an earlier representative
        (restored ones included; the engine relabels those, see
        :meth:`stands_in`).
        """
        representatives, held = set(), set()
        for pos, case in enumerate(batch):
            if not self.golden.cannot_fire(case):
                continue
            if case.function in self._runs:
                held.add(pos)
            elif pos not in done:
                self._runs[case.function] = None
                representatives.add(pos)
            else:
                # a completed run journaled without ``firings`` cannot
                # tell whether it fired: the next such case takes over.
                # A failed task's case (crashed or hung) has none
                # either, and settles its function all the same.
                result = done[pos]
                if result.firings is not None or result.outcome.status \
                        in (STATUS_CRASHED, STATUS_HUNG):
                    self.remember(case, result)
        return representatives, held

    def remember(self, case, result) -> None:
        """Settle ``case``'s function on its representative's result."""
        qualified = (result.firings == 0 and result.calls
                     == (self.golden.calls(case.function) or 0))
        self._runs[case.function] = (_copy_result(result) if qualified
                                     else None)

    def stands_in(self, case) -> bool:
        """Whether a held ``case`` takes its representative's result."""
        return self._runs.get(case.function) is not None

    def derive(self, case):
        """A held ``case``'s result, copied from its representative's,
        or None when that did not qualify and the case must run."""
        run = self._runs.get(case.function)
        if run is None:
            return None
        case_id = case.case_id()
        result = _copy_result(run, case=case, derived=True)
        result.outcome.test_id = case_id
        result.outcome.replay_xml = replay_script(
            (), name=f"replay-{case_id}")
        for event in result.events:
            if event.get("kind") == "test":
                event["fields"]["test"] = case_id
        return result


def _copy_result(result, **changes):
    """A copy of ``result`` sharing no mutable container with it.

    Every container a result holds is JSON-shaped (it is journaled as
    JSON), so a walk over dicts and lists copies it, and the coverage
    map, the largest, is flat and copies in one call.  The two
    dataclasses are rebuilt from their fields, which is what
    ``dataclasses.replace`` does without its per-call checks.
    """
    copy = _copy_fields(result)
    copy.outcome = _copy_fields(result.outcome)
    copy.events = _plain(result.events)
    copy.metrics = _plain(result.metrics)
    copy.snapshot = _plain(result.snapshot)
    copy.sites = _plain(result.sites)
    copy.coverage = _copy_coverage(result.coverage)
    for name, value in changes.items():
        setattr(copy, name, value)
    return copy


#: dataclass -> its field names, filled as :func:`_copy_fields` meets it
_FIELD_NAMES: Dict[type, tuple] = {}


def _copy_fields(obj):
    """A new instance of ``obj``'s dataclass built from the same field
    values through its constructor, which keeps the instance's compact
    attribute dict (attributes set outside the fields are not copied)."""
    cls = type(obj)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(
            f.name for f in dataclasses.fields(cls) if f.init)
    state = obj.__dict__
    return cls(**{name: state[name] for name in names})


def _plain(value):
    """A deep copy of JSON-shaped ``value``."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _copy_coverage(coverage):
    """A copy of an exported coverage record: scalars plus one flat
    ``{address: count}`` map (see ``runtime.blocks.export_coverage``)."""
    if coverage is None:
        return None
    copy = {key: _plain(value) for key, value in coverage.items()
            if key != "map"}
    if "map" in coverage:
        copy["map"] = dict(coverage["map"])
    return copy


def _golden_run(factory, platform: Platform,
                profiles: Mapping[str, LibraryProfile],
                functions: Iterable[str]):
    """Run the workload once with no faults: the campaign's anchor.

    The output digest anchors silent-corruption detection: a fired case
    whose run "succeeds" but leaves different files behind diverged
    silently.  The plan carries one sentinel trigger per campaign
    function at the unreachable ordinal: the dormant fast path proves
    each trigger dead on its first call, so the only bookkeeping the
    run pays for is call counting — which bounds the guided frontier's
    ordinal axis — and the digest is identical to a plain run's.  The
    controller also arms block coverage: the golden blocks seed the
    guided frontier's seen-set, so its novelty accounting starts from
    the fault-free path instead of rediscovering it case by case.

    Returns ``(digest, call_counts, blocks)``.  A workload that doesn't
    complete normally even fault-free has no trustworthy golden output
    and yields ``(None, counts, blocks)`` (both are still true of the
    un-injected execution, so they remain sound) — classification then
    degrades gracefully (no silent-corruption verdicts) rather than
    guessing.  A workload that raises yields ``(None, None, set())``:
    its counts are unknown, not zero, so no case is predicted not to
    fire.
    """
    from ..controller.triggers import NEVER_ORDINAL
    from ..results.matrix import output_digest
    from ..scenario.model import (INJECT_NTH, ErrorCode, FunctionTrigger,
                                  Plan)

    plan = Plan(name="golden")
    for name in functions:
        plan.add(FunctionTrigger(function=name, mode=INJECT_NTH,
                                 nth=NEVER_ORDINAL,
                                 actions=(ErrorCode(-1, "EIO"),),
                                 calloriginal=False))
    try:
        lfi = Controller(platform, dict(profiles), plan, coverage=True)
        outcome = lfi.run_test(factory(lfi), test_id="golden")
        counts = {name: int(count)
                  for name, count in lfi.engine.call_counts.items()}
        blocks = set(lfi.coverage_map())
        if outcome.status != "normal":
            return None, counts, blocks
        return output_digest(lfi), counts, blocks
    except Exception:
        _log.debug("the golden run raised", exc_info=True)
        return None, None, set()


def _finish_case(case, task: TaskResult, pool: WorkerPool):
    """One drained pool task → its final :class:`CaseResult`: the one
    place a task's status turns into a case's."""
    from ..campaign import CaseResult

    if task.status == TASK_OK:
        result = task.value
        result.seconds = task.seconds
        return result
    if task.status == TASK_HUNG:
        detail = (f"worker exceeded the {pool.timeout:g}s per-case "
                  f"timeout" if pool.timeout else "worker hung")
        return CaseResult(
            case=case,
            outcome=TestOutcome(test_id=case.case_id(),
                                status=STATUS_HUNG, detail=detail),
            fired=True, seconds=task.seconds)
    # crashed worker, or the harness itself raised: the detail is one
    # line, the same on every backend (see ``exception_line``)
    error = task.error
    if error is None:
        detail = "worker died"
    elif isinstance(error, RemoteTaskError):
        detail = str(error)
    else:
        _log.debug("case %s raised outside the monitored run",
                   case.case_id(), exc_info=error)
        detail = exception_line(error)
    return CaseResult(
        case=case,
        outcome=TestOutcome(test_id=case.case_id(),
                            status=STATUS_CRASHED, detail=detail),
        fired=True, seconds=task.seconds)


def _check_random_rule(campaign: str, meta: Mapping[str, Any],
                       finished: Mapping[str, Mapping[str, Any]]) -> None:
    """Refuse to resume probabilistic records rolled by another rule.

    A case key digests the case's plan, not the rule that rolled it, so
    a 6.x journal (one draw per trigger per call; its meta names no
    rule) would otherwise restore results this version would not
    reproduce.  Records of exact-ordinal cases hold under either rule.
    """
    if meta.get("random_rule") == RANDOM_RULE:
        return
    for record in finished.values():
        if "~p" in record.get("case", ""):
            raise ResultsError(
                f"campaign {campaign} was journaled under the "
                f"{meta.get('random_rule', 'per-call')} random rule, not "
                f"{RANDOM_RULE!r}; its probabilistic case "
                f"{record['case']} would not reproduce: start a fresh "
                f"results directory")


def execute_campaign(app: str,
                     factory,
                     platform: Platform,
                     profiles: Mapping[str, LibraryProfile],
                     cases: Iterable[Any],
                     *, jobs: int = 1,
                     timeout: Optional[float] = None,
                     backend: Optional[str] = None,
                     snapshot: bool = False,
                     telemetry=None,
                     results=None,
                     results_key: Optional[Mapping[str, Any]] = None,
                     resume: bool = False,
                     guided: bool = False,
                     budget_cases: Optional[int] = None):
    """Fan the campaign's cases, cells and plan cases, out over a pool.

    Results come back in case order regardless of worker count, so a
    ``jobs=4`` report is ordered identically to a serial one.  A case
    whose worker exceeds ``timeout`` becomes a ``"hung"``
    :class:`~repro.core.campaign.CaseResult`; a worker that dies (or a
    workload that raises outside the monitored guest) becomes a
    ``"crashed"`` one — neither stalls nor aborts the run.  The pool's
    workers are stopped before this returns or raises.

    ``snapshot=True`` with a two-phase factory
    (:class:`~repro.core.campaign.PrefixFactory`) routes cases through
    the :class:`~repro.core.exec.snapshot.SnapshotRunner`: the workload
    prefix executes once per trigger function, and each cell replays
    only the post-trigger suffix from the checkpoint — results are
    bit-identical to fresh runs.  Plan cases and opaque factories
    silently run fresh.

    With ``telemetry`` attached, every case's injection events are
    re-emitted into the shared event log in case order (tagged with the
    case id and the worker that ran it), worker-side metrics are merged
    into the shared registry, and the ``repro_case*`` status, time and
    queue-wait metrics are recorded over every case.

    ``results`` attaches a durable
    :class:`~repro.core.results.ResultStore`: every finished case is
    journaled **from the parent, in case order, as the pool drains** —
    under every backend — so a crashed worker, an OOM-killed run or a
    ``^C`` loses at most the in-flight cases.  ``resume=True``
    satisfies cases already journaled under the same content-addressed
    campaign key (see ``results_key``) from the store instead of
    re-running them; their stored events and metrics are re-emitted in
    case order, so the final report, event stream and metrics match an
    uninterrupted run.

    One loop drives every campaign through a scheduler (see
    :mod:`repro.core.search`): by default an
    :class:`~repro.core.search.ExhaustiveSchedule` runs every case in
    one batch.  ``guided=True`` hands scheduling to the coverage-guided
    :class:`~repro.core.search.GuidedFrontier`: ``cases``, cells only,
    become the search space rather than the execution list (a plan
    case is a :class:`ValueError`), ``budget_cases`` caps
    how many cases actually run (without ``guided`` it raises
    :class:`ValueError`), and the frontier is fed every finished case's
    coverage between batches.  Because batch width is fixed and
    observations apply in batch order, the schedule is a pure function
    of the case list and the per-case coverage — identical across
    backends.  Resume replays the *scheduler*, not the journal: each
    scheduled batch is checked against the journal and already-finished
    cases are restored (and observed) instead of re-run, so an
    interrupted campaign resumes into exactly the schedule the
    uninterrupted run would have produced.
    """
    from ..campaign import CampaignReport
    from ..results import case_digest, restore_result
    from ..results.matrix import classify_result
    from ..search import ExhaustiveSchedule, GoldenBound, GuidedFrontier

    if budget_cases is not None and not guided:
        raise ValueError("budget_cases only caps guided campaigns; set "
                         "guided as well, or drop budget_cases")
    tele = as_telemetry(telemetry)
    pool = WorkerPool(jobs=jobs, backend=backend, timeout=timeout)
    case_list = list(cases)
    profiles = dict(profiles)
    capture = tele.enabled

    # One golden run, in the parent, before any case: its digest anchors
    # classification (a digest already journaled wins, so resumed runs
    # classify against the same anchor), its call counts and coverage
    # seed the guided frontier, and it leaves the shared code cache warm
    # for forked workers to inherit.  The guest is deterministic, so
    # re-running it on resume reproduces the identical search space.
    cache_before = CODE_CACHE.stats()
    golden: Optional[str] = None
    call_counts: Optional[Dict[str, int]] = None
    golden_blocks: set = set()
    if case_list:
        golden, call_counts, golden_blocks = _golden_run(
            factory, platform, profiles,
            sorted({function for case in case_list
                    for function in case.plan().functions()}))

    # what the golden counts prove: which cases cannot fire, for the
    # frontier's pruning and for deriving those cases in this process.
    # The frontier refuses plan cases before the journal is touched.
    bound = GoldenBound(call_counts)
    not_reached = NotReachedCases(bound)
    if guided:
        schedule = GuidedFrontier(case_list, budget_cases=budget_cases,
                                  call_counts=bound,
                                  baseline_blocks=golden_blocks,
                                  telemetry=tele)
    else:
        schedule = ExhaustiveSchedule(case_list)

    journal = None
    finished: Dict[str, Mapping[str, Any]] = {}
    if results is not None:
        identity = dict(results_key or {})
        identity.setdefault("app", app)
        identity.setdefault("platform", platform)
        identity.setdefault("profiles", profiles)
        journal = results.open_campaign(
            results.campaign_key(**identity), app=app)
        meta = journal.meta()
        if resume:
            finished = journal.finished()
            _check_random_rule(journal.key, meta, finished)
        golden = meta.get("golden", golden)
        journal.set_meta(golden=golden,
                         cases_expected=(min(budget_cases, len(case_list))
                                         if budget_cases is not None
                                         else len(case_list)),
                         call_counts=call_counts,
                         random_rule=RANDOM_RULE,
                         **({"guided": True} if guided else {}))

    # Classification runs at the parent whenever results are durable or
    # the frontier needs them: workers ship raw signals (status, output
    # digest, coverage) and the parent assigns the failure-mode class,
    # so every backend — and the snapshot path — classifies
    # identically.
    observe = journal is not None or guided

    runner = None
    if snapshot:
        from .snapshot import SnapshotRunner
        runner = SnapshotRunner(app, factory, platform, profiles,
                                capture=capture, telemetry=tele,
                                observe=observe)
        if not runner.supported:
            runner = None
    # processes parked right after loading: each case takes them over
    # instead of loading its own (the snapshot runner keeps its own pool
    # for its fallbacks).  A forked worker inherits the pool from the
    # parent, where it is empty because the parent runs no case from
    # the start (the golden run keeps its own pool).
    parked = SnapshotCache()

    def run_one(case):
        if runner is not None:
            return runner.run_case(case)
        return _case_runner(factory, platform, profiles, case, capture,
                            observe, parked)

    if tele.enabled:
        tele.events.emit("campaign.start", app=app, cases=len(case_list),
                         jobs=pool.jobs, backend=pool.backend,
                         timeout=pool.timeout,
                         snapshot=runner is not None,
                         **({"guided": True} if guided else {}))
    if runner is not None and pool.backend == PROCESS:
        # build every checkpoint in the parent: the workers, forked on
        # the first batch, inherit guests parked at the snapshot point
        # with an empty dirty-page set.  Guided expansion only deepens
        # ordinals of enumerated (function, action) pairs, so the seed
        # list covers every checkpoint the frontier can need.
        runner.warm([case for case in case_list
                     if case_digest(case) not in finished]
                    if finished else case_list)

    results_list: List[Any] = []
    waits: List[float] = []         # queue wait per result, 0 if not sent
    restored_n = 0
    started = time.perf_counter()
    try:
        while True:
            batch = schedule.next_batch()
            if not batch:
                break
            keys = ([case_digest(case) for case in batch]
                    if journal is not None else [""] * len(batch))
            # results by batch position: restored from the journal
            # here, drained from the pool or derived below
            done: Dict[int, Any] = {}
            waited: Dict[int, float] = {}   # of the positions sent
            for pos, key in enumerate(keys):
                record = finished.get(key)
                if record is None:
                    continue
                result = restore_result(batch[pos], record)
                if result.outcome_class is None:
                    # a legacy record: same inputs, same class
                    result.outcome_class = classify_result(result, golden)
                done[pos] = result
            restored = set(done)
            representatives, held = not_reached.plan(batch, done)
            to_run = [pos for pos in range(len(batch))
                      if pos not in done and pos not in held]
            waiting = deque(sorted(held - restored))
            rerun: List[int] = []
            cursor = 0              # the next batch position to journal

            def finish(pos: int, result) -> None:
                # the failure-mode class is assigned here, in the
                # parent, from the worker's raw signals, so it is
                # backend-independent
                if observe:
                    result.outcome_class = classify_result(result, golden)
                done[pos] = result

            def settle(upto: int) -> None:
                # Derive the held cases before ``upto``, the next case
                # still at the pool: each one's representative came
                # earlier, so its result is known.  Then journal every
                # finished case in batch order; the flush-per-record
                # journal is what --resume picks up after a crash, so
                # this must not wait for the pool to finish.
                nonlocal cursor
                while waiting and waiting[0] < upto:
                    pos = waiting.popleft()
                    began = time.perf_counter()
                    result = not_reached.derive(batch[pos])
                    if result is None:
                        rerun.append(pos)
                        continue
                    result.seconds = time.perf_counter() - began
                    finish(pos, result)
                while cursor in done:
                    if journal is not None and cursor not in restored:
                        journal.record(keys[cursor], batch[cursor],
                                       done[cursor])
                    cursor += 1

            def drain(sent: List[int]):
                def progress(task: TaskResult) -> None:
                    # runs in the parent as each sent case drains, in
                    # order
                    pos = sent[task.index]
                    result = _finish_case(batch[pos], task, pool)
                    waited[pos] = task.waited
                    if pos in representatives:
                        not_reached.remember(batch[pos], result)
                    finish(pos, result)
                    settle(sent[task.index + 1]
                           if task.index + 1 < len(sent) else len(batch))
                return progress

            settle(to_run[0] if to_run else len(batch))
            pool.map(run_one, [batch[pos] for pos in to_run],
                     progress=drain(to_run))
            if rerun:
                # held cases whose representative fired, raised or
                # counted other calls than the golden run: they run
                # after all (still journaled in batch order)
                pool.map(run_one, [batch[pos] for pos in rerun],
                         progress=drain(rerun))

            for pos, case in enumerate(batch):
                result = done[pos]
                if pos in restored:
                    restored_n += 1
                    if pos in held and not_reached.stands_in(case):
                        result.derived = True
                # feed back in batch order — scheduling, events and the
                # journal all share this one deterministic order
                schedule.observe(case, result, restored=pos in restored)
                if tele.enabled:
                    _replay_case_telemetry(tele, case, result)
                results_list.append(result)
                waits.append(waited.get(pos, 0.0))
    finally:
        pool.close()
        if journal is not None:
            journal.close()
    duration = time.perf_counter() - started

    replayed = len(results_list) - restored_n
    report = CampaignReport(app=app, results=results_list,
                            duration=duration)
    if journal is not None:
        report.resumed = {"skipped": restored_n, "replayed": replayed}
    report.summary = _summarize(app, report.outcome(), duration,
                                results_list, waits, pool, tele)
    if tele.enabled:
        _record_execution_metrics(tele, results_list, cache_before)
        if journal is not None:
            tele.events.emit("campaign.resume", app=app,
                             campaign=journal.key, resume=resume,
                             skipped=restored_n, replayed=replayed)
            if restored_n:
                tele.metrics.counter(
                    "repro_result_store_hits_total",
                    "Campaign cases satisfied from the durable result "
                    "journal").inc(restored_n)
            if replayed:
                tele.metrics.counter(
                    "repro_result_store_misses_total",
                    "Campaign cases executed and journaled durably"
                ).inc(replayed)
        summary = schedule.summary()
        if summary is not None:
            tele.events.emit("campaign.guided", app=app,
                             enumerated=len(case_list), **summary)
        end_fields = dict(app=app, outcome=report.outcome(),
                          duration=round(duration, 6),
                          cases=len(results_list))
        if runner is not None:
            stats = runner.cache.stats()
            # replays and fallbacks are counted from the drained results,
            # so they do not depend on which process ran each case: a
            # fallback ran to a result (its firings are known) and has
            # no snapshot record
            end_fields.update(
                snapshots_built=stats["built"],
                snapshot_replays=sum(1 for r in results_list
                                     if getattr(r, "snapshot", None)),
                snapshot_fallbacks=sum(
                    1 for r in results_list
                    if r.firings is not None
                    and not getattr(r, "snapshot", None)))
        tele.events.emit("campaign.end", **end_fields)
    return report


def _record_execution_metrics(tele: Telemetry, results,
                              cache_before: Mapping[str, int]) -> None:
    """Guest-execution counters for the run: instruction totals, a
    per-case MIPS gauge, and this process's shared-code-cache activity.

    The cache deltas cover the parent process only, golden run
    included — under the process backend each worker compiles what the
    parent had not warmed before the fork and keeps it for its later
    cases, but the parent never sees those compilations.
    """
    instructions = tele.metrics.counter(
        "repro_instructions_total",
        "Guest instructions executed by campaign cases")
    mips = tele.metrics.gauge(
        "repro_case_mips",
        "Guest MIPS (instructions / wall second / 1e6) per case",
        ("case",))
    for result in results:
        if result.instructions:
            instructions.inc(result.instructions)
            # a derived case's seconds are a copy's, not its guest's
            if result.seconds > 0 and not result.derived:
                mips.set(result.instructions / result.seconds / 1e6,
                         case=result.case.case_id())
    cache_now = CODE_CACHE.stats()

    def delta(*names: str) -> int:
        return sum(cache_now[n] - cache_before.get(n, 0) for n in names)

    compiled = delta("blocks_compiled")
    hits = delta("template_hits", "module_hits")
    if compiled:
        tele.metrics.counter(
            "repro_blocks_compiled_total",
            "Basic blocks translated to closures").inc(compiled)
    if hits:
        tele.metrics.counter(
            "repro_block_cache_hits_total",
            "Shared code cache hits (templates bound + modules reused)"
        ).inc(hits)
    evicted = delta("evictions")
    if evicted:
        tele.metrics.counter(
            "repro_code_cache_evictions_total",
            "Decoded streams / module code LRU-evicted").inc(evicted)


def _replay_case_telemetry(tele: Telemetry, case, result) -> None:
    """Re-emit one case's captured worker-side telemetry, in order.

    Each captured event is re-sequenced into the parent log (tagged
    with the case id and worker); worker-side counters — per-function
    injections, trigger evaluations — merge into the parent registry.
    """
    from ..campaign import case_row

    worker = getattr(result, "worker", "") or "lost"
    for event in getattr(result, "events", ()):
        fields = dict(event.get("fields", {}),
                      case=case.case_id(), worker=worker)
        tele.events.emit(event.get("kind", "event"),
                         severity=event.get("severity", "info"), **fields)
    metrics = getattr(result, "metrics", None)
    if metrics:
        tele.metrics.merge(metrics)
    info = getattr(result, "snapshot", None)
    if info:
        # restore bookkeeping travels on the result (it crosses the
        # process-backend pickle boundary) and is recorded parent-side,
        # so the worker-captured stream stays bit-identical to a fresh
        # run's while the JSONL still carries snapshot efficiency
        tele.metrics.counter(
            "repro_snapshot_restores_total",
            "Checkpoint restores performed for campaign replay",
            ("workload",)).inc(workload=info.get("workload", ""))
        tele.metrics.histogram(
            "repro_snapshot_restore_seconds",
            "Wall time of one checkpoint restore").observe(
                info.get("seconds", 0.0))
        tele.metrics.histogram(
            "repro_snapshot_dirty_pages",
            "Pages rewritten by one checkpoint restore").observe(
                info.get("dirty_pages", 0))
        tele.events.emit(
            "snapshot", action="restored", case=case.case_id(),
            group=info.get("group"), dirty_pages=info.get("dirty_pages"),
            bytes=info.get("bytes"),
            seconds=round(info.get("seconds", 0.0), 6), worker=worker)
    tele.events.emit(
        "case", case=case.case_id(), **case_row(case),
        status=result.outcome.status, fired=result.fired,
        seconds=round(result.seconds, 6), worker=worker,
        instructions=getattr(result, "instructions", 0))
