"""The parallel campaign engine and its machine-readable run summary.

§6.2 reports profiling times "on the order of minutes" and §5 campaigns
enumerate one monitored test per (function, error code) — a fault space
with no cross-case data flow.  This module fans those cases out over a
:class:`~repro.core.exec.pool.WorkerPool` while preserving the exact
result ordering of a serial run, and distills each run into a
:class:`RunSummary` (cases/sec, cache hits, worker utilization) that
downstream tooling can parse as JSON.

Counters live in a :class:`~repro.obs.metrics.MetricsRegistry` — the
summary is *derived* from the registry (``RunSummary.from_metrics``)
rather than hand-maintained, so the JSON summary, the Prometheus
exposition and ``repro stats`` all read the same numbers.

With a telemetry context attached, workers capture their controllers'
injection events and metrics in-memory and ship them back with each
:class:`CaseResult`; the engine re-emits them *in case order*, so the
JSONL event stream is deterministic whatever the backend or job count.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from ...obs.metrics import MetricsRegistry
from ...obs.telemetry import NULL_TELEMETRY, Telemetry, as_telemetry
from ...platform import Platform
from ..controller import (REPORT_SCHEMA, STATUS_CRASHED, STATUS_HUNG,
                          Controller, TestOutcome)
from ...runtime import CODE_CACHE
from ..profiles import LibraryProfile
from .pool import (PROCESS, TASK_CRASHED, TASK_HUNG, TASK_OK, TaskResult,
                   WorkerPool)


@dataclass
class RunSummary:
    """One engine run, condensed for dashboards and scripts.

    Shares the ``app`` / ``outcome`` / ``duration`` key triple with
    :class:`~repro.core.campaign.CampaignReport` and
    :class:`~repro.core.controller.TestReport` so downstream consumers
    parse a single schema.
    """

    kind: str                   # "campaign" | "profile"
    app: str
    outcome: str                # "ok" | "hung" | "crashes"
    duration: float             # wall-clock seconds
    cases: int = 0
    ok: int = 0
    errors: int = 0
    hung: int = 0
    crashed: int = 0
    jobs: int = 1
    backend: str = "serial"
    timeout: Optional[float] = None
    cases_per_second: float = 0.0
    busy_seconds: float = 0.0
    worker_utilization: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_memory_hits: int = 0

    @classmethod
    def from_metrics(cls, kind: str, app: str, outcome: str,
                     duration: float, registry: MetricsRegistry,
                     *, jobs: int = 1, backend: str = "serial",
                     timeout: Optional[float] = None,
                     cache_hits: int = 0, cache_misses: int = 0,
                     cache_memory_hits: int = 0) -> "RunSummary":
        """Derive the summary from a run's metrics registry.

        The registry (see :func:`record_tasks`) is the single source of
        truth for the per-status counts, busy time and utilization; this
        constructor only adds run identity and the wall clock.
        """
        cases = registry.counter("repro_cases_total",
                                 labelnames=("status",))
        seconds = registry.histogram("repro_case_seconds")
        utilization = registry.gauge("repro_worker_utilization")
        n = int(cases.total())
        return cls(
            kind=kind, app=app, outcome=outcome, duration=duration,
            cases=n,
            ok=int(cases.value(status=TASK_OK)),
            errors=int(cases.value(status="error")),
            hung=int(cases.value(status=TASK_HUNG)),
            crashed=int(cases.value(status=TASK_CRASHED)),
            jobs=jobs, backend=backend, timeout=timeout,
            cases_per_second=(n / duration) if duration > 0 else 0.0,
            busy_seconds=seconds.total_sum(),
            worker_utilization=utilization.value(),
            cache_hits=cache_hits, cache_misses=cache_misses,
            cache_memory_hits=cache_memory_hits)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "kind": self.kind,
            "app": self.app,
            "outcome": self.outcome,
            "duration": round(self.duration, 6),
            "cases": self.cases,
            "ok": self.ok,
            "errors": self.errors,
            "hung": self.hung,
            "crashed": self.crashed,
            "jobs": self.jobs,
            "backend": self.backend,
            "timeout": self.timeout,
            "cases_per_second": round(self.cases_per_second, 3),
            "busy_seconds": round(self.busy_seconds, 6),
            "worker_utilization": round(self.worker_utilization, 4),
            "cache": {"hits": self.cache_hits,
                      "misses": self.cache_misses,
                      "memory_hits": self.cache_memory_hits},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def record_tasks(registry: MetricsRegistry, tasks: List[TaskResult],
                 pool: WorkerPool, duration: float) -> None:
    """Record one pool run's task results into a metrics registry."""
    cases = registry.counter("repro_cases_total",
                             "Campaign cases by final status", ("status",))
    seconds = registry.histogram("repro_case_seconds",
                                 "Per-case wall time")
    waits = registry.histogram("repro_case_queue_wait_seconds",
                               "Per-case queue wait")
    utilization = registry.gauge("repro_worker_utilization",
                                 "busy / (duration * jobs) of this run")
    busy = 0.0
    for task in tasks:
        cases.inc(status=task.status)
        seconds.observe(task.seconds)
        waits.observe(task.waited)
        busy += task.seconds
    if duration > 0 and pool.jobs > 0:
        utilization.set(min(1.0, busy / (duration * pool.jobs)))


def summarize_tasks(kind: str, app: str, outcome: str, duration: float,
                    tasks: List[TaskResult], pool: WorkerPool,
                    *, cache_hits: int = 0, cache_misses: int = 0,
                    cache_memory_hits: int = 0,
                    registry: Optional[MetricsRegistry] = None
                    ) -> RunSummary:
    """Fold a pool run's task results into a :class:`RunSummary`.

    The tasks are recorded into ``registry`` (a fresh one when not
    given) and the summary is derived back out of it — one source of
    truth for counts, busy time and utilization.
    """
    if registry is None:
        registry = MetricsRegistry()
    record_tasks(registry, tasks, pool, duration)
    return RunSummary.from_metrics(
        kind, app, outcome, duration, registry,
        jobs=pool.jobs, backend=pool.backend, timeout=pool.timeout,
        cache_hits=cache_hits, cache_misses=cache_misses,
        cache_memory_hits=cache_memory_hits)


def _worker_label() -> str:
    """Who am I: the pool thread, a forked worker, or the main thread."""
    parent = getattr(multiprocessing, "parent_process", None)
    if parent is not None and parent() is not None:
        return f"proc-{os.getpid()}"
    name = threading.current_thread().name
    return name if name.startswith("repro-pool") else "main"


def _case_runner(factory, platform: Platform,
                 profiles: Mapping[str, LibraryProfile], case,
                 capture: bool = False, observe: bool = False):
    """Run one fault case in isolation; shared by every backend.

    With ``capture``, the controller gets a private in-memory telemetry
    context whose events and metrics travel back on the result (they
    pickle, so this works across the process backend too).

    With ``observe``, the worker additionally collects the raw
    classification signals — the guest-filesystem output digest and the
    block-coverage map — which ride back on the result for the *parent*
    to classify and journal (deterministic across backends).
    """
    from ..campaign import CaseResult

    case_telemetry = None
    case_events = None
    if capture:
        from ...obs.events import BufferedEventLog
        from ...obs.metrics import BufferedMetricsRegistry
        from ...obs.tracing import NULL_TRACER
        case_events = BufferedEventLog()
        case_telemetry = Telemetry(events=case_events,
                                   metrics=BufferedMetricsRegistry(),
                                   tracer=NULL_TRACER)
    lfi = Controller(platform, dict(profiles), case.plan(),
                     telemetry=case_telemetry, coverage=observe)
    session = factory(lfi)
    outcome = lfi.run_test(session, test_id=case.case_id())
    from ..campaign import injection_sites
    result = CaseResult(case=case, outcome=outcome,
                        fired=lfi.injections > 0,
                        instructions=lfi.instructions_executed,
                        sites=injection_sites(
                            lfi.logbook.for_test(case.case_id())))
    if capture:
        result.events = case_events.drain_dicts()
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
    guessing; a workload that raises yields ``(None, {}, set())``.
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
        return None, {}, set()


def _finish_case(case, task: TaskResult, pool: WorkerPool):
    """One drained pool task → its final :class:`CaseResult`."""
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
    # crashed worker, or the harness itself raised
    return CaseResult(
        case=case,
        outcome=TestOutcome(test_id=case.case_id(),
                            status=STATUS_CRASHED,
                            detail=str(task.error or "worker died")),
        fired=True, seconds=task.seconds)


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
    """Fan the campaign's fault cases out over a worker pool.

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
    prefix executes once per trigger function, and each case replays
    only the post-trigger suffix from the checkpoint — results are
    bit-identical to fresh runs.  Opaque factories silently run fresh.

    With ``telemetry`` attached, every case's injection events are
    re-emitted into the shared event log in case order (tagged with the
    case id and the worker that ran it), worker-side metrics are merged
    into the shared registry, and pool/queue statistics are recorded.

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
    :class:`~repro.core.search.GuidedFrontier`: ``cases`` becomes the
    search space rather than the execution list, ``budget_cases`` caps
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
    from ..search import ExhaustiveSchedule, GuidedFrontier

    if budget_cases is not None and not guided:
        raise ValueError("budget_cases only caps guided campaigns; set "
                         "guided as well, or drop budget_cases")
    tele = as_telemetry(telemetry)
    pool = WorkerPool(jobs=jobs, backend=backend, timeout=timeout,
                      metrics=tele.metrics)
    case_list = list(cases)
    profiles = dict(profiles)
    capture = tele.enabled

    journal = None
    finished: Dict[str, Mapping[str, Any]] = {}
    meta: Mapping[str, Any] = {}
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

    # Classification runs at the parent whenever results are durable or
    # the frontier needs them: workers ship raw signals (status, output
    # digest, coverage) and the parent assigns the failure-mode class,
    # so every backend — and the snapshot path — classifies
    # identically.
    observe = journal is not None or guided

    # One golden run, in the parent, before any case: its digest anchors
    # classification (a digest already journaled wins, so resumed runs
    # classify against the same anchor), its call counts and coverage
    # seed the guided frontier, and it leaves the shared code cache warm
    # for forked workers to inherit.  The guest is deterministic, so
    # re-running it on resume reproduces the identical search space.
    cache_before = CODE_CACHE.stats()
    golden: Optional[str] = None
    call_counts: Dict[str, int] = {}
    golden_blocks: set = set()
    if case_list:
        golden, call_counts, golden_blocks = _golden_run(
            factory, platform, profiles,
            sorted({case.function for case in case_list}))
    if "golden" in meta:
        golden = meta["golden"]
    if journal is not None:
        journal.set_meta(golden=golden,
                         cases_expected=(min(budget_cases, len(case_list))
                                         if budget_cases is not None
                                         else len(case_list)),
                         **({"call_counts": call_counts, "guided": True}
                            if guided else {}))

    if guided:
        schedule = GuidedFrontier(case_list, budget_cases=budget_cases,
                                  call_counts=call_counts,
                                  baseline_blocks=golden_blocks,
                                  telemetry=tele)
    else:
        schedule = ExhaustiveSchedule(case_list)

    runner = None
    if snapshot:
        from .snapshot import SnapshotRunner
        runner = SnapshotRunner(app, factory, platform, profiles,
                                capture=capture, telemetry=tele,
                                observe=observe)
        if not runner.supported:
            runner = None

    def run_one(case):
        if runner is not None:
            return runner.run_case(case)
        return _case_runner(factory, platform, profiles, case, capture,
                            observe)

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
    all_tasks: List[TaskResult] = []
    restored_n = 0
    started = time.perf_counter()
    try:
        while True:
            batch = schedule.next_batch()
            if not batch:
                break
            keys = ([case_digest(case) for case in batch]
                    if journal is not None else [""] * len(batch))
            records = [finished.get(key) for key in keys]
            to_run = [pos for pos, record in enumerate(records)
                      if record is None]
            ran: Dict[int, Any] = {}

            def journal_progress(task: TaskResult) -> None:
                # runs in the parent as each case (in batch order)
                # drains; the flush-per-record journal is what --resume
                # picks up after a crash, so this must not wait for the
                # pool to finish.  The failure-mode class is assigned
                # here — in the parent — from the worker's raw signals,
                # so it is backend-independent.
                pos = to_run[task.index]
                result = ran[pos] = _finish_case(batch[pos], task, pool)
                if observe:
                    result.outcome_class = classify_result(result, golden)
                if journal is not None:
                    journal.record(keys[pos], batch[pos], result,
                                   task.status)

            tasks = pool.map(run_one, [batch[pos] for pos in to_run],
                             progress=journal_progress)
            task_at = dict(zip(to_run, tasks))

            for pos, case in enumerate(batch):
                record = records[pos]
                if record is None:
                    result, task = ran[pos], task_at[pos]
                else:
                    result = restore_result(case, record)
                    task = TaskResult(
                        index=len(all_tasks),
                        status=record.get("task_status", TASK_OK),
                        seconds=record.get("seconds", 0.0), waited=0.0)
                    restored_n += 1
                    if result.outcome_class is None:
                        # a legacy record: same inputs, same class
                        result.outcome_class = classify_result(result,
                                                               golden)
                # feed back in batch order — scheduling, events and the
                # journal all share this one deterministic order
                schedule.observe(case, result, restored=record is not None)
                if tele.enabled:
                    _replay_case_telemetry(tele, case, result)
                results_list.append(result)
                all_tasks.append(task)
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
    run_registry = MetricsRegistry()
    report.summary = summarize_tasks("campaign", app, report.outcome(),
                                     duration, all_tasks, pool,
                                     registry=run_registry)
    if tele.enabled:
        _record_execution_metrics(tele, results_list, cache_before)
        tele.metrics.merge(run_registry.snapshot())
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
            # fallback finished without raising and has no snapshot record
            end_fields.update(
                snapshots_built=stats["built"],
                snapshot_replays=sum(1 for r in results_list
                                     if getattr(r, "snapshot", None)),
                snapshot_fallbacks=sum(
                    1 for r, t in zip(results_list, all_tasks)
                    if t.status == TASK_OK
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
            if result.seconds > 0:
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
    action_fields = ({}
                     if hasattr(case.code, "retval")
                     else {"action": case.code.token()})
    tele.events.emit(
        "case", case=case.case_id(), function=case.function,
        errno=getattr(case.code, "errno", None),
        retval=getattr(case.code, "retval", None),
        ordinal=case.call_ordinal, status=result.outcome.status,
        fired=result.fired, seconds=round(result.seconds, 6),
        worker=worker,
        instructions=getattr(result, "instructions", 0),
        **action_fields)
