"""Common-prefix replay for campaigns: the fork-server case runner.

A systematic campaign runs one monitored test per fault case, and every
case for the same trigger function shares an identical prefix: library
loading, symbol resolution, workload setup, and execution up to the
trigger point.  :class:`SnapshotRunner` executes that prefix **once**
per trigger function under a sentinel plan that can never fire, parks
the guest at workload-ready via
:class:`~repro.runtime.snapshot.MachineSnapshot`, and then replays only
the post-trigger suffix per case.

The differential-equivalence guarantee — replayed cases produce
bit-identical :class:`~repro.core.campaign.CaseResult` outcomes, event
streams and instruction counts versus fresh runs — holds because:

* the prefix plan has the same trigger structure as every case plan
  (one INJECT_NTH trigger on the same function, so interception,
  call counting and evaluation bookkeeping are identical), with an
  ordinal no workload reaches;
* cases whose ordinal falls *inside* the prefix (the trigger would have
  fired during setup) are detected from the checkpointed call counts
  and fall back to a fresh execution;
* per case, the trigger engine, logbook, telemetry instruments and
  injection counters are transplanted to exactly the state a fresh
  controller would have reached at the snapshot point, and the CPU's
  instruction counter resumes from the checkpointed value, so totals
  equal prefix + suffix.

Host-side workload state (the context returned by
``PrefixFactory.setup``) is re-thawed per case by deep-copying the
frozen context with the guest runtime objects (process, memory, CPU,
kernel, controller) pinned as atoms — each case gets fresh Python state
wired to the restored guest.
"""

from __future__ import annotations

import copy
import multiprocessing
import random
import time
from typing import Any, Dict, Iterable, List, Mapping

from ...obs.telemetry import Telemetry, as_telemetry
from ...platform import Platform
from ...runtime.snapshot import MachineSnapshot, SnapshotCache, SnapshotKey
from ..controller import Controller
from ..controller.triggers import NEVER_ORDINAL, TriggerEngine
from ..profiles import LibraryProfile
from ..scenario.model import INJECT_NTH, FunctionTrigger, Plan

#: A call ordinal no workload reaches: the prefix runs under a real plan
#: for the trigger function without the trigger ever firing.  Defined as
#: the engine's unreachable-ordinal bound, so the injector's dormant
#: fast path proves the sentinel dead on the first call and the whole
#: prefix executes with zero interception overhead.
PREFIX_SENTINEL = NEVER_ORDINAL


def _in_forked_worker() -> bool:
    parent = getattr(multiprocessing, "parent_process", None)
    return parent is not None and parent() is not None


class _Instance:
    """One live guest parked at the snapshot point."""

    __slots__ = ("controller", "machine", "ctx_frozen", "atoms",
                 "functions", "prefix_calls",
                 "logbook_len", "injection_count", "passthrough_count",
                 "original_cache", "processes_len", "test_counter", "key")


class SnapshotRunner:
    """Runs fault cases by restoring a shared workload checkpoint.

    One runner serves one campaign: the factory, platform and profiles
    are fixed, so checkpoints are grouped by trigger function (the
    *prefix point*).  The instance pool is shared per worker process —
    serial runs use it directly, thread workers check instances in and
    out under a lock, and the process backend builds instances before
    forking (see :meth:`warm`) so its workers inherit them.  Every case
    rewinds its instance as it finishes, so an instance in the pool is
    always at the snapshot point with an empty dirty-page set, however
    many cases a worker has replayed on it.
    """

    def __init__(self, app: str, factory, platform: Platform,
                 profiles: Mapping[str, LibraryProfile],
                 *, capture: bool = False, telemetry=None,
                 observe: bool = False) -> None:
        self.app = app
        self.factory = factory
        self.platform = platform
        self.profiles = dict(profiles)
        self.capture = capture
        #: collect classification signals (coverage + output digest);
        #: the prefix controller arms coverage so prefix+suffix counts
        #: equal a fresh run's
        self.observe = observe
        self.telemetry = as_telemetry(telemetry)
        self.cache = SnapshotCache()
        self.workload_id = getattr(factory, "workload_id", None) or app

    @property
    def supported(self) -> bool:
        """Snapshots need the two-phase factory protocol; an opaque
        :data:`~repro.core.campaign.SessionFactory` has nothing to
        checkpoint between setup and suffix."""
        return (callable(getattr(self.factory, "setup", None))
                and callable(getattr(self.factory, "run", None)))

    # -- engine entry points ------------------------------------------------

    def run_case(self, case):
        """Produce one CaseResult, replaying the suffix when possible.

        The checkpoint is rewound right after the case, so the restore
        figures on the result count the pages this case dirtied.
        """
        from .engine import _case_runner

        if getattr(case, "probability", 0.0) > 0:
            # a probabilistic case rolls its RNG on *every* call,
            # including the prefix's — replaying only the suffix would
            # consume the seed's stream differently from a fresh run,
            # so bit-identical results require running the whole case
            return _case_runner(self.factory, self.platform, self.profiles,
                                case, self.capture, self.observe)
        key = self._key(case.function)
        instance = self.cache.acquire(
            key, lambda: self._build(case.function, case.code))
        if case.call_ordinal <= instance.prefix_calls.get(case.function, 0):
            # the trigger would have fired inside the shared prefix;
            # only a fresh run injects at the right call
            self.cache.release(key, instance)
            return _case_runner(self.factory, self.platform, self.profiles,
                                case, self.capture, self.observe)
        try:
            result = self._replay(instance, case)
            started = time.perf_counter()
            stats = instance.machine.restore()
            restore_seconds = time.perf_counter() - started
        except BaseException:
            # the guest state is suspect (the failure happened outside
            # the monitored region); retire the instance
            instance.machine.detach()
            self.cache.discard(instance)
            raise
        self.cache.release(key, instance)
        result.snapshot = {
            "group": case.function,
            "workload": self.workload_id,
            "dirty_pages": stats.dirty_pages,
            "bytes": stats.bytes_restored,
            "seconds": restore_seconds,
        }
        return result

    def warm(self, cases: Iterable[Any]) -> None:
        """Build one checkpoint per distinct trigger function (the
        process backend calls this pre-fork so children inherit parked
        guests instead of re-running every prefix)."""
        seen: Dict[str, Any] = {}
        for case in cases:
            if getattr(case, "probability", 0.0) > 0:
                continue        # runs fresh; no checkpoint to warm
            seen.setdefault(case.function, case)
        for function, case in seen.items():
            self.cache.prime(self._key(function),
                             lambda: self._build(function, case.code))

    # -- checkpoint construction --------------------------------------------

    def _key(self, function: str) -> SnapshotKey:
        # the image digest component is only known once a guest exists;
        # within one campaign the images are fixed, so the workload id +
        # prefix point identify the checkpoint (the built instance
        # records the full digest-qualified key for observability)
        return ("campaign", self.workload_id, function)

    def _prefix_plan(self, function: str, code) -> Plan:
        plan = Plan(name=f"snapshot-prefix-{function}")
        plan.add(FunctionTrigger(function=function, mode=INJECT_NTH,
                                 nth=PREFIX_SENTINEL, actions=(code,),
                                 calloriginal=False))
        return plan

    def _build(self, function: str, code) -> _Instance:
        lfi = Controller(self.platform, dict(self.profiles),
                         self._prefix_plan(function, code),
                         coverage=self.observe)
        ctx = self.factory.setup(lfi)
        processes = self._discover_processes(lfi)
        machine = MachineSnapshot.capture(processes)

        instance = _Instance()
        instance.controller = lfi
        instance.machine = machine
        instance.atoms = self._guest_atoms(lfi, processes)
        instance.ctx_frozen = copy.deepcopy(ctx, dict(instance.atoms))
        instance.functions = list(lfi.functions)
        instance.prefix_calls = dict(lfi.engine.call_counts)
        instance.logbook_len = len(lfi.logbook.records)
        instance.injection_count = lfi.injector.injection_count
        instance.passthrough_count = lfi.injector.passthrough_count
        instance.original_cache = {
            pid: dict(table) for pid, table
            in lfi.injector._original_cache.items()}
        instance.processes_len = len(lfi.processes)
        instance.test_counter = lfi._test_counter
        instance.key = (machine.image_digest, self.workload_id, function)
        self._note_taken(instance, function)
        return instance

    @staticmethod
    def _discover_processes(lfi: Controller) -> List[Any]:
        """Every process on every kernel the workload touched —
        including driver processes created without the controller."""
        kernels: List[Any] = []
        seen: set = set()
        for proc in lfi.processes:
            if id(proc.kernel) not in seen:
                seen.add(id(proc.kernel))
                kernels.append(proc.kernel)
        return [proc for kernel in kernels for proc in kernel.processes]

    @staticmethod
    def _guest_atoms(lfi: Controller, processes: List[Any]) -> Dict[int, Any]:
        """Deepcopy memo entries pinning guest runtime objects: the
        frozen workload context references them live, and each case's
        thawed copy must too (restore rewinds them in place)."""
        atoms: Dict[int, Any] = {}
        for obj in (lfi, lfi.injector, lfi.logbook, lfi.platform):
            atoms[id(obj)] = obj
        for proc in processes:
            for obj in (proc, proc.cpu, proc.cpu.regs, proc.memory,
                        proc.kstate, proc.kernel, proc.kernel.vfs,
                        proc.kernel.sockets):
                atoms[id(obj)] = obj
            for module in proc.modules:
                atoms[id(module)] = module
                atoms[id(module.image)] = module.image
        return atoms

    def _note_taken(self, instance: _Instance, function: str) -> None:
        # builds inside forked pool children would record into the
        # child's dead copy of the parent telemetry; skip there
        if not self.telemetry.enabled or _in_forked_worker():
            return
        self.telemetry.metrics.counter(
            "repro_snapshots_taken_total",
            "Workload checkpoints captured for campaign replay",
            ("workload",)).inc(workload=self.workload_id)
        self.telemetry.events.emit(
            "snapshot", action="taken", workload=self.workload_id,
            group=function, bytes=instance.machine.resident_bytes,
            processes=len(instance.machine.procs),
            prefix_calls=instance.prefix_calls.get(function, 0))

    # -- replay -------------------------------------------------------------

    def _replay(self, instance: _Instance, case):
        from .engine import _worker_label
        from ..campaign import CaseResult

        lfi = instance.controller
        case_telemetry = None
        case_events = None
        if self.capture:
            from ...obs.events import BufferedEventLog
            from ...obs.metrics import BufferedMetricsRegistry
            from ...obs.tracing import NULL_TRACER
            case_events = BufferedEventLog()
            case_telemetry = Telemetry(events=case_events,
                                       metrics=BufferedMetricsRegistry(),
                                       tracer=NULL_TRACER)
        plan = case.plan()
        if plan.functions() != instance.functions:
            raise RuntimeError(
                f"case {case.case_id()} does not match checkpoint group "
                f"{instance.functions}")
        lfi.telemetry = as_telemetry(case_telemetry)
        lfi.plan = plan
        lfi.functions = plan.functions()
        engine = TriggerEngine(plan, random.Random(plan.seed))
        engine.call_counts = dict(instance.prefix_calls)
        # A fresh run evaluates the case's triggers on every prefix call
        # until their horizons pass (the injector's dormant fast path
        # then skips evaluation); the sentinel prefix run itself
        # evaluated nothing, so reproduce the fresh run's bookkeeping
        # from the checkpointed call counts.
        prefix_evals = engine.prefix_evaluations(instance.prefix_calls)
        engine.evaluations = sum(prefix_evals.values())
        lfi.engine = engine
        injector = lfi.injector
        injector.rebind(engine, lfi.functions, case_telemetry)
        injector.injection_count = instance.injection_count
        injector.passthrough_count = instance.passthrough_count
        injector._original_cache = {
            pid: dict(table) for pid, table
            in instance.original_cache.items()}
        del lfi.logbook.records[instance.logbook_len:]
        del lfi.processes[instance.processes_len:]
        lfi._test_counter = instance.test_counter
        if prefix_evals and lfi.telemetry.enabled:
            # a fresh run records the prefix's trigger evaluations under
            # the case telemetry; pre-seed them so metric snapshots match
            for function, evals in prefix_evals.items():
                injector._evaluations_metric.inc(evals, function=function)

        ctx = copy.deepcopy(instance.ctx_frozen, dict(instance.atoms))
        before = injector.injection_count
        outcome = lfi.run_test(lambda: self.factory.run(lfi, ctx),
                               test_id=case.case_id())
        from ..campaign import injection_sites
        result = CaseResult(case=case, outcome=outcome,
                            fired=injector.injection_count - before > 0,
                            instructions=lfi.instructions_executed,
                            sites=injection_sites(
                                lfi.logbook.for_test(case.case_id())))
        if self.capture:
            result.events = case_events.drain_dicts()
            result.metrics = case_telemetry.metrics.snapshot()
            result.worker = _worker_label()
        if self.observe:
            from .engine import _observe_result
            _observe_result(result, lfi)
        return result
