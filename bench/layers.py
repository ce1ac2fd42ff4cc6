"""Outside-in layer tracing for the benchmark.

The program under test is never edited: :func:`install` replaces the
public entry point of each layer with a wrapper that opens a span on a
:class:`Recorder`, and :func:`uninstall` puts the originals back.  Each
span's *self time* (its duration minus the part its child spans cover)
is added to its layer, so the layers' self times together with the root
spans' self times partition the traced wall time exactly.

Wrappers must be installed before the first controller, process or
kernel is built: ``Injector.eval_host`` is bound when a controller
attaches to a process, and ``Kernel.dispatch`` when a CPU binds a
compiled block.

Under the process backend every case runs in a forked child.  The
``SnapshotRunner.run_case`` wrapper notices the changed pid, restarts
the recorder there, and attaches the child's totals to the returned
``CaseResult`` (they pickle with it); the ``WorkerPool.map`` wrapper in
the parent merges them into :attr:`Recorder.workers`, separately from
the parent's own partition.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import zlib
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: CaseResult attribute that carries a forked worker's layer totals
WORKER_ATTR = "bench_layers"

#: span records kept per sampled case when it ran in a forked worker —
#: results return over a pipe the parent drains only after the child
#: exits, so a worker's payload must stay far below the pipe buffer
WORKER_SPAN_CAP = 64

#: cases/ops whose full span records are kept per run
SAMPLE_OPS = 200

# name, start, child time, op id, span id, keep
_NAME, _START, _CHILD, _OP, _ID, _KEEP = range(6)


def _plan_op(args, kwargs) -> Optional[str]:
    plan = args[3] if len(args) > 3 else kwargs.get("plan")
    name = getattr(plan, "name", "") or ""
    return name[len("case-"):] if name.startswith("case-") else name


def _case_id(case) -> str:
    return case.case_id()


#: (module, attribute path, layer, op-id extractor) — the public entry
#: point of each layer and the op (case id) its arguments identify
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.runtime.process", "Process.load", "runtime.load", None),
    ("repro.runtime.snapshot", "MachineSnapshot.restore",
     "runtime.snapshot_restore", None),
    ("repro.runtime.snapshot", "MachineSnapshot.capture",
     "runtime.snapshot_capture", None),
    ("repro.runtime.blocks", "export_coverage", "runtime.coverage_export",
     None),
    ("repro.kernel.kernel", "Kernel.dispatch", "kernel.syscall", None),
    ("repro.core.controller.controller", "Controller.__init__",
     "core.controller.setup", _plan_op),
    ("repro.core.controller.controller", "synthesize_shim",
     "core.controller.shim", None),
    ("repro.core.controller.injector", "Injector.eval_host",
     "core.controller.intercept", None),
    ("repro.core.controller.triggers", "TriggerEngine.on_call",
     "core.controller.trigger_eval", None),
    ("repro.core.results.store", "CampaignJournal.record",
     "core.results.journal", lambda a, k: _case_id(a[2])),
    ("repro.core.results.matrix", "classify_result",
     "core.results.classify", lambda a, k: _case_id(a[0].case)),
    ("repro.core.results.matrix", "output_digest",
     "core.results.output_digest", None),
    ("repro.core.search", "GuidedFrontier.next_batch",
     "core.search.schedule", None),
    ("repro.core.search", "GuidedFrontier.observe",
     "core.search.schedule", lambda a, k: _case_id(a[1])),
    ("repro.core.profiler.profiler", "Profiler.profile_all",
     "core.profiler.profile", None),
)

#: every span name a traced run can produce, in report order; the
#: ``_s`` metrics of these (minus the inclusive golden view) add up to
#: ``trace.wall_s``
LAYERS = (
    "runtime.guest", "runtime.load", "runtime.snapshot_restore",
    "runtime.snapshot_capture", "runtime.coverage_export",
    "kernel.syscall",
    "core.controller.setup", "core.controller.shim",
    "core.controller.intercept", "core.controller.trigger_eval",
    "core.exec.engine", "core.exec.pool", "core.exec.snapshot_runner",
    "core.results.journal", "core.results.classify",
    "core.results.output_digest",
    "core.search.schedule", "core.profiler.profile",
    "apps.host", "bench.harness",
)

#: inclusive views, outside the partition
GOLDEN = "core.exec.golden"


class Recorder:
    """Span stack, per-layer self-time ledger and sampled span records.

    Single-threaded by design: every workload drives the program from
    one thread (the process backend's supervisor threads only fork and
    wait, and call no wrapped entry point).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        #: fraction of (round, op) pairs whose span records are kept
        self.sample_p = 0.0
        self.round = 0
        self.t0 = time.perf_counter()
        self.pid = os.getpid()
        self.reset()
        self._kept: set = set()

    def reset(self) -> None:
        """Forget every total (the span stack must be empty)."""
        self.stack: List[list] = []
        #: layer -> [self seconds, calls] of this process
        self.totals: Dict[str, List[float]] = {}
        #: the same, merged from forked workers
        self.workers: Dict[str, List[float]] = {}
        self.inclusive: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.wall = 0.0
        self.spans: List[Tuple] = []
        self._sampled: Dict[Tuple[int, str], bool] = {}
        self._next_id = 0

    # -- spans ----------------------------------------------------------------

    def _keep(self, op: str) -> bool:
        key = (self.round, op)
        keep = self._sampled.get(key)
        if keep is None:
            keep = False
            if self.sample_p > 0 and len(self._kept) < SAMPLE_OPS:
                h = zlib.crc32(f"{self.seed}/{self.round}/{op}".encode())
                keep = h < self.sample_p * 2 ** 32
                if keep:
                    self._kept.add(key)
            self._sampled[key] = keep
        return keep

    def enter(self, name: str, op: Optional[str] = None) -> list:
        stack = self.stack
        if op is None:
            if stack:
                parent = stack[-1]
                op, keep = parent[_OP], parent[_KEEP]
            else:
                keep = False
        else:
            keep = self._keep(op)
        span_id = 0
        if keep:
            self._next_id += 1
            span_id = (self.pid << 32) | self._next_id
        frame = [name, time.perf_counter(), 0.0, op, span_id, keep]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        duration = end - frame[_START]
        entry = self.totals.get(frame[_NAME])
        if entry is None:
            entry = self.totals[frame[_NAME]] = [0.0, 0]
        entry[0] += duration - frame[_CHILD]
        entry[1] += 1
        if stack:
            stack[-1][_CHILD] += duration
        else:
            self.wall += duration
        if frame[_KEEP]:
            parent = stack[-1][_ID] if stack else 0
            self.spans.append((frame[_NAME], frame[_START] - self.t0,
                               end - self.t0, parent, frame[_ID],
                               frame[_OP], self.round))
        return duration

    @contextmanager
    def span(self, name: str, op: Optional[str] = None):
        frame = self.enter(name, op)
        try:
            yield
        finally:
            self.exit(frame)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def add_inclusive(self, name: str, seconds: float) -> None:
        entry = self.inclusive.setdefault(name, [0.0, 0])
        entry[0] += seconds
        entry[1] += 1

    # -- forked workers -------------------------------------------------------

    def restart_in_worker(self) -> None:
        """Drop the parent's inherited state in a freshly forked child."""
        self.pid = os.getpid()
        self.reset()

    def export(self) -> Dict[str, Any]:
        return {"totals": self.totals, "counters": self.counters,
                "inclusive": self.inclusive,
                "spans": self.spans[:WORKER_SPAN_CAP]}

    def merge_worker(self, ledger: Dict[str, Any]) -> None:
        for name, (seconds, calls) in ledger["totals"].items():
            entry = self.workers.setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls
        for name, (seconds, calls) in ledger["inclusive"].items():
            entry = self.inclusive.setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls
        for name, amount in ledger["counters"].items():
            self.count(name, amount)
        for record in ledger["spans"]:
            key = (record[6], record[5])        # (round, op)
            if key not in self._kept:
                if len(self._kept) >= SAMPLE_OPS:
                    continue
                self._kept.add(key)
            self.spans.append(record)

    # -- reading --------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return (self.totals.get(name, (0.0, 0))[0]
                + self.workers.get(name, (0.0, 0))[0])

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0.0, 0))[1]
                   + self.workers.get(name, (0.0, 0))[1])

    def span_records(self) -> List[Dict[str, Any]]:
        keys = ("name", "start", "end", "parent", "id", "op", "round")
        return [dict(zip(keys, record)) for record in self.spans]


# -- installing the wrappers ---------------------------------------------------


def _traced(rec: Recorder, fn: Callable, layer: str,
            op_of: Optional[Callable]) -> Callable:
    enter, exit_ = rec.enter, rec.exit
    if op_of is None:
        def traced(*args, **kwargs):
            frame = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
    else:
        def traced(*args, **kwargs):
            frame = enter(layer, op_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
    return functools.wraps(fn)(traced)


def _cpu_run(rec: Recorder, run: Callable) -> Callable:
    enter, exit_ = rec.enter, rec.exit

    def traced(cpu, *args, **kwargs):
        before = cpu.instructions_executed
        frame = enter("runtime.guest")
        try:
            return run(cpu, *args, **kwargs)
        finally:
            exit_(frame)
            rec.count("guest_instructions",
                      cpu.instructions_executed - before)
    return functools.wraps(run)(traced)


def _run_test(rec: Recorder, run_test: Callable) -> Callable:
    enter, exit_ = rec.enter, rec.exit

    def traced(controller, *args, **kwargs):
        test_id = kwargs.get("test_id")
        frame = enter("apps.host", test_id)
        try:
            return run_test(controller, *args, **kwargs)
        finally:
            seconds = exit_(frame)
            if test_id == "golden":
                rec.add_inclusive(GOLDEN, seconds)
    return functools.wraps(run_test)(traced)


def _pool_map(rec: Recorder, pool_map: Callable) -> Callable:
    enter, exit_ = rec.enter, rec.exit

    def traced(pool, *args, **kwargs):
        frame = enter("core.exec.pool")
        tasks = None
        try:
            tasks = pool_map(pool, *args, **kwargs)
            return tasks
        finally:
            elapsed = exit_(frame)
            rec.count("pool_capacity_s", elapsed * pool.jobs)
            rec.count("pool_tasks", len(tasks or ()))
            for task in tasks or ():
                rec.count("queue_wait_s", task.waited)
                rec.count("busy_s", task.seconds)
                ledger = getattr(task.value, WORKER_ATTR, None)
                if ledger is not None:
                    rec.merge_worker(ledger)
                    delattr(task.value, WORKER_ATTR)
    return functools.wraps(pool_map)(traced)


def _run_case(rec: Recorder, run_case: Callable) -> Callable:
    from repro.runtime import CODE_CACHE

    enter, exit_ = rec.enter, rec.exit

    def traced(runner, case):
        worker = os.getpid() != rec.pid
        if worker:
            rec.restart_in_worker()
            cache_before = CODE_CACHE.stats()
        frame = enter("core.exec.snapshot_runner", case.case_id())
        try:
            result = run_case(runner, case)
        finally:
            exit_(frame)
        if worker:
            for name, value in cache_delta(cache_before).items():
                rec.count(name, value)
            setattr(result, WORKER_ATTR, rec.export())
        return result
    return functools.wraps(run_case)(traced)


#: entry points whose wrappers do more than time a span
_SPECIAL = (
    ("repro.runtime.cpu", "Cpu.run", _cpu_run),
    ("repro.core.controller.controller", "Controller.run_test", _run_test),
    ("repro.core.exec.pool", "WorkerPool.map", _pool_map),
    ("repro.core.exec.snapshot", "SnapshotRunner.run_case", _run_case),
)


def _replace(owner: Any, attr: str, make: Callable[[Callable], Callable],
             undo: List[Tuple[Any, str, Any]]) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    if isinstance(raw, (classmethod, staticmethod)):
        replacement = type(raw)(make(raw.__func__))
    else:
        replacement = make(raw)
    setattr(owner, attr, replacement)
    undo.append((owner, attr, raw))


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer's entry point; returns the function undoing it."""
    undo: List[Tuple[Any, str, Any]] = []

    def resolve(module: str, path: str) -> Tuple[Any, str]:
        owner: Any = importlib.import_module(module)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        return owner, attr

    for module, path, layer, op_of in ENTRY_POINTS:
        owner, attr = resolve(module, path)
        _replace(owner, attr,
                 lambda fn, layer=layer, op_of=op_of:
                 _traced(rec, fn, layer, op_of), undo)
    for module, path, make in _SPECIAL:
        owner, attr = resolve(module, path)
        _replace(owner, attr, lambda fn, make=make: make(rec, fn), undo)

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
        undo.clear()
    return uninstall


# -- per-layer metrics ---------------------------------------------------------


def cache_delta(before: Dict[str, int]) -> Dict[str, int]:
    """Shared code cache activity since ``before`` (a ``stats()``)."""
    from repro.runtime import CODE_CACHE

    now = CODE_CACHE.stats()
    return {f"cache_{name}": now[name] - before.get(name, 0) for name in now}


def layer_metrics(rec: Recorder, *, profile: Tuple[float, int],
                  executed: int, enumerated: int, replays: int,
                  overhead: float) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of a traced run, by name with its unit.

    Layers the workload never reached read 0, as do ratios without a
    base; ``core.exec.queue_wait_s`` is the mean wait of a pool task.
    ``profile`` is the (self seconds, calls) of profiling during set-up;
    ``executed``/``enumerated`` the campaign's case counts and
    ``replays`` how many executed cases restored a checkpoint.
    """
    out: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        if layer == "core.profiler.profile":
            seconds, calls = profile
        else:
            seconds, calls = rec.self_seconds(layer), rec.calls(layer)
        put(f"{layer}_s", seconds, "s")
        put(f"{layer}_calls", calls, "count")
    golden = rec.inclusive.get(GOLDEN, (0.0, 0))
    put(f"{GOLDEN}_s", golden[0], "s")
    put(f"{GOLDEN}_calls", int(golden[1]), "count")

    c = rec.counters.get
    guest_s = rec.self_seconds("runtime.guest")
    put("runtime.guest_mips",
        c("guest_instructions", 0.0) / guest_s / 1e6 if guest_s else 0.0,
        "MIPS")
    hits = c("cache_template_hits", 0) + c("cache_module_hits", 0)
    lookups = hits + c("cache_blocks_compiled", 0)
    put("runtime.code_cache_hit_ratio", hits / lookups if lookups else 0.0,
        "ratio")
    put("runtime.code_cache_evictions", int(c("cache_evictions", 0)),
        "count")
    put("runtime.blocks_compiled", int(c("cache_blocks_compiled", 0)),
        "count")
    put("runtime.traces_linked", int(c("cache_traces_linked", 0)), "count")
    intercepts = rec.calls("core.controller.intercept")
    put("core.controller.dormant_ratio",
        1 - rec.calls("core.controller.trigger_eval") / intercepts
        if intercepts else 0.0, "ratio")
    tasks = c("pool_tasks", 0)
    put("core.exec.queue_wait_s",
        c("queue_wait_s", 0.0) / tasks if tasks else 0.0, "s")
    capacity = c("pool_capacity_s", 0.0)
    put("core.exec.worker_utilization",
        c("busy_s", 0.0) / capacity if capacity else 0.0, "ratio")
    put("core.exec.snapshot_replay_ratio",
        replays / executed if executed else 0.0, "ratio")
    put("core.search.executed_ratio",
        executed / enumerated if enumerated else 0.0, "ratio")
    put("trace.wall_s", rec.wall, "s")
    put("trace_overhead_frac", overhead, "ratio")
    return out
