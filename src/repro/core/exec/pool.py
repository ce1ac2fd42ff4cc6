"""Worker pools: the fan-out substrate for campaigns.

The fault space a systematic campaign enumerates — one test per
(function, error code) — is embarrassingly parallel: every case builds
its own controller, kernel and guest process, so cases share nothing
but read-only profiles and images.  ``WorkerPool`` turns that property
into throughput while keeping the semantics of a serial run:

* **deterministic ordering** — ``map`` returns results in input order,
  whatever order workers finish in;
* **per-task timeout** — a task that exceeds ``timeout`` seconds is
  reaped and reported as ``"hung"`` instead of stalling the run;
* **crash isolation** — with the process backend a worker that dies
  (segfault, ``os._exit``, OOM-kill) becomes a ``"crashed"`` result.

Three backends:

``serial``
    Inline execution in the calling thread.  Zero overhead, no timeout
    enforcement; the default when ``jobs == 1`` and no timeout is set.
``thread``
    Daemon threads gated by a slot semaphore.  Cheap, shares memory
    (profiles, images) for free; a reaped hung task leaks its daemon
    thread but releases its worker slot so the run keeps going.
``process``
    One forked child per task; hosts without the ``fork`` start method
    are refused up front, because tasks are closures that only ``fork``
    can hand to a child.  True CPU parallelism for the pure-Python
    interpreter loop and hard kill on timeout; task results travel back
    over a pipe, so they must pickle.  A child that cannot be started
    becomes a ``"crashed"`` result.

Pool sizes auto-clamp (threads to a fixed cap, processes to the CPU
count) so ``--jobs 4`` is safe on a single-core runner.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

#: Task result statuses.
TASK_OK = "ok"
TASK_ERROR = "error"        # the task function raised
TASK_HUNG = "hung"          # exceeded the per-task timeout
TASK_CRASHED = "crashed"    # the worker process died without reporting

#: Backend names.
SERIAL = "serial"
THREAD = "thread"
PROCESS = "process"
BACKENDS = (SERIAL, THREAD, PROCESS)

#: Threads are cheap but not free; more than this buys nothing here.
MAX_THREAD_JOBS = 32

#: Supervisor poll interval while waiting on slots/results (seconds).
_TICK = 0.02


def resolve_jobs(jobs: Optional[int], backend: str = THREAD) -> int:
    """Clamp a requested worker count to something the host can run.

    ``None``/``0``/``"auto"`` mean "one worker per CPU".  Thread pools
    cap at :data:`MAX_THREAD_JOBS`; process pools at the CPU count —
    on a single-core runner ``jobs=4`` degrades gracefully to 1.
    """
    if jobs in (None, 0, "auto"):
        jobs = os.cpu_count() or 1
    jobs = max(1, int(jobs))
    if backend == PROCESS:
        return min(jobs, max(1, os.cpu_count() or 1))
    return min(jobs, MAX_THREAD_JOBS)


class RemoteTaskError(Exception):
    """An error that happened in a worker process, carried as text."""


@dataclass
class TaskResult:
    """Outcome of one pooled task, in input order."""

    index: int
    status: str = TASK_OK
    value: Any = None
    error: Optional[BaseException] = None
    seconds: float = 0.0
    waited: float = 0.0         # queue wait: map() start -> task start

    @property
    def ok(self) -> bool:
        return self.status == TASK_OK

    def unwrap(self) -> Any:
        """Return the value, re-raising whatever went wrong instead."""
        if self.status == TASK_OK:
            return self.value
        if self.error is not None:
            raise self.error
        raise RemoteTaskError(f"task {self.index} {self.status}")


class _Task:
    """Internal per-item bookkeeping for the threaded dispatcher."""

    __slots__ = ("index", "item", "status", "value", "error", "seconds",
                 "waited", "started_at", "done", "reaped")

    def __init__(self, index: int, item: Any) -> None:
        self.index = index
        self.item = item
        self.status = TASK_OK
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.seconds = 0.0
        self.waited = 0.0
        self.started_at: Optional[float] = None
        self.done = threading.Event()
        self.reaped = False

    def as_result(self) -> TaskResult:
        return TaskResult(index=self.index, status=self.status,
                          value=self.value, error=self.error,
                          seconds=self.seconds, waited=self.waited)


def _subprocess_main(conn, fn, item) -> None:
    """Entry point of a process-backend worker."""
    try:
        payload: Tuple[str, Any] = ("ok", fn(item))
    except BaseException:
        payload = ("error", traceback.format_exc())
    try:
        conn.send(payload)
    except Exception as exc:       # e.g. unpicklable result
        try:
            conn.send(("error", f"could not serialize task result: {exc!r}"))
        except Exception:
            pass
    finally:
        conn.close()


class WorkerPool:
    """A bounded pool executing tasks with ordered results.

    ``backend=None`` picks ``serial`` when ``jobs <= 1`` and no timeout
    is requested (bit-for-bit the behavior of a plain loop), otherwise
    ``thread``.
    """

    def __init__(self, jobs: int = 1, backend: Optional[str] = None,
                 timeout: Optional[float] = None,
                 metrics=None) -> None:
        if backend is None:
            backend = SERIAL if (jobs <= 1 and timeout is None) else THREAD
        if backend not in BACKENDS:
            raise ValueError(f"unknown pool backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        if backend == PROCESS \
                and "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError("the process backend needs the 'fork' start "
                             "method, which this host lacks; use the "
                             "thread backend")
        self.backend = backend
        self.jobs = resolve_jobs(jobs, backend)
        self.timeout = timeout
        if metrics is None:
            from ...obs.metrics import NULL_REGISTRY
            metrics = NULL_REGISTRY
        self.metrics = metrics

    # -- public API --------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            progress: Optional[Callable[[TaskResult], None]] = None
            ) -> List[TaskResult]:
        """Run ``fn`` over ``items``; results come back in input order.

        ``progress`` is invoked in the calling thread, in **input
        order**, with each task's result as soon as it (and every task
        before it) has finished — campaigns use it to journal results
        durably while later cases are still running.  A raising
        callback aborts the run.
        """
        items = list(items)
        if not items:
            return []
        started = time.monotonic()
        if self.backend == SERIAL:
            results = self._map_serial(fn, items, progress)
        elif self.backend == PROCESS:
            results = self._map_threaded(
                lambda item: self._invoke_subprocess(fn, item), items,
                reap_timeout=None,     # the subprocess wait enforces it
                progress=progress)
        else:
            results = self._map_threaded(
                lambda item: _invoke_inline(fn, item), items,
                reap_timeout=self.timeout, progress=progress)
        if self.metrics.enabled:
            self._record_metrics(results, time.monotonic() - started)
        return results

    def _record_metrics(self, results: List[TaskResult],
                        elapsed: float) -> None:
        """Pool-level telemetry: status counters, wait/duration
        histograms, a utilization gauge."""
        tasks_total = self.metrics.counter(
            "repro_pool_tasks_total", "Pooled tasks by final status",
            ("backend", "status"))
        task_seconds = self.metrics.histogram(
            "repro_pool_task_seconds", "Per-task execution time",
            ("backend",))
        queue_wait = self.metrics.histogram(
            "repro_pool_queue_wait_seconds",
            "Time tasks waited for a worker slot", ("backend",))
        utilization = self.metrics.gauge(
            "repro_pool_worker_utilization",
            "busy-seconds / (elapsed * jobs) of the last map()",
            ("backend",))
        busy = 0.0
        for result in results:
            tasks_total.inc(backend=self.backend, status=result.status)
            task_seconds.observe(result.seconds, backend=self.backend)
            queue_wait.observe(result.waited, backend=self.backend)
            busy += result.seconds
        if elapsed > 0 and self.jobs > 0:
            utilization.set(min(1.0, busy / (elapsed * self.jobs)),
                            backend=self.backend)

    # -- serial backend ----------------------------------------------------

    def _map_serial(self, fn, items: Sequence[Any],
                    progress=None) -> List[TaskResult]:
        results = []
        t0 = time.monotonic()
        for index, item in enumerate(items):
            started = time.monotonic()
            status, payload = _invoke_inline(fn, item)
            result = TaskResult(index=index, status=status,
                                seconds=time.monotonic() - started,
                                waited=started - t0)
            if status == TASK_OK:
                result.value = payload
            else:
                result.error = payload
            results.append(result)
            if progress is not None:
                progress(result)
        return results

    # -- threaded dispatcher (thread + process backends) --------------------

    def _map_threaded(self, invoke, items: Sequence[Any],
                      reap_timeout: Optional[float],
                      progress=None) -> List[TaskResult]:
        tasks = [_Task(i, item) for i, item in enumerate(items)]
        lock = threading.Lock()
        slots = threading.Semaphore(self.jobs)
        t0 = time.monotonic()

        def reap_expired() -> None:
            """Declare overdue in-flight tasks hung; free their slots."""
            now = time.monotonic()
            with lock:
                for task in tasks:
                    if (task.started_at is not None and not task.done.is_set()
                            and not task.reaped
                            and now - task.started_at >= reap_timeout):
                        task.reaped = True
                        task.status = TASK_HUNG
                        task.seconds = now - task.started_at
                        slots.release()
                        task.done.set()

        def worker(task: _Task) -> None:
            status, payload = invoke(task.item)
            with lock:
                if task.reaped:        # supervisor gave up on us already
                    return
                task.seconds = time.monotonic() - task.started_at
                task.status = status
                if status == TASK_OK:
                    task.value = payload
                else:
                    task.error = payload
                task.done.set()
                slots.release()

        for task in tasks:
            if reap_timeout is None:
                slots.acquire()
            else:
                while not slots.acquire(timeout=_TICK):
                    reap_expired()
            task.started_at = time.monotonic()
            task.waited = task.started_at - t0
            threading.Thread(target=worker, args=(task,), daemon=True,
                             name=f"repro-pool-{task.index}").start()

        results: List[TaskResult] = []
        for task in tasks:
            if reap_timeout is None:
                task.done.wait()
            else:
                while not task.done.wait(timeout=_TICK):
                    reap_expired()
            results.append(task.as_result())
            if progress is not None:
                # in the supervising thread, in input order: the task
                # (and every task before it) is finished at this point
                progress(results[-1])
        return results

    # -- process backend ----------------------------------------------------

    def _invoke_subprocess(self, fn, item) -> Tuple[str, Any]:
        """Run one task in a forked child; enforce the timeout hard.

        The outcome is read off the pipe, never off the child's exit
        status: ``Process.start()`` in a sibling supervisor thread polls
        (and so may reap) every live child, after which this child's
        ``join()``/``is_alive()`` can no longer tell that it finished.
        A payload decides the outcome; the child exiting without one is
        a crash; neither before the deadline is a hang.  A child that
        never starts (``fork`` failing with ``EAGAIN``/``ENOMEM``) is a
        crash too: raising here would kill the supervisor thread before
        the task is marked done, and ``map`` would wait forever.
        """
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_subprocess_main, args=(send, fn, item),
                           daemon=True)
        try:
            proc.start()
        except Exception as exc:
            recv.close()
            return (TASK_CRASHED, RemoteTaskError(
                f"worker could not start: {exc!r}"))
        finally:
            send.close()
        try:
            if not wait([recv, proc.sentinel], self.timeout):
                proc.terminate()
                proc.join(1.0)
                if proc.exitcode is None:
                    proc.kill()
                    proc.join(1.0)
                return (TASK_HUNG, None)
            payload = None
            if recv.poll():
                try:
                    payload = recv.recv()
                except (EOFError, OSError):
                    pass
            proc.join(self.timeout)
        finally:
            recv.close()
        if payload is None:
            return (TASK_CRASHED, RemoteTaskError(
                f"worker died with exit code {proc.exitcode}"))
        kind, value = payload
        return ((TASK_OK, value) if kind == "ok"
                else (TASK_ERROR, RemoteTaskError(value)))


def _invoke_inline(fn, item) -> Tuple[str, Any]:
    try:
        return (TASK_OK, fn(item))
    except BaseException as exc:
        return (TASK_ERROR, exc)
