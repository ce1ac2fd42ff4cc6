"""Worker pools: the fan-out substrate for campaigns.

The fault space a systematic campaign enumerates — one test per
(function, error code) — is embarrassingly parallel: every case builds
or rewinds its own controller, kernel and guest process, so cases share
nothing but read-only profiles and images.  ``WorkerPool`` turns that
property into throughput while keeping the semantics of a serial run:

* **deterministic ordering** — ``map`` returns results in input order,
  whatever order workers finish in;
* **per-task timeout** — a task that exceeds ``timeout`` seconds is
  killed with its worker and reported as ``"hung"`` instead of stalling
  the run;
* **crash isolation** — a worker that dies (segfault, ``os._exit``,
  OOM-kill) becomes a ``"crashed"`` result.

Two backends:

``serial``
    Inline execution in the calling thread: one worker, zero overhead,
    no timeout.  The default when ``jobs`` resolves to 1 and no timeout
    is set.
``process``
    ``jobs`` forked workers, each a serial loop in a child.  They fork
    on the first ``map`` with a given task function, after whatever the
    parent primed (warm code cache, parked snapshot checkpoints), serve
    later ``map`` calls with the same function, and stop on
    :meth:`WorkerPool.close`.  Only ``fork`` can hand a closure to a
    child, so hosts without it are refused up front.  Items and results
    travel over pipes, so they must pickle.  True CPU parallelism for
    the pure-Python interpreter loop and hard kill on timeout: a worker
    that dies or overruns is a ``"crashed"`` or ``"hung"`` result and
    is replaced by a fresh fork, and one that cannot be started is a
    ``"crashed"`` result.

Process pools clamp to the CPU count, so ``--jobs 4`` is safe on a
single-core runner.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
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
PROCESS = "process"
BACKENDS = (SERIAL, PROCESS)

#: How long a stopping worker gets to exit before it is killed (seconds).
_GRACE = 1.0

_log = logging.getLogger(__name__)


def exception_line(exc: BaseException) -> str:
    """The last line of ``exc``'s report, e.g. ``repro.errors.KernelError:
    write produced undeclared error ECONNRESET``.

    What a task's failure records, on every backend: unlike a traceback
    it names no file path or line number, so it does not depend on
    where the code is checked out or which backend ran the task.
    """
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Clamp a requested worker count to the host's CPU count.

    ``None``/``0``/``"auto"`` mean "one worker per CPU"; on a
    single-core runner ``jobs=4`` degrades gracefully to 1.
    """
    cpus = os.cpu_count() or 1
    if jobs in (None, 0, "auto"):
        return cpus
    return max(1, min(int(jobs), cpus))


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


class _Task:
    """Internal per-item bookkeeping for the process dispatcher."""

    __slots__ = ("index", "item", "status", "value", "error", "seconds",
                 "waited", "started_at", "done")

    def __init__(self, index: int, item: Any) -> None:
        self.index = index
        self.item = item
        self.status = TASK_OK
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.seconds = 0.0
        self.waited = 0.0
        self.started_at: Optional[float] = None
        self.done = False

    def as_result(self) -> TaskResult:
        return TaskResult(index=self.index, status=self.status,
                          value=self.value, error=self.error,
                          seconds=self.seconds, waited=self.waited)


class _Worker:
    """One forked process-backend worker and the task it is running."""

    __slots__ = ("proc", "conn", "task")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.task: Optional[_Task] = None


def _worker_main(conn, fn, inherited) -> None:
    """Entry point of a process-backend worker: run ``fn`` on each item
    the parent sends, until the parent closes its end of the pipe.

    Each reply carries the seconds ``fn`` took, timed here: a reply can
    wait in the pipe while the parent is busy, and that wait is not the
    task's.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the parent owns ^C
    for other in inherited:
        # the parent's ends of this and earlier workers' pipes: only the
        # parent may hold them, so that closing one (or the parent
        # dying) is an end of file to its worker
        other.close()
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return                      # the parent closed the pipe or died
        started = time.monotonic()
        try:
            kind, value = "ok", fn(item)
        except BaseException as exc:
            _log.debug("task raised in worker %d", os.getpid(),
                       exc_info=True)
            kind, value = "error", exception_line(exc)
        seconds = time.monotonic() - started
        try:
            conn.send((kind, value, seconds))
        except OSError:
            return                      # the parent is gone
        except Exception as exc:        # e.g. unpicklable result
            conn.send(("error", f"could not serialize task result: {exc!r}",
                       seconds))


class WorkerPool:
    """A bounded pool executing tasks with ordered results.

    ``jobs`` is resolved first (``0`` means one per CPU).  Then
    ``backend=None`` picks ``serial`` when that is one worker and no
    timeout is requested (bit-for-bit the behavior of a plain loop),
    otherwise ``process``.  A serial pool is one worker, so asking it
    for more, or for a timeout, raises :class:`ValueError`.
    """

    def __init__(self, jobs: int = 1, backend: Optional[str] = None,
                 timeout: Optional[float] = None) -> None:
        if jobs in (None, 0, "auto"):
            jobs = resolve_jobs(jobs)
        if backend is None:
            backend = SERIAL if (jobs <= 1 and timeout is None) else PROCESS
        if backend not in BACKENDS:
            raise ValueError(f"unknown pool backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        if backend == SERIAL and jobs > 1:
            raise ValueError(f"the serial backend runs one worker, but "
                             f"'jobs' asks for {jobs}; leave the backend "
                             f"unset or use {PROCESS!r}")
        if backend == SERIAL and timeout is not None:
            raise ValueError(f"the serial backend cannot enforce a "
                             f"'timeout'; leave the backend unset or use "
                             f"{PROCESS!r}")
        if backend == PROCESS \
                and "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError("the process backend needs the 'fork' start "
                             "method, which this host lacks; run with "
                             "jobs=1 and no timeout")
        self.backend = backend
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        # the process backend's live workers and the function they run
        self._fn: Optional[Callable[[Any], Any]] = None
        self._workers: List[_Worker] = []

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

        The process backend forks its workers on the first ``map`` with
        a given ``fn`` and keeps them for later calls with the same
        ``fn``; call :meth:`close` when done.
        """
        items = list(items)
        if not items:
            return []
        if self.backend == SERIAL:
            return self._map_serial(fn, items, progress)
        return self._map_process(fn, items, progress)

    def close(self) -> None:
        """Stop the process backend's workers.

        A no-op for the serial backend and for a pool with no worker
        running; a later ``map`` forks fresh workers.
        """
        self._fn = None
        while self._workers:
            self._retire(self._workers[-1])

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

    # -- process backend ----------------------------------------------------

    def _map_process(self, fn, items: Sequence[Any],
                     progress=None) -> List[TaskResult]:
        """The dispatcher loop: hand tasks to idle (or newly forked)
        workers, report finished tasks in input order, then wait on
        every busy worker's pipe and sentinel until the earliest
        deadline."""
        if fn is not self._fn:
            self.close()
            self._fn = fn
        tasks = [_Task(i, item) for i, item in enumerate(items)]
        pending = deque(tasks)
        results: List[TaskResult] = []
        t0 = time.monotonic()
        try:
            while True:
                while pending and (len(self._workers) < self.jobs
                                   or any(w.task is None
                                          for w in self._workers)):
                    self._start(pending.popleft(), t0)
                while (len(results) < len(tasks)
                       and tasks[len(results)].done):
                    results.append(tasks[len(results)].as_result())
                    if progress is not None:
                        progress(results[-1])
                if len(results) == len(tasks):
                    return results
                self._collect()
        except BaseException:
            # a raising callback or ^C: a busy worker's result would
            # reach the next map, so no worker outlives an aborted one
            self.close()
            raise

    def _start(self, task: _Task, t0: float) -> None:
        """Send ``task`` to an idle worker, forking one if none is."""
        task.started_at = time.monotonic()
        task.waited = task.started_at - t0
        worker = next((w for w in self._workers if w.task is None), None)
        if worker is None:
            try:
                worker = self._fork()
            except Exception as exc:   # fork failing: EAGAIN, ENOMEM
                _finish(task, TASK_CRASHED, RemoteTaskError(
                    f"worker could not start: {exc!r}"))
                return
        try:
            worker.conn.send(task.item)
        except OSError:                # died between two tasks
            _finish(task, TASK_CRASHED, RemoteTaskError(
                f"worker died with exit code {self._retire(worker)}"))
            return
        except Exception as exc:       # e.g. an unpicklable item
            _finish(task, TASK_ERROR, RemoteTaskError(
                f"could not serialize task item: {exc!r}"))
            return
        worker.task = task

    def _fork(self) -> _Worker:
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        inherited = [w.conn for w in self._workers] + [ours]
        proc = ctx.Process(target=_worker_main,
                           args=(theirs, self._fn, inherited), daemon=True)
        try:
            proc.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        worker = _Worker(proc, ours)
        self._workers.append(worker)
        return worker

    def _collect(self) -> None:
        """Wait for a busy worker to report, die or overrun; settle it.

        The outcome is read off the pipe, never off the exit status: a
        payload decides, even from a worker that has exited since (its
        status may already be reaped by someone else); a worker gone
        without one is a crash; neither by the deadline is a hang.  A
        payload brings the worker's own time for the task; a crash or a
        hang is timed here, from the send.
        """
        busy = [w for w in self._workers if w.task is not None]
        timeout = None
        if self.timeout is not None:
            first = min(w.task.started_at for w in busy)
            timeout = max(0.0, first + self.timeout - time.monotonic())
        ready = set(wait([w.conn for w in busy]
                         + [w.proc.sentinel for w in busy], timeout))
        now = time.monotonic()
        for worker in busy:
            task = worker.task
            died = worker.proc.sentinel in ready
            if worker.conn in ready:
                try:
                    payload = worker.conn.recv()
                except (EOFError, OSError):
                    payload = None
            elif died:
                payload = None
            elif (self.timeout is not None
                  and now - task.started_at >= self.timeout):
                task.seconds = now - task.started_at
                self._retire(worker)    # busy: terminated, then killed
                _finish(task, TASK_HUNG, None)
                continue
            else:
                continue                # still running
            worker.task = None
            if payload is None:
                task.seconds = now - task.started_at
                _finish(task, TASK_CRASHED, RemoteTaskError(
                    f"worker died with exit code {self._retire(worker)}"))
                continue
            kind, value, task.seconds = payload
            if kind == "ok":
                _finish(task, TASK_OK, value)
            else:
                _finish(task, TASK_ERROR, RemoteTaskError(value))
            if died:
                self._retire(worker)    # reported, then exited

    def _retire(self, worker: _Worker) -> Optional[int]:
        """Stop one worker and forget it; returns its exit code.  An
        idle worker exits on the end of file; a busy one is terminated,
        then killed."""
        self._workers.remove(worker)
        worker.conn.close()
        proc = worker.proc
        if worker.task is not None:
            proc.terminate()
        proc.join(_GRACE)
        if proc.exitcode is None:
            proc.kill()
            proc.join(_GRACE)
        return proc.exitcode


def _finish(task: _Task, status: str, payload: Any) -> None:
    task.status = status
    if status == TASK_OK:
        task.value = payload
    else:
        task.error = payload
    task.done = True


def _invoke_inline(fn, item) -> Tuple[str, Any]:
    try:
        return (TASK_OK, fn(item))
    except BaseException as exc:
        return (TASK_ERROR, exc)
