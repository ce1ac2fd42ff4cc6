"""WorkerPool semantics: ordered results, timeouts, crash isolation."""

import errno
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core.exec.pool import (PROCESS, SERIAL, TASK_CRASHED,
                                  TASK_ERROR, TASK_HUNG, TASK_OK,
                                  RemoteTaskError, WorkerPool, resolve_jobs)


class TestResolveJobs:
    def test_auto_means_cpu_count(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs("auto") == (os.cpu_count() or 1)

    def test_process_clamp_to_cpus(self):
        assert resolve_jobs(10_000) == (os.cpu_count() or 1)

    def test_minimum_one(self):
        assert resolve_jobs(-3) == 1


class TestBackendSelection:
    def test_serial_by_default(self):
        pool = WorkerPool(jobs=1)
        assert (pool.backend, pool.jobs) == (SERIAL, 1)

    def test_process_when_parallel(self):
        assert WorkerPool(jobs=4).backend == PROCESS

    def test_process_when_timeout_requested(self):
        # serial cannot enforce timeouts, so jobs=1 + timeout -> process
        assert WorkerPool(jobs=1, timeout=1.0).backend == PROCESS

    def test_jobs_zero_means_one_worker_per_cpu(self):
        """The count resolves before the backend is picked: ``jobs=0``
        on a multi-core host is a process pool, not a serial pool that
        claims several workers."""
        cpus = os.cpu_count() or 1
        pool = WorkerPool(jobs=0)
        assert pool.jobs == cpus
        assert pool.backend == (PROCESS if cpus > 1 else SERIAL)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(jobs=4), "jobs"), (dict(jobs=1, timeout=1.0), "timeout")])
    def test_serial_backend_refuses_what_it_cannot_run(self, kwargs, name):
        """A serial pool is one worker without a timeout; asking it for
        more fails by name instead of reporting workers that never ran."""
        with pytest.raises(ValueError, match=f"'{name}'"):
            WorkerPool(backend=SERIAL, **kwargs)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=2, backend="fibers")


class TestSerialBackend:
    def test_map_ordered(self):
        results = WorkerPool(jobs=1).map(lambda x: x * 10, [3, 1, 2])
        assert [r.value for r in results] == [30, 10, 20]
        assert [r.index for r in results] == [0, 1, 2]
        assert all(r.status == TASK_OK for r in results)

    def test_error_captured_not_raised(self):
        def boom(x):
            if x == 1:
                raise ValueError("nope")
            return x

        results = WorkerPool(jobs=1).map(boom, [0, 1, 2])
        assert [r.status for r in results] == [TASK_OK, TASK_ERROR, TASK_OK]
        assert isinstance(results[1].error, ValueError)
        assert results[1].value is None
        assert results[2].value == 2

    def test_empty_input(self):
        assert WorkerPool(jobs=4).map(lambda x: x, []) == []


def _within(call, deadline):
    """``call()`` in a helper thread joined with a deadline: a
    dispatcher that never returns fails the test instead of hanging
    the suite.  Whatever ``call`` raised is re-raised here."""
    outcome = []

    def target():
        try:
            outcome.append((True, call()))
        except BaseException as exc:
            outcome.append((False, exc))

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(deadline)
    assert outcome, f"no return within {deadline:g}s"
    returned, value = outcome[0]
    if not returned:
        raise value
    return value


def _map_within(pool, fn, items, deadline=20.0, **kwargs):
    return _within(lambda: pool.map(fn, items, **kwargs), deadline)


@pytest.fixture
def process_pool():
    """Builds process-backend pools and closes each after the test."""
    pools = []

    def make(**kwargs):
        pool = WorkerPool(backend=PROCESS, **kwargs)
        pools.append(pool)
        return pool

    yield make
    for pool in pools:
        pool.close()


@pytest.fixture
def fork_starts(monkeypatch):
    """The pid of every process-backend worker started during the test."""
    from multiprocessing.context import ForkProcess

    start = ForkProcess.start
    pids = []

    def counting_start(proc):
        start(proc)
        pids.append(proc.pid)

    monkeypatch.setattr(ForkProcess, "start", counting_start)
    return pids


def _no_new_children(before):
    return not set(multiprocessing.active_children()) - before


class TestProcessBackend:
    def test_roundtrip(self, process_pool):
        results = _map_within(process_pool(jobs=2), lambda x: x + 1,
                              [1, 2, 3])
        assert [r.value for r in results] == [2, 3, 4]

    def test_results_in_input_order_despite_finish_order(self,
                                                         process_pool):
        def slow_then_fast(x):
            # earlier items sleep longer, so completion order reverses
            time.sleep(0.1 * (2 - x))
            return x * 2

        reported = []
        results = _map_within(process_pool(jobs=2), slow_then_fast,
                              [0, 1, 2], progress=reported.append)
        assert [r.value for r in results] == [0, 2, 4]
        assert [r.index for r in results] == [0, 1, 2]
        assert [r.index for r in reported] == [0, 1, 2]

    def test_hung_task_is_timed_by_the_dispatcher(self, process_pool):
        """A hung task sends nothing back: it has no value and no
        error, and its seconds run from the send to the kill."""
        (result,) = _map_within(process_pool(jobs=1, timeout=0.2),
                                time.sleep, [30])
        assert result.status == TASK_HUNG
        assert (result.value, result.error) == (None, None)
        assert result.seconds >= 0.2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_task_seconds_are_the_workers_own(self, process_pool, jobs):
        """A finished task's seconds are what the worker spent on it,
        not the time its reply waited while the parent ran a slow
        ``progress`` callback."""
        def work(x):
            time.sleep(0.02)
            if x == 3:
                raise RuntimeError("the error path is timed too")
            return x

        results = _map_within(process_pool(jobs=jobs), work, [0, 1, 2, 3],
                              progress=lambda _result: time.sleep(0.2))
        assert [r.status for r in results] \
            == [TASK_OK, TASK_OK, TASK_OK, TASK_ERROR]
        assert all(0.02 <= r.seconds < 0.1 for r in results), \
            [r.seconds for r in results]

    def test_worker_exception_travels_back(self, process_pool):
        def boom(_x):
            raise RuntimeError("inside the child")

        (result,) = _map_within(process_pool(jobs=1), boom, [0])
        assert result.status == TASK_ERROR
        assert isinstance(result.error, RemoteTaskError)
        assert "inside the child" in str(result.error)

    def test_dead_worker_is_crashed_not_fatal(self, process_pool):
        def die(_x):
            os._exit(3)

        results = _map_within(process_pool(jobs=1), die, [0, 1])
        assert [r.status for r in results] == [TASK_CRASHED, TASK_CRASHED]
        assert "exit code 3" in str(results[0].error)

    def test_hung_worker_killed_on_timeout(self, process_pool):
        def hang(x):
            if x == "hang":
                time.sleep(30)
            return x

        started = time.monotonic()
        results = _map_within(process_pool(jobs=1, timeout=0.5), hang,
                              ["ok", "hang"])
        assert results[0].status == TASK_OK
        assert results[1].status == TASK_HUNG
        assert time.monotonic() - started < 10

    def test_unpicklable_item_or_result_is_an_error(self, process_pool):
        pool = process_pool(jobs=1)
        (result,) = _map_within(pool, lambda _x: threading.Lock(), [0])
        assert result.status == TASK_ERROR
        assert "could not serialize task result" in str(result.error)
        # items travel over the pipe too; the worker stays usable
        results = _map_within(pool, lambda x: x, [threading.Lock(), 1])
        assert [r.status for r in results] == [TASK_ERROR, TASK_OK]
        assert "could not serialize task item" in str(results[0].error)

    def test_failed_start_is_crashed_not_a_hang(self, monkeypatch,
                                                process_pool):
        """A worker that never starts (``fork`` failing with ``EAGAIN``
        or ``ENOMEM``) is a crashed task; ``map`` must still return."""
        from multiprocessing.context import ForkProcess

        def refuse(_proc):
            raise OSError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(ForkProcess, "start", refuse)
        (result,) = _map_within(process_pool(jobs=1, timeout=30.0),
                                lambda x: x, [1], deadline=5.0)
        assert result.status == TASK_CRASHED
        assert "fork refused" in str(result.error)

    def test_host_without_fork_is_refused_by_name(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        with pytest.raises(ValueError, match="'fork'"):
            WorkerPool(jobs=1, backend=PROCESS)
        for kwargs in (dict(jobs=2), dict(jobs=1, timeout=1.0)):
            with pytest.raises(ValueError, match="jobs=1 and no timeout"):
                WorkerPool(**kwargs)
        assert WorkerPool(jobs=1).backend == SERIAL

    def test_worker_reaped_out_from_under_the_pool_is_ok(
            self, monkeypatch, process_pool, fork_starts):
        """A worker that reports and then exits, its exit status reaped
        by someone else (a ``Process.start()`` polls every live child)
        before the dispatcher looks: the payload on the pipe, not the
        exit status, decides."""
        from repro.core.exec import pool as pool_module

        real_wait = pool_module.wait
        reaped = []

        def report_then_exit(x):
            threading.Timer(0.1, os._exit, (0,)).start()
            return x * 7

        def wait_after_reaping(objects, timeout=None):
            for pid in fork_starts:
                if pid not in reaped:
                    os.waitpid(pid, 0)  # what a foreign poll does
                    reaped.append(pid)
            return real_wait(objects, timeout)

        monkeypatch.setattr(pool_module, "wait", wait_after_reaping)
        (result,) = _map_within(process_pool(jobs=1, timeout=30.0),
                                report_then_exit, [6])
        assert result.status == TASK_OK
        assert result.value == 42


class TestPersistentWorkers:
    """The process backend forks ``jobs`` workers once and replaces
    only the ones that die or hang."""

    def test_same_function_reuses_the_workers(self, process_pool,
                                              fork_starts):
        pool = process_pool(jobs=1)
        double = lambda x: x * 2            # noqa: E731
        for _ in range(3):
            results = _map_within(pool, double, [1, 2, 3])
            assert [r.value for r in results] == [2, 4, 6]
        assert len(fork_starts) == 1
        # another function needs workers that run it
        _map_within(pool, lambda x: -x, [1])
        assert len(fork_starts) == 2

    def test_crash_mid_batch_replaces_one_worker(self, process_pool,
                                                 fork_starts):
        def work(x):
            if x == "die":
                os._exit(5)
            return x

        results = _map_within(process_pool(jobs=1), work,
                              ["a", "die", "b"])
        assert [r.status for r in results] \
            == [TASK_OK, TASK_CRASHED, TASK_OK]
        assert [r.value for r in results] == ["a", None, "b"]
        assert "exit code 5" in str(results[1].error)
        assert len(fork_starts) == 2

    def test_hang_mid_batch_replaces_one_worker(self, process_pool,
                                                fork_starts):
        def work(x):
            if x == "hang":
                time.sleep(30)
            return x

        results = _map_within(process_pool(jobs=1, timeout=0.5), work,
                              ["a", "hang", "b"])
        assert [r.status for r in results] == [TASK_OK, TASK_HUNG, TASK_OK]
        assert results[2].value == "b"
        assert len(fork_starts) == 2

    def test_worker_killed_between_tasks_is_replaced(self, process_pool,
                                                     fork_starts):
        """A worker killed while idle fails the task sent to it next;
        the task after that runs on a fresh fork."""
        pool = process_pool(jobs=1)
        identity = lambda x: x              # noqa: E731
        _map_within(pool, identity, [0])
        os.kill(fork_starts[0], signal.SIGKILL)
        time.sleep(0.2)
        results = _map_within(pool, identity, [1, 2])
        assert [r.status for r in results] == [TASK_CRASHED, TASK_OK]
        assert f"exit code -{int(signal.SIGKILL)}" in str(results[0].error)
        assert len(fork_starts) == 2

    def test_close_stops_every_worker(self):
        before = set(multiprocessing.active_children())
        pool = WorkerPool(jobs=2, backend=PROCESS)
        _map_within(pool, lambda x: x, [1, 2, 3, 4])
        pool.close()
        assert _no_new_children(before)
        pool.close()                        # idempotent
        # a closed pool forks afresh on the next map
        assert [r.value for r in _map_within(pool, lambda x: x, [7])] \
            == [7]
        pool.close()
        assert _no_new_children(before)

    def test_raising_progress_stops_every_worker(self, process_pool):
        def slow(x):
            if x:
                time.sleep(5)
            return x

        def full(_result):
            raise RuntimeError("journal full")

        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="journal full"):
            _map_within(process_pool(jobs=2), slow, [0, 1, 1],
                        progress=full)
        assert _no_new_children(before)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_guided_campaign_forks_jobs_workers(
            self, jobs, pool_items, fork_starts, libc_linux,
            libc_profiles_linux):
        """Three guided batches (three ``map`` calls) share ``jobs``
        workers, and none outlives ``execute_campaign``."""
        from tests.test_guided_equivalence import _factory

        from repro.core.campaign import FaultCase
        from repro.core.exec.engine import execute_campaign
        from repro.core.scenario import ErrorCode
        from repro.platform import LINUX_X86

        # the guided frontier runs 19 of these 54 cases, 8 at a time
        cases = [FaultCase(fn, ErrorCode(-1, errno), ordinal)
                 for fn in ("open", "write", "close")
                 for errno in ("EIO", "EACCES", "ENOSPC", "EINTR",
                               "EBADF", "EFBIG")
                 for ordinal in (1, 2, 3)]
        before = set(multiprocessing.active_children())
        factory = _factory(libc_linux)
        report = _within(lambda: execute_campaign(
            "guided-pool", factory, LINUX_X86, libc_profiles_linux, cases,
            jobs=jobs, backend=PROCESS, guided=True), 60.0)
        assert len(pool_items) == 3, pool_items
        assert all(r.outcome.status not in (TASK_CRASHED, TASK_HUNG)
                   for r in report.results)
        assert len(fork_starts) == resolve_jobs(jobs)
        assert _no_new_children(before)
