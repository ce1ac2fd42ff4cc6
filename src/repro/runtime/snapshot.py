"""Guest checkpoint/restore: the fork-server substrate for campaigns.

Every cell of a systematic campaign (§4–§5) shares an identical prefix —
load the libraries, resolve symbols, run the workload's setup, execute
up to the trigger point.  This module checkpoints a live guest at that
prefix point and rewinds it in **O(dirty state)**:

* :class:`~repro.runtime.memory.Memory` journals the original bytes of
  each page on first write after ``snapshot_begin`` (copy-on-write), so
  restore rewrites only the dirty-page set;
* the kernel side (VFS tree, fd tables, pipes, sockets, clocks) is
  frozen once by ``Kernel.clone`` and re-thawed per restore with a
  *shared* deepcopy memo, so hard links and open descriptors keep their
  aliasing;
* CPU registers/flags/eip, the shadow call stack, loader and provider
  tables, the scratch arena and host-function bindings roll back to the
  checkpoint.

Identity stability is the load-bearing invariant: compiled basic-block
closures capture the register ``values`` list, the ``Memory`` object
and the ``host_functions`` dict *by identity* (see ``cpu._BindContext``),
so restore mutates those objects in place and never replaces them.

:class:`SnapshotCache` pools live checkpoint instances per worker
process, keyed by ``(image digest, workload id, prefix point)``; the
campaign engine (``core.exec.snapshot``) builds one instance per trigger
function and replays only the post-trigger suffix per fault case.
"""

from __future__ import annotations

import copy
import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .cpu import ShadowFrame
from .memory import PAGE_SIZE


@dataclass
class RestoreStats:
    """What one :meth:`MachineSnapshot.restore` actually rewrote."""

    dirty_pages: int = 0
    processes: int = 0

    @property
    def bytes_restored(self) -> int:
        return self.dirty_pages * PAGE_SIZE


@dataclass
class ProcessSnapshot:
    """Frozen state of one guest process (paired with its live object)."""

    proc: Any
    regs: List[int]
    zf: bool
    sf: bool
    eip: int
    shadow: List[Tuple[int, int]]
    instructions: int
    coverage: Optional[Dict[int, int]]
    modules_len: int
    host_functions: Dict[int, Any]
    next_host_addr: int
    providers: Dict[str, List[Tuple[int, int, int]]]
    next_priority: int
    plt_cache: Dict[Tuple[int, int], int]
    scratch_next: int
    app_stack: List[str]
    exit_status: Optional[int]
    kstate_frozen: Any                    # deepcopied with the kernel memo


class MachineSnapshot:
    """A checkpoint of a set of live guest processes and their kernels.

    ``capture`` arms copy-on-write journaling on every process's memory
    and freezes everything else; ``restore`` rewinds the same live
    objects back to the checkpoint.  The snapshot stays armed across
    restores, so one capture serves any number of replays.
    """

    def __init__(self) -> None:
        self.kernels: List[Tuple[Any, Dict[str, Any]]] = []
        self.procs: List[ProcessSnapshot] = []
        self.resident_bytes = 0
        self.image_digest = ""

    @classmethod
    def capture(cls, processes: List[Any]) -> "MachineSnapshot":
        snap = cls()
        by_kernel: Dict[int, Tuple[Any, List[Any]]] = {}
        for proc in processes:
            by_kernel.setdefault(id(proc.kernel),
                                 (proc.kernel, []))[1].append(proc)
        digest = hashlib.sha256()
        for kernel, procs in by_kernel.values():
            memo: dict = {}
            snap.kernels.append((kernel, kernel.clone(memo)))
            for proc in procs:
                proc.memory.snapshot_begin()
                snap.resident_bytes += proc.memory.resident_bytes()
                for module in proc.modules:
                    digest.update(module.image.text)
                snap.procs.append(ProcessSnapshot(
                    proc=proc,
                    regs=list(proc.cpu.regs.values),
                    zf=proc.cpu.zf, sf=proc.cpu.sf, eip=proc.cpu.eip,
                    shadow=[(f.return_addr, f.callee_addr)
                            for f in proc.cpu.shadow],
                    instructions=proc.cpu.instructions_executed,
                    coverage=(None if proc.cpu.coverage is None
                              else dict(proc.cpu.coverage)),
                    modules_len=len(proc.modules),
                    host_functions=dict(proc.host_functions),
                    next_host_addr=proc._next_host_addr,
                    providers={name: list(entries) for name, entries
                               in proc._providers.items()},
                    next_priority=proc._next_priority,
                    plt_cache=dict(proc._plt_cache),
                    scratch_next=proc._scratch_next,
                    app_stack=list(proc.app_stack),
                    exit_status=proc.exit_status,
                    kstate_frozen=copy.deepcopy(proc.kstate, memo)))
        snap.image_digest = digest.hexdigest()
        return snap

    def restore(self) -> RestoreStats:
        stats = RestoreStats(processes=len(self.procs))
        memos: Dict[int, dict] = {}
        for kernel, frozen in self.kernels:
            memo: dict = {}
            kernel.restore(frozen, memo)
            memos[id(kernel)] = memo
        for ps in self.procs:
            stats.dirty_pages += ps.proc.memory.snapshot_restore()
            self._restore_process(ps, memos[id(ps.proc.kernel)])
        return stats

    @staticmethod
    def _restore_process(ps: ProcessSnapshot, memo: dict) -> None:
        proc = ps.proc
        cpu = proc.cpu
        # registers/flags/control flow — values list mutated in place;
        # compiled block closures hold the list object itself
        cpu.regs.values[:] = ps.regs
        cpu.zf, cpu.sf, cpu.eip = ps.zf, ps.sf, ps.eip
        cpu.shadow[:] = [ShadowFrame(ret, callee)
                         for ret, callee in ps.shadow]
        cpu.instructions_executed = ps.instructions
        # coverage is hoisted per run() call, never captured by block
        # closures, so swapping the dict object is identity-safe
        cpu.coverage = None if ps.coverage is None else dict(ps.coverage)
        # loader state — modules loaded after the snapshot unmap (their
        # regions vanished with the memory restore), so drop their
        # decoded code and compiled blocks too
        if len(proc.modules) > ps.modules_len:
            del proc.modules[ps.modules_len:]
            keep = {m.base for m in proc.modules}
            proc._module_code = {base: mc for base, mc
                                 in proc._module_code.items()
                                 if base in keep}
            proc.code_cache = {}
            for mc in proc._module_code.values():
                proc.code_cache.update(mc.entries)
            cpu._blocks.clear()
        # host bindings — the dict object is captured by block closures
        proc.host_functions.clear()
        proc.host_functions.update(ps.host_functions)
        proc._next_host_addr = ps.next_host_addr
        proc._providers = {name: list(entries) for name, entries
                           in ps.providers.items()}
        proc._next_priority = ps.next_priority
        proc._plt_cache = dict(ps.plt_cache)
        proc._scratch_next = ps.scratch_next
        proc.app_stack[:] = ps.app_stack
        proc.exit_status = ps.exit_status
        # kernel-side per-process state: thaw with the kernel's memo so
        # open fds point into the freshly thawed VFS/pipe/socket objects
        thawed = copy.deepcopy(ps.kstate_frozen, memo)
        kstate = proc.kstate
        kstate.fds = thawed.fds
        kstate.next_fd = thawed.next_fd
        kstate.heap_next = thawed.heap_next
        kstate.heap_used = thawed.heap_used
        kstate.allocs = thawed.allocs

    def detach(self) -> None:
        """Disarm copy-on-write journaling on every captured process."""
        for ps in self.procs:
            ps.proc.memory.snapshot_end()


#: Cache keys: (image digest, workload id, prefix point).
SnapshotKey = Tuple[str, str, str]


class SnapshotCache:
    """A per-worker pool of live checkpoint instances.

    One worker process shares one cache: the serial backend uses it
    directly, thread-backend workers check instances out and back in
    under the lock, and the process backend builds instances *before*
    forking its workers (the campaign engine primes it in the parent)
    so each worker inherits them at the snapshot point.  The campaign
    runner rewinds an instance right after its case and only then
    releases it, so a free instance holds no dirty pages or journal,
    however many cases a long-lived worker replays on it.

    The cache never evicts — a campaign holds at most one instance per
    (prefix point × concurrent worker), and instances die with the
    worker process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: Dict[SnapshotKey, List[Any]] = {}
        self.built = 0
        self.reused = 0
        self.discarded = 0

    def acquire(self, key: SnapshotKey,
                build: Callable[[], Any]) -> Any:
        """Check out a free instance for ``key``, building one if the
        pool is empty.  Builds run outside the lock (they execute the
        whole workload prefix)."""
        with self._lock:
            pool = self._free.get(key)
            if pool:
                self.reused += 1
                return pool.pop()
        instance = build()
        with self._lock:
            self.built += 1
        return instance

    def release(self, key: SnapshotKey, instance: Any) -> None:
        with self._lock:
            self._free.setdefault(key, []).append(instance)

    def discard(self, instance: Any = None) -> None:
        """Drop a checked-out instance instead of returning it (its
        guest state is suspect, e.g. the case raised outside the
        monitored region)."""
        with self._lock:
            self.discarded += 1

    def prime(self, key: SnapshotKey, build: Callable[[], Any]) -> bool:
        """Ensure at least one instance exists for ``key`` (used by the
        process backend's pre-fork priming).  Returns True if it built."""
        with self._lock:
            if self._free.get(key):
                return False
        instance = build()
        with self._lock:
            self.built += 1
            self._free.setdefault(key, []).append(instance)
        return True

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "keys": len(self._free),
                "free": sum(len(v) for v in self._free.values()),
                "built": self.built,
                "reused": self.reused,
                "discarded": self.discarded,
            }
