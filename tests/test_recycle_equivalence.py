"""Differential equivalence: recycled processes == freshly built ones.

Inside a campaign, ``Controller.make_process`` takes over a process
parked right after loading instead of building one: the process is
rewound to its post-load checkpoint, moved onto the case's kernel and
relinked to the case controller's shim.  The contract is that no case
can tell: every case run on a recycled process must produce the
:class:`CaseResult` a freshly built process produces — status, exit
code, detail, instruction count, injection sites, output digest,
coverage, and the captured event stream and metrics — whatever ran on
the process before.

CI runs this file with ``-rs`` and fails the job if any test here is
skipped.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.minidb import DbError, MiniDB
from repro.cli import _campaign_factory
from repro.core.campaign import enumerate_cases, run_campaign
from repro.core.controller import Controller
from repro.core.exec.engine import _case_runner
from repro.core.exec.snapshot import SnapshotRunner
from repro.core.profiler import Profiler
from repro.corpus.libc import libc
from repro.errors import LoaderError
from repro.kernel import Kernel, build_kernel_image
from repro.kernel.vfs import O_CREAT, O_RDWR
from repro.platform import LINUX_X86, WINDOWS_X86
from repro.runtime import SnapshotCache

_PROFILES = {}


def _profiles(platform):
    if platform.name not in _PROFILES:
        image = libc(platform).image
        _PROFILES[platform.name] = Profiler(
            platform, {image.soname: image},
            build_kernel_image(platform)).profile_all()
    return _PROFILES[platform.name]


def _fingerprint(events):
    """Events minus the wall-clock noise (seq/ts/seconds)."""
    return [(e.get("kind"), e.get("severity"),
             sorted((k, v) for k, v in e.get("fields", {}).items()
                    if k != "seconds"))
            for e in events]


def _result_row(r):
    """Everything a case's result carries that a recycled process could
    perturb."""
    return (r.outcome.status, r.outcome.exit_code, r.outcome.detail,
            r.instructions, r.fired, r.sites, r.output, r.coverage,
            _fingerprint(r.events), r.metrics)


def _row(factory, platform, profiles, case, parked):
    """One case's result row; an exception it raises is a row too."""
    try:
        return _result_row(_case_runner(factory, platform, profiles, case,
                                        capture=True, observe=True,
                                        parked=parked))
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


@pytest.mark.parametrize("platform", [LINUX_X86, WINDOWS_X86],
                         ids=lambda p: p.name)
@pytest.mark.parametrize("app", ["minidb", "miniweb", "pidgin"])
def test_every_case_matches_a_fresh_process(app, platform):
    profiles = _profiles(platform)
    # pidgin's pipe cases stay out, as in every pidgin campaign here:
    # pipe@2 never returns (the resolver spins forever)
    cases = [case for case in enumerate_cases(profiles)
             if not (app == "pidgin" and case.function == "pipe")]
    factory = _campaign_factory(app, platform)
    parked = SnapshotCache()
    for case in cases:
        fresh = _row(factory, platform, profiles, case, None)
        recycled = _row(factory, platform, profiles, case, parked)
        assert recycled == fresh, case.case_id()
    # the pool really served the cases: most took a parked process
    # over instead of building one (a case that raised lost its own)
    stats = parked.stats()
    assert stats["reused"] >= len(cases) // 2
    assert stats["free"] >= 1


# -- no state leaks between cases --------------------------------------------


def _abort_factory(lfi):
    """minidb with a workload that exits with an error on a failed
    load, and aborts (SIGABRT) on a failed query or checkpoint."""
    def session():
        db = MiniDB(Kernel(os_name=LINUX_X86.os), LINUX_X86, controller=lfi)
        try:
            db.execute("create table t k v")
            for i in range(3):
                db.execute(f"insert into t {i} value{i}")
        except DbError:
            return 1
        try:
            db.execute("select from t where k 1")
            db.checkpoint()
        except DbError:
            db.proc.abort("minidb: query failed")
        return 0
    return session


@pytest.fixture(scope="module")
def mixed_cases():
    """A few minidb cases of every outcome, and their rows when each
    runs on a freshly built process."""
    profiles = _profiles(LINUX_X86)
    candidates = enumerate_cases(
        profiles, functions=["malloc", "open", "write", "fsync", "read"],
        call_ordinals=(1, 2, 3))
    by_status = {}
    for case in candidates:
        row = _row(_abort_factory, LINUX_X86, profiles, case, None)
        by_status.setdefault(row[0], []).append((case, row))
    assert {"normal", "error-exit", "SIGSEGV", "SIGABRT"} <= set(by_status)
    picked = [pair for pairs in by_status.values() for pair in pairs[:3]]
    return profiles, sorted(picked, key=lambda pair: pair[0].case_id())


def test_sorted_order_matches_fresh_processes(mixed_cases):
    profiles, picked = mixed_cases
    parked = SnapshotCache()
    for case, fresh in picked:
        assert _row(_abort_factory, LINUX_X86, profiles, case,
                    parked) == fresh, case.case_id()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_order_with_repeats_gives_the_same_rows(mixed_cases, data):
    """Crashes, aborts and error exits leave the recycled process in
    any state; whatever ran before, a case's row must not change."""
    profiles, picked = mixed_cases
    order = data.draw(st.lists(st.integers(0, len(picked) - 1),
                               min_size=2, max_size=16))
    parked = SnapshotCache()
    for index in order:
        case, fresh = picked[index]
        assert _row(_abort_factory, LINUX_X86, profiles, case,
                    parked) == fresh, case.case_id()


# -- the pool's mechanics ------------------------------------------------------


def _controller(function="close"):
    profiles = _profiles(LINUX_X86)
    case = enumerate_cases(profiles, functions=[function])[0]
    return Controller(LINUX_X86, profiles, case.plan())


def test_recycled_process_syscalls_reach_its_new_kernel():
    """Bound blocks outlive a case, so the ``int 0x80`` closure must
    find the process's kernel per call, not the one it was bound on."""
    image = libc(LINUX_X86).image
    parked = SnapshotCache()

    def open_file(kernel, path):
        lfi = _controller()
        lfi._parked = parked
        proc = lfi.make_process(kernel, [image])
        assert proc.libcall("open", proc.cstr(path), O_CREAT | O_RDWR,
                            0o644) >= 0
        lfi._return_parked()
        return proc

    first, second = Kernel(), Kernel()
    proc = open_file(first, "/first")
    assert open_file(second, "/second") is proc
    assert proc.kernel is second
    assert second.vfs.exists("/second")
    assert not first.vfs.exists("/second")
    assert second.processes == [proc]


def test_recycled_process_carries_each_new_controllers_shim():
    """Each take-over relinks the shim to the new controller's exports
    and eval symbol; nothing of an earlier controller's stays linked."""
    image = libc(LINUX_X86).image
    parked = SnapshotCache()
    proc = None
    earlier = []
    for function in ("close", "open", "read"):
        lfi = _controller(function)
        lfi._parked = parked
        taken = lfi.make_process(Kernel(), [image])
        assert proc is None or taken is proc
        proc = taken
        shim = proc.modules[lfi.injector.shim_module_index]
        assert shim.image is lfi.shim
        stub = proc.lookup(function)
        assert shim.contains(stub)
        assert proc.symbol_for_addr(stub) == function
        assert proc.lookup(lfi.eval_symbol) in proc.host_functions
        for before in earlier:
            assert not shim.contains(proc.lookup(before.functions[0]))
            with pytest.raises(LoaderError):
                proc.lookup(before.eval_symbol)
        earlier.append(lfi)
        lfi._return_parked()
    with pytest.raises(LoaderError):    # only the same code relinks
        proc.relink(shim, image)


def test_case_raising_outside_the_run_returns_no_process():
    image = libc(LINUX_X86).image
    profiles = _profiles(LINUX_X86)
    case = enumerate_cases(profiles, functions=["close"])[0]
    parked = SnapshotCache()

    def broken(lfi):
        lfi.make_process(Kernel(), [image])
        raise RuntimeError("the harness failed before the run")

    with pytest.raises(RuntimeError):
        _case_runner(broken, LINUX_X86, profiles, case, parked=parked)
    assert parked.stats()["free"] == 0

    def working(lfi):
        lfi.make_process(Kernel(), [image])
        return lambda: 0

    _case_runner(working, LINUX_X86, profiles, case, parked=parked)
    assert parked.stats()["free"] == 1


def test_forked_workers_match_serial_rows():
    """Two forked workers each inherit the parent's empty pool and
    recycle their own parked process; every case's row must equal the
    serial run's, whichever worker ran the case and what it ran before."""
    profiles = _profiles(LINUX_X86)
    cases = enumerate_cases(profiles, functions=["open", "malloc", "close"],
                            call_ordinals=(1, 2))
    factory = _campaign_factory("minidb", LINUX_X86)

    def rows(report):
        return [(r.case.case_id(), r.outcome.status, r.outcome.detail,
                 r.instructions, r.fired, r.sites) for r in report.results]

    serial = run_campaign("minidb", factory, LINUX_X86, profiles, cases)
    forked = run_campaign("minidb", factory, LINUX_X86, profiles, cases,
                          jobs=2, backend="process", timeout=60)
    assert forked.summary.backend == "process"
    assert rows(forked) == rows(serial)


def test_snapshot_fallbacks_recycle_processes_too():
    """Cases the snapshot runner must run from the start (their
    ordinal falls inside the checkpointed prefix) take parked processes
    over as well, with unchanged results."""
    profiles = _profiles(LINUX_X86)
    factory = _campaign_factory("minidb", LINUX_X86)
    runner = SnapshotRunner("minidb", factory, LINUX_X86, profiles,
                            capture=True, observe=True)
    # booting minidb creates its data directory: every mkdir@1 case
    # fires inside the prefix
    cases = enumerate_cases(profiles, functions=["mkdir"])
    for case in cases:
        result = runner.run_case(case)
        assert result.snapshot is None, case.case_id()        # a fallback
        assert _result_row(result) == _row(factory, LINUX_X86, profiles,
                                           case, None), case.case_id()
    assert runner.parked.stats()["reused"] == len(cases) - 1
