"""Differential equivalence for the generalized action model.

Two guarantees the API redesign must not bend:

* ReturnFault-only plans (the entire legacy scenario surface) produce
  **bit-identical** campaign results on both execution backends —
  serial and process pool — so nothing about the open action model
  perturbed the deterministic path.
* Probabilistic (fail-rate) campaigns replay **bit-identically** from
  their content-derived recorded seeds — across fresh re-runs and under
  ``--resume`` from a durable result store.

CI runs this file with ``-rs`` and fails the job if any test here is
skipped — the guarantee must actually be exercised, not waved through.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.loadgen import LatencyRegression, LoadGenerator
from repro.apps.miniweb import MiniWeb
from repro.apps.minidb import DbError, MiniDB
from repro.core.campaign import (FaultCase, PrefixFactory, enumerate_cases,
                                 run_campaign)
from repro.core.controller import Controller
from repro.core.controller.triggers import RANDOM_RULE
from repro.core.results import ResultStore
from repro.core.scenario import DelayFault, FunctionTrigger, Plan
from repro.core.scenario.generate import error_codes_from_profile
from repro.errors import ResultsError
from repro.kernel import Kernel
from repro.obs import Telemetry
from repro.platform import LINUX_X86

_ROWS = 6
_FUNCTIONS = ["read", "write", "close", "fsync"]


def _make_factory() -> PrefixFactory:
    def setup(lfi):
        db = MiniDB(Kernel(os_name=LINUX_X86.os), LINUX_X86,
                    controller=lfi)
        db.execute("create table t k v")
        for i in range(_ROWS):
            db.execute(f"insert into t {i} value{i}")
        db.checkpoint()
        return db

    def run(lfi, db):
        try:
            db.execute("select from t where k 1")
            db.execute("insert into t 99 tail")
            db.checkpoint()
        except DbError:
            return 1
        return 0

    return PrefixFactory(setup, run, workload_id="minidb-actions")


@pytest.fixture(scope="module")
def return_space(libc_profiles_linux):
    """A pure-ReturnFault case list: the legacy scenario surface."""
    profile = libc_profiles_linux["libc.so.6"]
    cases = []
    for fn in _FUNCTIONS:
        for code in error_codes_from_profile(profile.functions[fn])[:2]:
            cases.append(FaultCase(fn, code, 1))
            cases.append(FaultCase(fn, code, 3))
    return _make_factory(), cases


@pytest.fixture(scope="module")
def probabilistic_space(libc_profiles_linux):
    """Fail-rate delay + return cases with content-derived seeds."""
    cases = enumerate_cases(libc_profiles_linux,
                            functions=["read", "write"],
                            max_codes_per_function=1,
                            fault_classes=("return", "delay"),
                            latency_ns=200_000, fail_rate=0.3)
    assert all(c.plan().triggers[0].probability == 0.3 for c in cases)
    assert all(c.plan().seed is not None for c in cases)
    return _make_factory(), cases


def _event_fingerprint(events):
    """Events minus the wall-clock noise (seq/ts/seconds)."""
    out = []
    for record in events:
        fields = {k: v for k, v in record.get("fields", {}).items()
                  if k != "seconds"}
        out.append((record.get("kind"), record.get("severity"),
                    tuple(sorted(fields.items()))))
    return out


def _assert_identical(first, second):
    assert len(first.results) == len(second.results)
    for f, s in zip(first.results, second.results):
        cid = f.case.case_id()
        assert f.case == s.case, cid
        assert f.outcome.status == s.outcome.status, cid
        assert f.outcome.detail == s.outcome.detail, cid
        assert f.fired == s.fired, cid
        assert f.instructions == s.instructions, cid
        assert _event_fingerprint(f.events) == \
            _event_fingerprint(s.events), cid
        assert f.metrics == s.metrics, cid


def _run(space, profiles, *, backend="serial", jobs=1, **kw):
    factory, cases = space
    return run_campaign("actions-equiv", factory, LINUX_X86, profiles,
                        cases, jobs=jobs, backend=backend,
                        telemetry=Telemetry(), **kw)


class TestReturnFaultCrossBackend:
    """ReturnFault plans are bit-identical on both backends."""

    def test_serial_and_process_agree(self, return_space,
                                      libc_profiles_linux):
        serial = _run(return_space, libc_profiles_linux)
        process = _run(return_space, libc_profiles_linux,
                       backend="process", jobs=3)
        _assert_identical(serial, process)

    def test_snapshot_replay_still_identical(self, return_space,
                                             libc_profiles_linux):
        fresh = _run(return_space, libc_profiles_linux)
        snap = _run(return_space, libc_profiles_linux, snapshot=True)
        _assert_identical(fresh, snap)
        assert any(r.snapshot is not None for r in snap.results)


class TestProbabilisticReplay:
    """Recorded seeds make fail-rate campaigns exactly replayable."""

    def test_fresh_reruns_bit_identical(self, probabilistic_space,
                                        libc_profiles_linux):
        first = _run(probabilistic_space, libc_profiles_linux)
        second = _run(probabilistic_space, libc_profiles_linux)
        _assert_identical(first, second)
        # the faults must actually fire somewhere for this to mean much
        assert any(r.fired for r in first.results)

    def test_snapshot_campaign_falls_back_and_agrees(
            self, probabilistic_space, libc_profiles_linux):
        fresh = _run(probabilistic_space, libc_profiles_linux)
        snap = _run(probabilistic_space, libc_profiles_linux,
                    snapshot=True)
        _assert_identical(fresh, snap)
        # probabilistic cases cannot replay a suffix (the RNG stream
        # spans the prefix); every one must have run fresh
        assert all(r.snapshot is None for r in snap.results)

    def test_resume_from_store_is_bit_identical(
            self, probabilistic_space, libc_profiles_linux, tmp_path):
        store = ResultStore(tmp_path / "results")
        key = {"workload": "minidb-actions"}
        first = _run(probabilistic_space, libc_profiles_linux,
                     results=store, results_key=key)
        resumed = _run(probabilistic_space, libc_profiles_linux,
                       results=store, results_key=key, resume=True)
        assert resumed.resumed["skipped"] == len(first.results)
        for f, r in zip(first.results, resumed.results):
            assert f.case == r.case
            assert f.outcome.status == r.outcome.status
            assert f.fired == r.fired

    def test_seed_changes_with_action_content(self, libc_profiles_linux):
        delay = enumerate_cases(libc_profiles_linux, functions=["read"],
                                fault_classes=("delay",),
                                latency_ns=100_000, fail_rate=0.3)[0]
        slower = enumerate_cases(libc_profiles_linux, functions=["read"],
                                 fault_classes=("delay",),
                                 latency_ns=900_000, fail_rate=0.3)[0]
        assert delay.plan().seed != slower.plan().seed


def _journaled_by_6x(store: ResultStore) -> str:
    """Make the store's one campaign look journaled by 6.x, whose meta
    named no random rule; returns its key."""
    key = store.resolve()
    meta_path = store.root / key / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert meta.pop("random_rule") == RANDOM_RULE
    meta_path.write_text(json.dumps(meta))
    return key


class TestResumeAcrossRandomRules:
    """Meta names the random rule, so results rolled by the per-call
    rule never resume into a countdown run."""

    def test_probabilistic_6x_journal_refuses_to_resume(
            self, probabilistic_space, libc_profiles_linux, tmp_path):
        store = ResultStore(tmp_path / "results")
        key = {"workload": "minidb-actions"}
        first = _run(probabilistic_space, libc_profiles_linux,
                     results=store, results_key=key)
        campaign = _journaled_by_6x(store)
        with pytest.raises(ResultsError) as err:
            _run(probabilistic_space, libc_profiles_linux,
                 results=store, results_key=key, resume=True)
        assert campaign in str(err.value)
        assert first.results[0].case.case_id() in str(err.value)
        assert "~p0.3" in first.results[0].case.case_id()

    def test_exact_ordinal_6x_journal_resumes(self, return_space,
                                              libc_profiles_linux, tmp_path):
        store = ResultStore(tmp_path / "results")
        key = {"workload": "minidb-actions"}
        first = _run(return_space, libc_profiles_linux,
                     results=store, results_key=key)
        _journaled_by_6x(store)
        resumed = _run(return_space, libc_profiles_linux,
                       results=store, results_key=key, resume=True)
        assert resumed.resumed == {"skipped": len(first.results),
                                   "replayed": 0}
        assert [(r.case, r.outcome.status, r.fired)
                for r in resumed.results] == [
            (r.case, r.outcome.status, r.fired) for r in first.results]
        meta = json.loads((store.root / store.resolve()
                           / "meta.json").read_text())
        assert meta["random_rule"] == RANDOM_RULE


class TestLatencyCampaign:
    """The loadgen workload: deterministic latency, visible injections."""

    def _run_load(self, profiles, plan, n_clients=24, window=6):
        lfi = Controller(LINUX_X86, profiles, plan) if plan else None
        server = MiniWeb(Kernel(), LINUX_X86, controller=lfi)
        gen = LoadGenerator(server, window=window)
        return gen.run(n_clients)

    def test_latency_is_deterministic(self, web_stack_linux):
        _images, profiles = web_stack_linux
        a = self._run_load(profiles, None)
        b = self._run_load(profiles, None)
        assert a.samples == b.samples
        assert a.failures == b.failures == 0

    def test_delay_fault_shows_up_in_tail_latency(self, web_stack_linux):
        _images, profiles = web_stack_linux
        baseline = self._run_load(profiles, None).report()

        plan = Plan()
        plan.add(FunctionTrigger(function="apr_socket_recv", mode="nth",
                                 nth=10, actions=(DelayFault(50_000_000),),
                                 calloriginal=True))
        slow = self._run_load(profiles, plan).report()

        regression = LatencyRegression(baseline, slow, threshold=1.25)
        assert not regression.ok
        assert "p99" in regression.regressions()
        assert slow.max_ns >= baseline.max_ns + 50_000_000
        # requests still succeed: the fault is latency, not failure
        assert slow.failures == 0
        report = regression.render()
        assert "REGRESSED" in report

    def test_self_comparison_is_clean(self, web_stack_linux):
        _images, profiles = web_stack_linux
        report = self._run_load(profiles, None).report()
        regression = LatencyRegression(report, report)
        assert regression.ok
        assert regression.regressions() == []
        assert all(r == 1.0 for r in regression.ratios().values())
