"""Differential equivalence: derived not-reached cases == executed ones.

A case whose trigger function is never called often enough to reach its
ordinal is not run: the campaign's :class:`NotReachedMemo` hands it the
result of an earlier not-reached run of the same function, relabelled.
The contract is the one every fast path here keeps: a derived result is
what running the case gives — status, exit code, detail, injections,
replay script, guest instructions, injection sites, output digest,
coverage, call count, the captured event stream and metrics — on every
backend, fresh or replayed from a snapshot, exhaustive or guided.
These tests compare each campaign result with the case run alone by
``_case_runner`` (no memo, no recycled process).

CI runs this file with ``-rs`` and fails the job if any test here is
skipped.
"""

from __future__ import annotations

import dataclasses
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import _campaign_factory
from repro.core.campaign import FaultCase
from repro.core.exec import engine as engine_mod
from repro.core.exec.engine import (NotReachedMemo, _case_runner,
                                    _golden_run, execute_campaign)
from repro.core.results import ResultStore
from repro.core.scenario import DelayFault
from repro.core.scenario.generate import error_codes_from_profile
from repro.obs import Telemetry
from repro.platform import LINUX_X86

#: functions the minidb campaign workload calls, and ones it never does
_CALLED = ["open", "write", "fsync", "lseek", "read", "malloc", "close"]
_NEVER = ["accept", "socket", "rename"]


@pytest.fixture(scope="module")
def space(libc_profiles_linux):
    """The minidb factory, the profiles, and a case list around each
    function's golden call count c: ordinal c fires, c+1 and c+2 are
    never reached.  Fired ordinal-1 cases lead the list, so a fired
    run is the first thing the memo sees for those functions."""
    factory = _campaign_factory("minidb", LINUX_X86)
    profiles = libc_profiles_linux
    _digest, counts, _blocks = _golden_run(factory, LINUX_X86, profiles,
                                           _CALLED + _NEVER)
    profile = profiles["libc.so.6"]

    def codes(fn):
        return error_codes_from_profile(profile.functions[fn])[:2]

    cases = [FaultCase(fn, codes(fn)[0], 1)
             for fn in ("write", "open", "close")]
    for fn in _CALLED:
        count = counts[fn]
        assert count >= 1, fn
        for code in codes(fn):
            for ordinal in (count, count + 1, count + 2):
                cases.append(FaultCase(fn, code, ordinal))
    for fn in _NEVER:
        assert fn not in counts or counts[fn] == 0, fn
        for code in codes(fn):
            for ordinal in (1, 2):
                cases.append(FaultCase(fn, code, ordinal))
    # another action on the same functions: it never fires either, so
    # it may take an error-code run's result
    cases += [FaultCase("close", DelayFault(1_000_000), counts["close"] + 1),
              FaultCase("accept", DelayFault(1_000_000), 3)]
    return factory, profiles, cases


@pytest.fixture(scope="module")
def reference(space):
    """Each case run alone: the result derivation must reproduce."""
    factory, profiles, _cases = space
    done = {}

    def run(case):
        if case not in done:
            done[case] = _case_runner(factory, LINUX_X86, profiles, case,
                                      capture=True, observe=True)
        return done[case]
    return run


def _fingerprint(events):
    """Events minus the wall-clock noise (seq/ts/seconds)."""
    return [(e.get("kind"), e.get("severity"),
             sorted((k, v) for k, v in e.get("fields", {}).items()
                    if k != "seconds"))
            for e in events]


def _row(result):
    """Every field a derived result must share with an executed one."""
    outcome = result.outcome
    return {
        "case": result.case, "test_id": outcome.test_id,
        "status": outcome.status, "exit_code": outcome.exit_code,
        "detail": outcome.detail, "injections": outcome.injections,
        "replay": outcome.replay_xml, "fired": result.fired,
        "instructions": result.instructions, "sites": result.sites,
        "output": result.output, "coverage": result.coverage,
        "calls": result.calls, "events": _fingerprint(result.events),
        "metrics": result.metrics,
    }


def _expected_derived(cases, reference):
    """Which positions of a serial run the memo derives: a later
    non-probabilistic case past the calls of an earlier run of its
    function that never fired."""
    seen = {}
    flags = []
    for case in cases:
        calls = seen.get(case.function)
        flags.append(case.probability == 0 and calls is not None
                     and case.call_ordinal > calls)
        ref = reference(case)
        if case.probability == 0 and ref.firings == 0:
            seen.setdefault(case.function, ref.calls)
    return flags


def _campaign(space, *, cases=None, results=None, **options):
    factory, profiles, all_cases = space
    return execute_campaign("derive-equiv", factory, LINUX_X86, profiles,
                            all_cases if cases is None else cases,
                            telemetry=Telemetry(), results=results,
                            **options)


def _without_memo(monkeypatch):
    """Every case runs: the reference schedule and snapshot records."""
    monkeypatch.setattr(engine_mod.NotReachedMemo, "derive",
                        lambda self, case: None)


_MODES = {
    "serial-fresh": dict(jobs=1),
    "serial-snapshot": dict(jobs=1, snapshot=True),
    "process-2": dict(jobs=2, backend="process"),
    "process-2-snapshot": dict(jobs=2, backend="process", snapshot=True),
}


class TestDerivedEqualsExecuted:
    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_campaign_matches_cases_run_alone(self, mode, space, reference,
                                              tmp_path):
        options = _MODES[mode]
        report = _campaign(space, results=ResultStore(tmp_path / "s"),
                           **options)
        cases = space[2]
        assert [r.case for r in report.results] == cases
        assert report.summary.derived > 0
        assert report.summary.derived == sum(r.derived
                                             for r in report.results)
        for result in report.results:
            assert _row(result) == _row(reference(result.case)), \
                result.case.case_id()
        if options["jobs"] == 1:
            assert [r.derived for r in report.results] == \
                _expected_derived(cases, reference)
            assert {r.worker for r in report.results} == {"main"}
        else:
            # a derived result carries the label of the worker that ran
            # its representative, which is the worker that derived it
            ran = {(r.case.function, r.worker) for r in report.results
                   if not r.derived}
            for result in report.results:
                assert result.worker.startswith("proc-")
                if result.derived:
                    assert (result.case.function, result.worker) in ran

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_snapshot_records_match_executed_replays(
            self, jobs, space, tmp_path, monkeypatch):
        """Derived cases keep the restore record of the replay they
        reproduce, so replay and fallback counts do not depend on which
        cases a worker derived."""
        options = dict(jobs=jobs, snapshot=True,
                       **({"backend": "process"} if jobs > 1 else {}))
        derived = _campaign(space, results=ResultStore(tmp_path / "d"),
                            **options)
        _without_memo(monkeypatch)
        executed = _campaign(space, results=ResultStore(tmp_path / "e"),
                             **options)
        assert executed.summary.derived == 0
        assert derived.summary.derived > 0

        def records(report):
            return [None if r.snapshot is None else
                    (r.snapshot["group"], r.snapshot["workload"],
                     r.snapshot["dirty_pages"], r.snapshot["bytes"])
                    for r in report.results]
        assert records(derived) == records(executed)
        assert any(records(derived))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_guided_schedule_and_results(self, jobs, space, reference,
                                         monkeypatch):
        options = dict(jobs=jobs, guided=True, snapshot=True,
                       **({"backend": "process"} if jobs > 1 else {}))
        report = _campaign(space, **options)
        assert report.summary.derived > 0
        for result in report.results:
            assert _row(result) == _row(reference(result.case)), \
                result.case.case_id()
        _without_memo(monkeypatch)
        executed = _campaign(space, **options)
        assert [r.case for r in report.results] == \
            [r.case for r in executed.results]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_order_with_repeats(space, reference, data):
    """Whatever the order, and however often a case repeats, a serial
    campaign derives exactly what the rule allows and every result
    equals the case run alone."""
    pool = [case for case in space[2]
            if case.function in ("write", "close", "accept")]
    cases = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                               max_size=12))
    with tempfile.TemporaryDirectory() as root:
        report = _campaign(space, cases=cases, results=ResultStore(root))
    assert [r.derived for r in report.results] == \
        _expected_derived(cases, reference)
    assert report.summary.derived == sum(r.derived for r in report.results)
    for result in report.results:
        assert _row(result) == _row(reference(result.case)), \
            result.case.case_id()


class TestWhatIsNeverDerived:
    def test_probabilistic_cases_always_run(self, space):
        """A fail-rate case rolls its RNG on every call: it neither
        takes nor gives a memo entry, even when it never fires."""
        code = error_codes_from_profile(
            space[1]["libc.so.6"].functions["accept"])[0]
        rolled = FaultCase("accept", code, 1, probability=0.5)
        cases = [rolled, rolled, FaultCase("accept", code, 1),
                 FaultCase("accept", code, 2), rolled]
        report = _campaign(space, cases=cases)
        assert [r.fired for r in report.results] == [False] * 5
        assert [r.derived for r in report.results] == \
            [False, False, False, True, False]
        assert report.summary.derived == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_case_raising_outside_the_run_leaves_no_entry(self, space,
                                                          jobs):
        """A case whose harness raises is ``crashed`` and seeds nothing:
        the next case of its function runs, the one after derives."""
        factory, profiles, _cases = space
        bad, good = error_codes_from_profile(
            profiles["libc.so.6"].functions["accept"])[:2]

        def flaky(lfi):
            if any(action == bad for trigger in lfi.plan.triggers
                   for action in trigger.actions):
                raise RuntimeError("harness failure")
            return factory(lfi)

        cases = [FaultCase("accept", bad, 1), FaultCase("accept", good, 1),
                 FaultCase("accept", good, 2)]
        report = execute_campaign(
            "derive-crash", flaky, LINUX_X86, profiles, cases, jobs=jobs,
            **({"backend": "process"} if jobs > 1 else {}))
        assert [r.outcome.status for r in report.results] == \
            ["crashed", "normal", "normal"]
        # one line, the same on every backend and in every checkout
        assert report.results[0].outcome.detail == \
            "RuntimeError: harness failure"
        if jobs == 1:
            # (two workers split the cases, so each keeps its own memo)
            assert [r.derived for r in report.results] == \
                [False, False, True]


def test_derived_results_share_no_container(space, reference):
    """A derived result is a copy: changing it (or its siblings) can
    never reach the run it was derived from."""
    never = [c for c in space[2] if c.function == "accept"]
    first, later = never[0], never[1:]
    executed = reference(first)
    memo = NotReachedMemo()
    memo.remember(first, executed)
    derived = [memo.derive(case) for case in later]
    assert all(d is not None and d.derived for d in derived)

    def containers(result):
        """Every mutable object reachable from ``result``, by id."""
        found = set()
        stack = [result]
        while stack:
            value = stack.pop()
            if isinstance(value, (dict, list)):
                found.add(id(value))
                stack.extend(value.values() if isinstance(value, dict)
                             else value)
            elif dataclasses.is_dataclass(value) \
                    and not type(value).__dataclass_params__.frozen:
                found.add(id(value))
                stack.extend(getattr(value, f.name)
                             for f in dataclasses.fields(value))
        return found

    seen = containers(executed)
    for result in derived:
        mine = containers(result)
        assert not mine & seen
        seen |= mine
