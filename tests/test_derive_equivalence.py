"""Differential equivalence: derived not-reached cases == executed ones.

A case whose ordinal lies past its function's golden call count is not
run: the campaign parent (:class:`NotReachedCases`) runs the first such
case of the function and hands the others its result, relabelled.  The
contract is the one every fast path here keeps: a derived result is
what running the case gives — status, exit code, detail, injections,
replay script, guest instructions, injection sites, output digest,
coverage, call count, the captured event stream and metrics — on every
backend, fresh or replayed from a snapshot, exhaustive or guided, and
every backend derives the same cases.  These tests compare each
campaign result with the case run alone by ``_case_runner`` (no
derivation, no recycled process).

CI runs this file with ``-rs`` and fails the job if any test here is
skipped.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import _campaign_factory
from repro.core.campaign import FaultCase, fail_rate_case
from repro.core.exec import engine as engine_mod
from repro.core.exec.engine import (NotReachedCases, _case_runner,
                                    _golden_run, execute_campaign)
from repro.core.results import ResultStore
from repro.core.scenario import DelayFault
from repro.core.search import GoldenBound
from repro.core.scenario.generate import error_codes_from_profile
from repro.obs import Telemetry
from repro.platform import LINUX_X86

#: functions the minidb campaign workload calls, and ones it never does
_CALLED = ["open", "write", "fsync", "lseek", "read", "malloc", "close"]
_NEVER = ["accept", "socket", "rename"]


@pytest.fixture(scope="module")
def space(libc_profiles_linux):
    """The minidb factory, the profiles, a case list around each
    function's golden call count c (ordinal c fires, c+1 and c+2 are
    never reached; fired ordinal-1 cases lead the list) and the golden
    counts."""
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
    return factory, profiles, cases, counts


@pytest.fixture(scope="module")
def reference(space):
    """Each case run alone: the result derivation must reproduce."""
    factory, profiles = space[:2]
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


def _expected_derived(cases, reference, counts):
    """Which positions any campaign derives: a non-probabilistic case
    past its function's golden count c (0 if never called) behind the
    first such case of the function, when that one ran without firing
    and made c calls."""
    representative = {}
    flags = []
    for case in cases:
        c = counts.get(case.function, 0)
        if not isinstance(case, FaultCase) or case.call_ordinal <= c:
            flags.append(False)
        elif case.function in representative:
            flags.append(representative[case.function])
        else:
            ref = reference(case)
            representative[case.function] = (ref.firings == 0
                                              and ref.calls == c)
            flags.append(False)
    return flags


def _campaign(space, *, cases=None, results=None, telemetry=None,
              **options):
    factory, profiles, all_cases = space[:3]
    return execute_campaign("derive-equiv", factory, LINUX_X86, profiles,
                            all_cases if cases is None else cases,
                            telemetry=telemetry or Telemetry(),
                            results=results, **options)


def _without_derivation(monkeypatch):
    """Every case runs — a held case whose representative cannot stand
    in runs on the pool: the reference schedule and snapshot records."""
    monkeypatch.setattr(engine_mod.NotReachedCases, "derive",
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
                                              tmp_path, pool_items):
        options = _MODES[mode]
        report = _campaign(space, results=ResultStore(tmp_path / "s"),
                           **options)
        cases, counts = space[2:]
        assert [r.case for r in report.results] == cases
        assert report.summary.derived > 0
        assert report.summary.derived == sum(r.derived
                                             for r in report.results)
        for result in report.results:
            assert _row(result) == _row(reference(result.case)), \
                result.case.case_id()
        # every backend derives the same cases, in the parent: only the
        # executed ones reach the pool
        assert [r.derived for r in report.results] == \
            _expected_derived(cases, reference, counts)
        assert sum(pool_items) == len(cases) - report.summary.derived
        # a derived result carries the label of the worker that ran its
        # representative
        ran = {(r.case.function, r.worker) for r in report.results
               if not r.derived}
        for result in report.results:
            if options["jobs"] == 1:
                assert result.worker == "main"
            else:
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
        _without_derivation(monkeypatch)
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
        _without_derivation(monkeypatch)
        executed = _campaign(space, **options)
        assert [r.case for r in report.results] == \
            [r.case for r in executed.results]


def _full_row(result):
    """Every field of a result but the wall clock, the worker label and
    the snapshot record (whose restore seconds are wall clock too)."""
    row = {f.name: getattr(result, f.name)
           for f in dataclasses.fields(result)
           if f.name not in ("seconds", "worker", "snapshot", "events")}
    row["events"] = _fingerprint(result.events)
    return row


def test_every_backend_derives_the_same_cases(space, tmp_path):
    """Serial, two workers and two workers replaying snapshots give the
    same results field for field, ``derived`` included; so do guided
    serial and guided two-worker runs."""
    exhaustive = [_campaign(space, results=ResultStore(tmp_path / name),
                            **_MODES[name])
                  for name in ("serial-fresh", "process-2",
                               "process-2-snapshot")]
    guided = [_campaign(space, guided=True, **options)
              for options in (dict(jobs=1),
                              dict(jobs=2, backend="process"))]
    for runs in (exhaustive, guided):
        rows = [[_full_row(r) for r in report.results] for report in runs]
        assert any(row["derived"] for row in rows[0])
        for other in rows[1:]:
            assert other == rows[0]


@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_golden_counts_make_the_cases_run(space, reference, delta,
                                                monkeypatch, tmp_path):
    """A golden count one off the truth marks the wrong cases: one below
    it, the representative fires; one above, it makes fewer calls than
    predicted.  Either way its held cases run, with unchanged results,
    and only the never-called functions still derive."""
    real = engine_mod._golden_run
    patched = {fn: count + delta for fn, count in space[3].items()}

    def off_by_one(*args):
        digest, _counts, blocks = real(*args)
        return digest, patched, blocks
    monkeypatch.setattr(engine_mod, "_golden_run", off_by_one)
    cases = space[2]
    for options in (dict(jobs=1), dict(jobs=2, backend="process")):
        report = _campaign(space, results=ResultStore(
            tmp_path / str(options["jobs"])), **options)
        flags = [r.derived for r in report.results]
        assert flags == _expected_derived(cases, reference, patched)
        assert {c.function for c, derived in zip(cases, flags)
                if derived} == set(_NEVER)
        for result in report.results:
            assert _row(result) == _row(reference(result.case)), \
                result.case.case_id()


def test_a_golden_run_that_raises_derives_nothing(space, reference,
                                                  tmp_path, caplog):
    """The golden counts are then unknown, not zero: every case runs,
    and meta records no counts; a campaign whose golden run completes
    records them."""
    factory, profiles = space[:2]

    def golden_raises(lfi):
        if lfi.plan.name == "golden":
            raise RuntimeError("no golden run")
        return factory(lfi)

    store = ResultStore(tmp_path / "s")
    with caplog.at_level("DEBUG", logger=engine_mod.__name__):
        report = execute_campaign("derive-golden", golden_raises,
                                  LINUX_X86, profiles, space[2],
                                  results=store)
    assert "the golden run raised" in caplog.text
    assert report.summary.derived == 0
    for result in report.results:
        assert _row(result)["status"] == \
            _row(reference(result.case))["status"]
        assert result.calls == reference(result.case).calls
    assert _campaign(space, results=store).summary.derived > 0
    metas = [json.loads(path.read_text())
             for path in store.root.glob("*/meta.json")]
    assert {meta["app"]: meta["call_counts"] for meta in metas} == \
        {"derive-golden": None, "derive-equiv": space[3]}


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_order_with_repeats(space, reference, data):
    """Whatever the order, and however often a case repeats, a
    campaign derives exactly what the rule allows and every result
    equals the case run alone."""
    pool = [case for case in space[2]
            if case.function in ("write", "close", "accept")]
    cases = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                               max_size=12))
    with tempfile.TemporaryDirectory() as root:
        report = _campaign(space, cases=cases, results=ResultStore(root))
    assert [r.derived for r in report.results] == \
        _expected_derived(cases, reference, space[3])
    assert report.summary.derived == sum(r.derived for r in report.results)
    for result in report.results:
        assert _row(result) == _row(reference(result.case)), \
            result.case.case_id()


class TestWhatIsNeverDerived:
    def test_probabilistic_cases_always_run(self, space):
        """A fail-rate case may fire on any call: it neither takes
        another run's result nor stands in for one, even when it never
        fires."""
        code = error_codes_from_profile(
            space[1]["libc.so.6"].functions["accept"])[0]
        rolled = fail_rate_case("accept", code, 0.5)
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
        """A representative whose harness raises is ``crashed`` and
        stands in for nothing: every later case of its function runs,
        on every backend."""
        factory, profiles = space[:2]
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
        assert [r.derived for r in report.results] == [False] * 3
        assert report.summary.derived == 0


def test_derived_results_share_no_container(space, reference):
    """A derived result is a copy: changing it (or its siblings) can
    never reach the run it was derived from."""
    never = [c for c in space[2] if c.function == "accept"]
    first, later = never[0], never[1:]
    executed = reference(first)
    not_reached = NotReachedCases(GoldenBound(space[3]))
    not_reached.remember(first, executed)
    derived = [not_reached.derive(case) for case in later]
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
