"""The §2 comparative fault-tolerance harness and the hardened Pidgin."""

import importlib.util
from pathlib import Path

import pytest

from repro.apps import MiniPidgin
from repro.core.campaign import (CampaignReport, CaseResult, PlanCase,
                                 run_campaign)
from repro.core.controller import Controller, TestOutcome
from repro.core.results import ResultStore, matrix_from_store
from repro.core.robustness import (compare_robustness, format_scoreboard,
                                   survival_rate)
from repro.core.scenario import Plan, io_faults
from repro.kernel import Kernel
from repro.platform import LINUX_X86

HOSTS = [f"buddy{i}.example.org" for i in range(8)]

_SAME_JOURNAL = Path(__file__).resolve().parents[1] / "ci" / "same_journal.py"


def _same_journal_records(store: ResultStore):
    """A store's one journal, parsed by ``ci/same_journal.py``'s rule:
    every field but ``seconds`` and ``worker``."""
    spec = importlib.util.spec_from_file_location("same_journal",
                                                  _SAME_JOURNAL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.journal_records(str(store.root))


def _factory(hardened):
    def make(lfi):
        def session():
            app = MiniPidgin(Kernel(), LINUX_X86, controller=lfi,
                             hardened=hardened)
            app.login_and_chat(HOSTS)
            return 0
        return session
    return make


def _scenarios(profiles, count):
    return [io_faults(profiles["libc.so.6"], probability=0.1, seed=s)
            for s in range(count)]


def _reference_battery(factory, profiles, scenarios):
    """The battery as a plain loop: one controller and one monitored run
    per plan, the paper's ``Controller.run_test`` API (the loop
    ``compare_robustness`` ran before it became a campaign)."""
    outcomes = []
    for index, plan in enumerate(scenarios):
        lfi = Controller(LINUX_X86, dict(profiles), plan)
        outcomes.append(lfi.run_test(factory(lfi), test_id=f"s{index}"))
    return outcomes


class TestHardenedPidgin:
    def test_hardened_baseline_identical(self):
        buggy = MiniPidgin(Kernel(), LINUX_X86)
        fixed = MiniPidgin(Kernel(), LINUX_X86, hardened=True)
        assert buggy.login_and_chat(HOSTS) == fixed.login_and_chat(HOSTS)

    def test_hardened_survives_crashing_scenario(self,
                                                 libc_profiles_linux):
        """Regression-suite usage (§5.2): the scenario that kills the
        buggy build must pass on the fixed build."""
        libc_profile = libc_profiles_linux["libc.so.6"]
        for seed in range(8):
            plan = io_faults(libc_profile, probability=0.10, seed=seed)
            lfi = Controller(LINUX_X86, libc_profiles_linux, plan)
            buggy_outcome = lfi.run_test(_factory(False)(lfi))
            if not buggy_outcome.crashed:
                continue
            plan2 = io_faults(libc_profile, probability=0.10, seed=seed)
            lfi2 = Controller(LINUX_X86, libc_profiles_linux, plan2)
            fixed_outcome = lfi2.run_test(_factory(True)(lfi2))
            assert not fixed_outcome.crashed
            return
        pytest.fail("no crashing scenario found to regress against")


class TestRobustnessHarness:
    def test_report_counts(self):
        report = CampaignReport(app="x", results=[
            CaseResult(PlanCase(name, Plan(name="p"), "p"),
                       TestOutcome(name, status), fired=True)
            for name, status in (("a", "normal"), ("b", "SIGABRT"),
                                 ("c", "error-exit"))])
        assert len(report.results) == 3
        assert len(report.crashes()) == 1
        assert survival_rate(report) == pytest.approx(2 / 3)
        assert format_scoreboard({"x": report}).splitlines()[1] == (
            "x                  sessions=3   normal=1   error-exit=1   "
            "SIGABRT=1   SIGSEGV=0   hung=0   survival= 66.7%")

    def test_empty_report_survives(self):
        assert survival_rate(CampaignReport(app="x")) == 1.0

    def test_battery_matches_the_plain_loop(self, libc_profiles_linux):
        """Each build's campaign gives every scenario the status,
        injections and detail a plain ``run_test`` loop over the same
        plans gives it."""
        scenarios = _scenarios(libc_profiles_linux, 6)
        apps = {"buggy": _factory(False), "fixed": _factory(True)}
        reports = compare_robustness(apps, LINUX_X86, libc_profiles_linux,
                                     scenarios)
        for name, factory in apps.items():
            reference = _reference_battery(factory, libc_profiles_linux,
                                           _scenarios(libc_profiles_linux,
                                                      6))
            got = [(r.case.case_id(), r.outcome.status,
                    r.outcome.injections, r.outcome.detail)
                   for r in reports[name].results]
            assert got == [(o.test_id, o.status, o.injections, o.detail)
                           for o in reference], name
        assert any(r.outcome.crashed for r in reports["buggy"].results)
        assert not any(r.outcome.crashed for r in reports["fixed"].results)

    def test_compare_and_format(self, libc_profiles_linux):
        scenarios = _scenarios(libc_profiles_linux, 3)
        reports = compare_robustness(
            {"buggy": _factory(False), "fixed": _factory(True)},
            LINUX_X86, libc_profiles_linux, scenarios)
        board = format_scoreboard(reports)
        assert "buggy" in board and "fixed" in board
        assert survival_rate(reports["fixed"]) \
            >= survival_rate(reports["buggy"])
        assert [r.case.case_id() for r in reports["buggy"].results] == \
            ["s0", "s1", "s2"]


class TestPidginCampaign:
    """A random-faultload Pidgin campaign is journaled and resumable,
    and shows ticket 8672's SIGABRT as a ``crash`` cell of its plan's
    row."""

    @pytest.fixture(scope="class")
    def cases(self, libc_profiles_linux):
        return [PlanCase(f"s{index}", plan, plan.name)
                for index, plan in enumerate(
                    _scenarios(libc_profiles_linux, 6))]

    def _campaign(self, cases, profiles, root, **options):
        store = ResultStore(root)
        report = run_campaign("pidgin", _factory(False), LINUX_X86,
                              profiles, cases, results=store, **options)
        return report, store

    def test_sigabrt_cases_are_crash_cells_of_the_plan_row(
            self, cases, libc_profiles_linux, tmp_path):
        report, store = self._campaign(cases, libc_profiles_linux,
                                       tmp_path / "serial")
        aborted = sorted(r.case.case_id() for r in report.results
                         if r.outcome.status == "SIGABRT")
        assert aborted, "the buggy build never aborted"
        matrix = matrix_from_store(store).to_dict()
        [row] = matrix["rows"]
        assert (row["function"], row["fault_class"]) == \
            ("libc-io-random", "plan")
        assert row["cells"]["crash"]["cases"] == aborted
        assert all(r.outcome_class == "crash" for r in report.results
                   if r.outcome.status == "SIGABRT")

    def test_resumed_and_two_worker_runs_journal_the_same(
            self, cases, libc_profiles_linux, tmp_path):
        _, serial = self._campaign(cases, libc_profiles_linux,
                                   tmp_path / "serial")
        reference = _same_journal_records(serial)
        assert len(reference) == len(cases)

        (journal,) = serial.root.glob("*/journal.jsonl")
        lines = journal.read_text().splitlines(keepends=True)
        cut_root = tmp_path / "cut"
        cut_dir = cut_root / journal.parent.name
        cut_dir.mkdir(parents=True)
        (cut_dir / "meta.json").write_bytes(
            (journal.parent / "meta.json").read_bytes())
        (cut_dir / "journal.jsonl").write_text("".join(lines[:3]))
        resumed, cut = self._campaign(cases, libc_profiles_linux, cut_root,
                                      resume=True)
        assert resumed.resumed == {"skipped": 3, "replayed": 3}
        assert _same_journal_records(cut) == reference

        _, pooled = self._campaign(cases, libc_profiles_linux,
                                   tmp_path / "pooled", backend="process",
                                   jobs=2)
        assert _same_journal_records(pooled) == reference
