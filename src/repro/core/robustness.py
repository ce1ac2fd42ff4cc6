"""Systematic fault-tolerance comparison (§2).

"We envision LFI being used ... in benchmarks that compare in a
systematic way the fault-tolerance of different applications."  This
module is that benchmark harness: each application variant runs the
*same* battery of fault scenarios as one campaign of plan cases, and
the scorecard compares the campaign reports — how many sessions
survived, returned errors gracefully, crashed with SIGSEGV/SIGABRT, or
hung.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Mapping, Sequence

from ..platform import Platform
from .campaign import (CampaignReport, PlanCase, SessionFactory,
                       run_campaign)
from .controller import (STATUS_ERROR_EXIT, STATUS_HUNG, STATUS_NORMAL,
                         STATUS_SIGABRT, STATUS_SIGSEGV)
from .profiles import LibraryProfile
from .scenario.model import Plan


def compare_robustness(apps: Mapping[str, SessionFactory],
                       platform: Platform,
                       profiles: Mapping[str, LibraryProfile],
                       scenarios: Sequence[Plan],
                       ) -> Dict[str, CampaignReport]:
    """The §2 comparison: identical faultloads, different applications.

    Scenario ``i`` is plan case ``s<i>`` of every application's
    campaign, in the matrix row of the scenario's name.
    """
    cases = [PlanCase(f"s{index}", plan, plan.name)
             for index, plan in enumerate(scenarios)]
    return {name: run_campaign(name, factory, platform, profiles, cases)
            for name, factory in apps.items()}


def survival_rate(report: CampaignReport) -> float:
    """Fraction of faulty sessions that did not crash or hang.

    Graceful error exits count as survival: reporting an error is
    correct behaviour under injected faults.
    """
    if not report.results:
        return 1.0
    ok = sum(1 for r in report.results
             if r.outcome.status in (STATUS_NORMAL, STATUS_ERROR_EXIT))
    return ok / len(report.results)


def format_scoreboard(reports: Mapping[str, CampaignReport]) -> str:
    lines = ["application        results under identical faultloads"]
    for name in sorted(reports):
        report = reports[name]
        count = Counter(r.outcome.status for r in report.results)
        lines.append(f"{name:<18} sessions={len(report.results):<3} "
                     f"normal={count[STATUS_NORMAL]:<3} "
                     f"error-exit={count[STATUS_ERROR_EXIT]:<3} "
                     f"SIGABRT={count[STATUS_SIGABRT]:<3} "
                     f"SIGSEGV={count[STATUS_SIGSEGV]:<3} "
                     f"hung={count[STATUS_HUNG]:<3} "
                     f"survival={100 * survival_rate(report):5.1f}%")
    return "\n".join(lines)
