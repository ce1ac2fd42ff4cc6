"""Shared helpers for the benchmark modules."""

from __future__ import annotations

from repro.apps import top_called_functions
from repro.core.scenario import Plan, passthrough_plan


def print_table(title: str, header: str, rows) -> None:
    print()
    print(f"== {title} ==")
    print(header)
    print("-" * max(len(header), 8))
    for row in rows:
        print(row)


def exact_passthrough_plan(counts, codes, n_triggers: int, top_n: int):
    """A passthrough plan of exactly ``n_triggers`` triggers over the
    ``top_n`` most-called functions that the census saw called, most
    called first; the remainder goes to the top functions."""
    top = [f for f in top_called_functions(counts, top_n) if counts[f]]
    per, extra = divmod(n_triggers, len(top))
    plan = Plan(name="passthrough")
    for rank, name in enumerate(top):
        plan.triggers.extend(passthrough_plan(
            {name: codes.get(name, [])},
            per_function=per + (rank < extra)).triggers)
    assert plan.trigger_count() == n_triggers
    return plan
