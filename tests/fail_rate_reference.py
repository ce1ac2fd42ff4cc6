"""The 8.0 fail-rate cell, kept as the reference for ``fail_rate_case``.

Through 8.0 a fail-rate cell was a ``FaultCase`` with ``probability >
0``: its case id ended in ``~p<rate>``, ``effective_seed()`` derived its
seed from the plan name, rate, function and action, and ``plan()`` held
one random trigger.  Journals key results by the digest of that plan's
XML and resume matches by it, so the plan cases
``enumerate_cases(fail_rate=)`` builds must keep those ids, seeds and
case keys; the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scenario.generate import derive_plan_seed
from repro.core.scenario.model import (INJECT_RANDOM, Action,
                                       FunctionTrigger, Plan)


@dataclass(frozen=True)
class ReferenceFailRateCase:
    function: str
    code: Action
    probability: float

    def case_id(self) -> str:
        return (f"{self.function}@1={self.code.describe()}"
                f"~p{self.probability}")

    def effective_seed(self) -> int:
        return derive_plan_seed(f"case-{self.case_id()}",
                                self.probability, (self.function,),
                                (self.code,))

    def plan(self) -> Plan:
        plan = Plan(name=f"case-{self.case_id()}",
                    seed=self.effective_seed())
        plan.add(FunctionTrigger(
            function=self.function, mode=INJECT_RANDOM,
            probability=self.probability, actions=(self.code,),
            calloriginal=False))
        return plan
