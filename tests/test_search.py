"""Unit tests for the coverage-guided campaign frontier.

These exercise :class:`repro.core.search.GuidedFrontier` as a pure
scheduler — synthetic cases, hand-fed coverage observations — so every
prioritize/prune/expand rule is pinned down independently of the
engine.  End-to-end guided campaign behavior (backend determinism,
resume) lives in ``test_guided_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.core.campaign import FaultCase, fail_rate_case
from repro.core.results.matrix import NOVELTY_DECAY, novelty_score
from repro.core.scenario import ErrorCode
from repro.core.search import DRY_AFTER, GUIDED_BATCH, GuidedFrontier, \
    case_identity
from repro.obs import MemorySink, Telemetry
from repro.runtime.blocks import export_coverage


class _Result:
    """A stand-in CaseResult: just the fields the frontier reads."""

    def __init__(self, blocks=(), fired=True):
        self.coverage = export_coverage({a: 1 for a in blocks})
        self.fired = fired


def _cases(function, ordinals, errno="EIO"):
    return [FaultCase(function, ErrorCode(-1, errno), o)
            for o in ordinals]


def _ids(batch):
    return [case.case_id() for case in batch]


class TestFrontierBasics:
    def test_rejects_probabilistic_cases(self):
        """A fail-rate case is a plan case: it has no call-ordinal axis
        to search over."""
        bad = fail_rate_case("open", ErrorCode(-1, "EIO"), 0.5)
        with pytest.raises(ValueError, match="not plan case "
                                             "'open@1=-1/EIO~p0.5'"):
            GuidedFrontier([FaultCase("open", ErrorCode(-1, "EIO")), bad])

    def test_duplicate_identities_collapse(self):
        cases = _cases("open", (1,)) + _cases("open", (1,))
        frontier = GuidedFrontier(cases)
        assert _ids(frontier.next_batch()) == ["open@1=-1/EIO"]
        assert frontier.next_batch() == []

    def test_unexplored_functions_schedule_in_enumeration_order(self):
        cases = _cases("open", (1, 2)) + _cases("write", (1, 2))
        frontier = GuidedFrontier(cases, batch_size=3)
        assert _ids(frontier.next_batch()) == [
            "open@1=-1/EIO", "open@2=-1/EIO", "write@1=-1/EIO"]

    def test_case_identity_axes(self):
        case = FaultCase("read", ErrorCode(-1, "EINTR"), 4)
        assert case_identity(case) == ("read", "return:-1:EINTR", 4)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            GuidedFrontier([], batch_size=0)


class TestPrioritization:
    def test_discovering_function_outranks_dry_one(self):
        cases = _cases("f", (1, 2, 3, 4, 5)) + _cases("g", (1, 2, 3, 4, 5))
        frontier = GuidedFrontier(cases, batch_size=2,
                                  call_counts={"f": 10, "g": 10})
        b1 = frontier.next_batch()
        assert _ids(b1) == ["f@1=-1/EIO", "f@2=-1/EIO"]
        frontier.observe(b1[0], _Result(blocks=(1,)))
        frontier.observe(b1[1], _Result(blocks=()))
        b2 = frontier.next_batch()     # g is unexplored: infinite score
        assert _ids(b2) == ["g@1=-1/EIO", "g@2=-1/EIO"]
        frontier.observe(b2[0], _Result(blocks=(2, 3)))
        frontier.observe(b2[1], _Result(blocks=(4,)))
        # g discovered 3 blocks in 2 visits, f only 1 in 2: g first
        assert _ids(frontier.next_batch()) == ["g@3=-1/EIO",
                                               "g@4=-1/EIO"]

    def test_novelty_score_shape(self):
        assert novelty_score(0, 0) == float("inf")
        assert novelty_score(4, 2) == pytest.approx(
            (4 / 2) * NOVELTY_DECAY ** 2)
        assert novelty_score(0, 3) == 0.0


class TestPruning:
    def test_not_fired_prunes_higher_ordinals_of_pair(self):
        frontier = GuidedFrontier(_cases("f", (1, 2, 3, 4)),
                                  batch_size=1)
        (first,) = frontier.next_batch()
        assert first.call_ordinal == 1
        frontier.observe(first, _Result(blocks=(1,), fired=False))
        assert frontier.next_batch() == []      # 2..4 provably dead
        assert frontier.pruned_total == 3

    def test_golden_call_counts_bound_the_axis(self):
        frontier = GuidedFrontier(_cases("f", (1, 2, 3, 4)),
                                  batch_size=4, call_counts={"f": 2})
        assert _ids(frontier.next_batch()) == ["f@1=-1/EIO",
                                               "f@2=-1/EIO"]
        assert frontier.pruned_total == 2

    def test_protected_witness_survives_zero_call_count(self):
        # the function is never called fault-free, but its first case
        # still runs so the failure-mode matrix keeps the cell
        frontier = GuidedFrontier(_cases("f", (1, 2, 3)),
                                  batch_size=4, call_counts={"f": 0})
        assert _ids(frontier.next_batch()) == ["f@1=-1/EIO"]
        assert frontier.pruned_total == 2

    def test_dry_streak_prunes_unprotected_cases(self):
        frontier = GuidedFrontier(_cases("f", (1, 2, 3, 4)),
                                  batch_size=1, dry_after=2,
                                  call_counts={"f": 10})
        for _ in range(2):
            (case,) = frontier.next_batch()
            frontier.observe(case, _Result(blocks=()))
        assert frontier.next_batch() == []      # f went dry
        assert frontier.pruned_total == 2

    def test_discovery_resets_the_dry_streak(self):
        frontier = GuidedFrontier(_cases("f", (1, 2, 3, 4)),
                                  batch_size=1, dry_after=2,
                                  call_counts={"f": 10})
        (c1,) = frontier.next_batch()
        frontier.observe(c1, _Result(blocks=()))
        (c2,) = frontier.next_batch()
        frontier.observe(c2, _Result(blocks=(7,)))      # streak resets
        assert _ids(frontier.next_batch()) == ["f@3=-1/EIO"]


class TestExpansion:
    def test_new_blocks_enqueue_ordinal_neighbors(self):
        frontier = GuidedFrontier(_cases("f", (1, 3)), batch_size=2,
                                  call_counts={"f": 5})
        b1 = frontier.next_batch()
        assert _ids(b1) == ["f@1=-1/EIO", "f@3=-1/EIO"]
        frontier.observe(b1[0], _Result(blocks=(1,)))
        frontier.observe(b1[1], _Result(blocks=(2,)))
        # 1 expands to {2}; 3 expands to {2 (dup), 4}
        assert frontier.expanded_total == 2
        assert _ids(frontier.next_batch()) == ["f@2=-1/EIO",
                                               "f@4=-1/EIO"]

    def test_expansion_respects_the_golden_bound(self):
        frontier = GuidedFrontier(_cases("f", (1, 2)), batch_size=2,
                                  call_counts={"f": 2})
        b1 = frontier.next_batch()
        frontier.observe(b1[0], _Result(blocks=(1,)))
        frontier.observe(b1[1], _Result(blocks=(2,)))
        assert frontier.expanded_total == 0     # 3 > golden count
        assert frontier.next_batch() == []

    def test_dry_case_does_not_expand(self):
        frontier = GuidedFrontier(_cases("f", (1,)), batch_size=1,
                                  call_counts={"f": 5})
        (case,) = frontier.next_batch()
        frontier.observe(case, _Result(blocks=()))
        assert frontier.expanded_total == 0


class TestBudgetAndBaseline:
    def test_budget_caps_the_schedule(self):
        frontier = GuidedFrontier(_cases("f", (1, 2, 3, 4)),
                                  budget_cases=3, batch_size=8,
                                  call_counts={"f": 10})
        assert len(frontier.next_batch()) == 3
        assert frontier.next_batch() == []
        assert frontier.budget_left == 0

    def test_baseline_blocks_are_not_novel(self):
        frontier = GuidedFrontier(_cases("f", (1, 2)), batch_size=2,
                                  baseline_blocks={1, 2},
                                  call_counts={"f": 5})
        batch = frontier.next_batch()
        frontier.observe(batch[0], _Result(blocks=(1, 2)))
        assert frontier.new_blocks_total == 0
        frontier.observe(batch[1], _Result(blocks=(1, 9)))
        assert frontier.new_blocks_total == 1
        assert frontier.seen_blocks == {1, 2, 9}


class TestObservability:
    def test_metrics_and_summary(self):
        tele = Telemetry(sinks=[MemorySink()])
        frontier = GuidedFrontier(_cases("f", (1, 2, 3, 4)),
                                  batch_size=1, call_counts={"f": 1},
                                  telemetry=tele)
        (case,) = frontier.next_batch()
        frontier.observe(case, _Result(blocks=(5,)))
        assert frontier.next_batch() == []
        assert tele.metrics.counter(
            "repro_guided_pruned_total").value() == 3
        assert tele.metrics.counter(
            "repro_guided_new_blocks_total").value() == 1
        assert tele.metrics.gauge(
            "repro_guided_frontier_size").value() == 0
        summary = frontier.summary()
        assert summary == {"scheduled": 1, "pruned": 3, "expanded": 0,
                           "new_blocks": 1, "seen_blocks": 1,
                           "frontier": 0, "budget": None}

    def test_defaults_are_sane(self):
        assert GUIDED_BATCH >= 1
        assert DRY_AFTER >= 1
