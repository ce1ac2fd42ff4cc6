"""Coverage-guided campaign search: the adaptive case frontier.

Exhaustive campaigns enumerate the (function × action × ordinal) fault
space up front and run every cell.  §6.1 already observes that most
cells exercise the same recovery paths; the coverage maps PR 7 attached
to every journaled case make that redundancy measurable.  This module
closes the loop: a :class:`GuidedFrontier` holds the pending cases,
watches each finished case's block coverage, and decides *what to run
next* —

* **prioritize** — pending cases are ranked by the expected novelty of
  their trigger function (the per-visit discovery rate of completed
  sibling cases, decayed by repeat visits —
  :func:`~repro.core.results.matrix.novelty_score`); unexplored
  functions always outrank explored ones;
* **prune** — a case that provably cannot fire is dropped: once a case
  at ordinal *k* completes without firing, the workload made fewer than
  *k* calls to that function under that action, and every sibling at a
  higher ordinal is unreachable too (plans are identical before call
  *k*).  A function whose recent cases stopped discovering blocks has
  its *unprotected* cases dropped after :data:`DRY_AFTER` consecutive
  dry completions — the first enumerated case per (function, action)
  pair is protected so every failure-mode matrix cell keeps at least
  one representative;
* **expand** — when an injection at ordinal *k* reaches new blocks, the
  ordinals *k±1* of the same (function, action) pair are enqueued (up
  to the golden run's profiled call count), so interesting regions of
  the ordinal axis deepen on demand without enumerating it everywhere.

Scheduling is deliberately batched: :meth:`GuidedFrontier.next_batch`
yields :data:`GUIDED_BATCH` cases at a time and observations are only
applied between batches, so the schedule depends on nothing but the
case list and the (deterministic) per-case coverage — bit-identical
across the serial and process backends and under ``--resume``.

The campaign engine drives any object with this duck-typed *scheduler*
protocol — ``next_batch()`` (cases to run now; empty when done),
``observe(case, result, *, restored)`` (one finished case, in batch
order) and ``summary()`` (the ``campaign.guided`` payload, or ``None``
for no event).  :class:`ExhaustiveSchedule` is the fixed schedule of a
plain campaign; :class:`GuidedFrontier` is the adaptive one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Set,
                    Tuple, Union)

from ..obs.telemetry import as_telemetry
from .campaign import FaultCase
from .results.matrix import NOVELTY_DECAY, novelty_score, record_blocks

#: Cases scheduled per frontier batch.  Fixed — independent of the
#: worker count and backend — so the guided schedule is bit-identical
#: however the campaign is parallelized.
GUIDED_BATCH = 8

#: Consecutive zero-novelty completions after which a function's
#: unprotected pending cases are pruned.
DRY_AFTER = 2


def case_identity(case) -> Tuple[str, str, int]:
    """A case's coordinates in the guided search space.

    ``(function, action token, ordinal)`` — the axes the frontier
    prunes and expands over.  Only a
    :class:`~repro.core.campaign.FaultCase` cell has them (see
    :class:`GuidedFrontier`).
    """
    return (case.function, case.code.token(), case.call_ordinal)


class GoldenBound:
    """What the golden (fault-free) run proves about which cases can fire.

    A cell's plan holds one INJECT_NTH trigger on its function, so its
    run is identical to the golden run until the trigger fires: a cell
    whose ordinal exceeds c_f, the golden run's calls of f, never
    fires.  The engine derives such cases instead of running them
    (``core.exec.engine.NotReachedCases``) and the guided frontier
    prunes them, both from this one object.

    ``call_counts`` is None when the golden run raised: its counts are
    unknown, so no case is predicted not to fire.
    """

    def __init__(self, call_counts: Optional[Mapping[str, int]]) -> None:
        self.call_counts = (None if call_counts is None
                            else dict(call_counts))

    def calls(self, function: str) -> Optional[int]:
        """The golden run's calls of ``function``; None when the golden
        run raised or never called it.  The frontier bounds such a
        function by observed cases alone, as it always has, which keeps
        guided schedules unchanged."""
        if self.call_counts is None:
            return None
        return self.call_counts.get(function)

    def cannot_fire(self, case) -> bool:
        """Whether ``case`` provably never fires: a cell with an ordinal
        past c_f (0 for a function the golden run never called)."""
        if self.call_counts is None or not isinstance(case, FaultCase):
            return False
        return case.call_ordinal > self.call_counts.get(case.function, 0)


class ExhaustiveSchedule:
    """The fixed schedule: every enumerated case, in one batch."""

    def __init__(self, cases: Iterable[Any]) -> None:
        self._cases = list(cases)

    def next_batch(self) -> List[Any]:
        batch, self._cases = self._cases, []
        return batch

    def observe(self, case, result, *, restored: bool = False) -> None:
        pass

    def summary(self) -> None:
        return None


@dataclass
class _Pending:
    """One not-yet-scheduled case plus its scheduling bookkeeping."""

    index: int          # enumeration / expansion order, the tie-break
    case: Any
    #: the first enumerated case of its (function, action) pair — never
    #: dry-pruned, so each failure-mode matrix cell keeps a witness
    protected: bool = False


@dataclass
class _Profile:
    """What completed cases of one function have taught the frontier."""

    visits: int = 0
    new_total: int = 0      # previously-unseen blocks contributed
    dry_streak: int = 0     # consecutive completions with zero novelty


class GuidedFrontier:
    """The adaptive scheduler behind ``campaign --guided``.

    Construct it from the exhaustively enumerated case list, then
    alternate :meth:`next_batch` (cases to run now, best-first) with
    :meth:`observe` (feed every finished case back, in batch order).
    The frontier is exhausted when :meth:`next_batch` returns an empty
    list.

    ``call_counts`` — the golden (no-fault) run's per-function call
    counts, as a mapping or the campaign's :class:`GoldenBound` —
    bounds the ordinal axis in both directions: a case plan holds a
    single trigger, so execution is identical to the golden run until
    the trigger's ordinal is reached, and an ordinal past the golden
    call count provably never fires.  Enumerated cases beyond it are
    pruned (except each pair's protected witness) and expansion never
    crosses it.  Without the counts the frontier still works; bounds
    then come only from observed not-fired completions.
    ``baseline_blocks`` seeds the seen-block set (the engine passes the
    golden run's coverage), so novelty measures discovery *beyond* the
    fault-free path.  ``budget_cases`` caps the total number of cases
    scheduled.
    Plan cases are rejected (`ValueError`): only a cell has an ordinal
    coordinate to search over.
    """

    def __init__(self, cases: Iterable[Any], *,
                 budget_cases: Optional[int] = None,
                 batch_size: int = GUIDED_BATCH,
                 call_counts: Union[Mapping[str, int], GoldenBound,
                                    None] = None,
                 baseline_blocks: Optional[Iterable[int]] = None,
                 dry_after: int = DRY_AFTER,
                 decay: Optional[float] = None,
                 telemetry=None) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.budget_cases = budget_cases
        self.golden = (call_counts if isinstance(call_counts, GoldenBound)
                       else GoldenBound(call_counts or {}))
        self.dry_after = dry_after
        self.decay = NOVELTY_DECAY if decay is None else decay
        self.telemetry = as_telemetry(telemetry)

        self._pending: Dict[Tuple[str, str, int], _Pending] = {}
        self._scheduled: Set[Tuple[str, str, int]] = set()
        self._profiles: Dict[str, _Profile] = {}
        #: per-(function, action-token) highest ordinal that can still
        #: fire; derived from observed not-fired completions
        self._pair_bounds: Dict[Tuple[str, str], int] = {}
        #: seeded with the golden run's blocks — the fault-free path is
        #: already observed, so novelty means *beyond-golden* discovery
        self.seen_blocks: Set[int] = set(baseline_blocks or ())
        self.schedule: List[str] = []   # case ids, in scheduling order
        self.pruned_total = 0
        self.expanded_total = 0
        self.new_blocks_total = 0
        self._next_index = 0

        protected_pairs: Set[Tuple[str, str]] = set()
        for case in cases:
            if not isinstance(case, FaultCase):
                raise ValueError(
                    f"guided campaigns search the call-ordinal axis of "
                    f"FaultCase cells, not plan case {case.case_id()!r} "
                    f"(fail-rate cases are plan cases)")
            identity = case_identity(case)
            if identity in self._pending:
                continue
            pair = identity[:2]
            self._pending[identity] = _Pending(
                index=self._next_index, case=case,
                protected=pair not in protected_pairs)
            protected_pairs.add(pair)
            self._next_index += 1
        self._record_frontier_size()

    # -- scheduling --------------------------------------------------------

    @property
    def budget_left(self) -> Optional[int]:
        if self.budget_cases is None:
            return None
        return max(0, self.budget_cases - len(self.schedule))

    def next_batch(self) -> List[Any]:
        """The next cases to run, best-first; empty when exhausted.

        Prunes provably-dead and dry cases first, then takes the
        top-scoring remainder — at most :attr:`batch_size`, clipped to
        the remaining case budget.
        """
        self._prune()
        width = self.batch_size
        if self.budget_left is not None:
            width = min(width, self.budget_left)
        if width <= 0 or not self._pending:
            self._record_frontier_size()
            return []
        ranked = sorted(
            self._pending.values(),
            key=lambda p: (-self._score(p.case.function), p.index))
        batch = []
        for pending in ranked[:width]:
            identity = case_identity(pending.case)
            del self._pending[identity]
            self._scheduled.add(identity)
            self.schedule.append(pending.case.case_id())
            batch.append(pending.case)
        self._record_frontier_size()
        return batch

    def _score(self, function: str) -> float:
        profile = self._profiles.get(function)
        if profile is None:
            return float("inf")
        return novelty_score(profile.new_total, profile.visits,
                             decay=self.decay)

    def _bound(self, function: str, token: str) -> Optional[int]:
        """Highest ordinal of the pair that can still fire, if known.

        The minimum of the golden call count (execution equals the
        golden run until the single trigger fires, so later ordinals
        never arrive) and any observed not-fired bound.
        """
        bounds = [b for b in (self._pair_bounds.get((function, token)),
                              self.golden.calls(function))
                  if b is not None]
        return min(bounds) if bounds else None

    def _prune(self) -> None:
        doomed = []
        for identity, pending in self._pending.items():
            function, token, ordinal = identity
            if pending.protected:
                continue    # each pair keeps its matrix-cell witness
            bound = self._bound(function, token)
            if bound is not None and ordinal > bound:
                doomed.append(identity)   # provably cannot fire
                continue
            profile = self._profiles.get(function)
            if profile is not None and profile.visits >= self.dry_after \
                    and profile.dry_streak >= self.dry_after:
                doomed.append(identity)   # function has gone dry
        for identity in doomed:
            del self._pending[identity]
        if doomed:
            self.pruned_total += len(doomed)
            if self.telemetry.enabled:
                self.telemetry.metrics.counter(
                    "repro_guided_pruned_total",
                    "Guided-campaign cases pruned as subsumed or dry"
                ).inc(len(doomed))

    # -- feedback ----------------------------------------------------------

    def observe(self, case, result, *, restored: bool = False) -> None:
        """Feed one finished case back into the frontier.

        Must be called for every scheduled case, in batch input order —
        the engine does this between batches, so the observation order
        (and hence the schedule) is backend-independent.  ``restored``
        marks results satisfied from the journal on ``--resume``; they
        update the frontier exactly like fresh ones, so a resumed run
        reproduces the original schedule decision-for-decision.
        """
        function, token, ordinal = case_identity(case)
        blocks = record_blocks({"coverage": getattr(result, "coverage",
                                                    None)})
        fresh = blocks - self.seen_blocks
        self.seen_blocks |= fresh
        profile = self._profiles.setdefault(function, _Profile())
        profile.visits += 1
        if fresh:
            profile.new_total += len(fresh)
            profile.dry_streak = 0
            self.new_blocks_total += len(fresh)
            if self.telemetry.enabled:
                self.telemetry.metrics.counter(
                    "repro_guided_new_blocks_total",
                    "Previously-unseen basic blocks discovered by "
                    "guided-campaign cases").inc(len(fresh))
        else:
            profile.dry_streak += 1
        if not getattr(result, "fired", False):
            # the workload made fewer than `ordinal` calls under this
            # action: every higher ordinal of the pair is unreachable
            pair = (function, token)
            bound = ordinal - 1
            if bound < self._pair_bounds.get(pair, bound + 1):
                self._pair_bounds[pair] = bound
        elif fresh:
            self._expand(case, function, token, ordinal)
        self._record_frontier_size()

    def _expand(self, case, function: str, token: str,
                ordinal: int) -> None:
        """New blocks at ordinal k: enqueue the k±1 neighbors."""
        bound = self._bound(function, token)
        for neighbor in (ordinal - 1, ordinal + 1):
            if neighbor < 1 or (bound is not None and neighbor > bound):
                continue
            identity = (function, token, neighbor)
            if identity in self._pending or identity in self._scheduled:
                continue
            self._pending[identity] = _Pending(
                index=self._next_index,
                case=replace(case, call_ordinal=neighbor))
            self._next_index += 1
            self.expanded_total += 1

    # -- observability -----------------------------------------------------

    def _record_frontier_size(self) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge(
                "repro_guided_frontier_size",
                "Pending cases in the guided-campaign frontier"
            ).set(len(self._pending))

    def summary(self) -> Dict[str, Any]:
        """The ``campaign.guided`` event payload."""
        return {
            "scheduled": len(self.schedule),
            "pruned": self.pruned_total,
            "expanded": self.expanded_total,
            "new_blocks": self.new_blocks_total,
            "seen_blocks": len(self.seen_blocks),
            "frontier": len(self._pending),
            "budget": self.budget_cases,
        }
