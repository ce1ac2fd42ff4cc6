"""Failure-mode classification and the campaign matrix (`repro.matrix/1`).

The CentOS failure-analysis work shows the real product of a
fault-injection campaign is a *failure-mode matrix*: not "42 of 311
cases failed" but "short reads in ``read`` cause silent corruption,
EINTR in ``close`` hangs, everything else is detected".  This module
supplies the two halves:

* a **classifier** mapping every finished case into the stable
  five-way taxonomy

  - ``crash`` — SIGSEGV / SIGABRT / dead worker,
  - ``hang`` — per-case timeout or step-budget exhaustion,
  - ``detected-error`` — the workload noticed and returned an error,
  - ``silent-corruption`` — the run "succeeded" but its observable
    output (the guest filesystem) diverges from the no-fault golden
    run,
  - ``survived`` — the fault fired and the workload's output matches
    the golden run;

* a **matrix aggregator** folding journal records into
  (function × fault class) rows with per-class cells, serialized as
  byte-stable ``repro.matrix/1`` JSON — two runs of the same campaign
  produce identical bytes whatever the backend or snapshot mode, so
  matrices diff and gate by content.

Classification happens **in the campaign parent** (see
``core.exec.engine``): workers ship back the raw signals — outcome
status, the guest-filesystem digest, the block-coverage map — and the
parent assigns the class deterministically, so serial, process and
snapshot runs all journal identical classes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..controller import (STATUS_CRASHED, STATUS_ERROR_EXIT, STATUS_HUNG,
                          STATUS_NORMAL, STATUS_SIGABRT, STATUS_SIGSEGV)

#: Schema tag of the serialized matrix.
MATRIX_SCHEMA = "repro.matrix/1"

#: The shared outcome-class vocabulary, severity order.  Triage
#: (``core.results.triage``) buckets with exactly these labels.
CLASS_CRASH = "crash"
CLASS_HANG = "hang"
CLASS_SILENT = "silent-corruption"
CLASS_DETECTED = "detected-error"
CLASS_SURVIVED = "survived"
OUTCOME_CLASSES = (CLASS_CRASH, CLASS_HANG, CLASS_SILENT,
                   CLASS_DETECTED, CLASS_SURVIVED)

#: Classes that count as failures (triage concerns itself with these;
#: ``survived`` is the outcome a campaign hopes for).
FAILURE_CLASSES = (CLASS_CRASH, CLASS_HANG, CLASS_SILENT, CLASS_DETECTED)

#: Outcome statuses whose class follows from the status alone (triage
#: buckets read the same map).
STATUS_CLASSES = {
    STATUS_SIGSEGV: CLASS_CRASH,
    STATUS_SIGABRT: CLASS_CRASH,
    STATUS_CRASHED: CLASS_CRASH,
    STATUS_HUNG: CLASS_HANG,
    STATUS_ERROR_EXIT: CLASS_DETECTED,
}


def classify_status(status: str, *, fired: bool = True,
                    output: Optional[str] = None,
                    golden: Optional[str] = None) -> str:
    """Classify one outcome status into the five-way taxonomy.

    ``output`` is the case's guest-filesystem digest and ``golden`` the
    no-fault run's; silent corruption is only ever diagnosed when both
    digests exist, the fault actually fired, and the run otherwise
    looked normal — a missing digest (old journal, dead worker)
    degrades to ``survived``, never to a false corruption.
    """
    cls = STATUS_CLASSES.get(status)
    if cls is not None:
        return cls
    if (status == STATUS_NORMAL and fired
            and output and golden and output != golden):
        return CLASS_SILENT
    return CLASS_SURVIVED


def classify_result(result, golden: Optional[str] = None) -> str:
    """Classify a finished :class:`~repro.core.campaign.CaseResult`."""
    return classify_status(result.outcome.status, fired=result.fired,
                           output=getattr(result, "output", None),
                           golden=golden)


def classify_record(record: Mapping[str, Any],
                    golden: Optional[str] = None) -> str:
    """Classify a journal record, preferring its recorded class.

    Records written since classification landed carry ``outcome_class``
    verbatim; older journals are classified on the fly from the fields
    they do have (without a stored output digest that can never yield
    ``silent-corruption`` — read-compatible, never wrong).
    """
    recorded = record.get("outcome_class")
    if recorded in OUTCOME_CLASSES:
        return recorded
    return classify_status(record.get("status", ""),
                           fired=bool(record.get("fired")),
                           output=record.get("output"),
                           golden=golden)


def fault_class_of(action: Any) -> str:
    """The fault-class label of an action (``return``, ``delay``, ...),
    or ``plan`` for a plan case that no one action names (None).

    Every scenario action declares its ``kind``; the fallback parses a
    token so foreign/legacy actions still land in a stable row.
    """
    if action is None:
        return "plan"
    kind = getattr(action, "kind", None)
    if isinstance(kind, str) and kind:
        return kind
    token = getattr(action, "token", None)
    if callable(token):
        return str(token()).split(":", 1)[0]
    return "other"


def record_fault_class(record: Mapping[str, Any]) -> str:
    """The fault class of a journal record (legacy-tolerant)."""
    recorded = record.get("fault_class")
    if isinstance(recorded, str) and recorded:
        return recorded
    action = record.get("action")
    if isinstance(action, str) and action:
        return action.split(":", 1)[0]
    return "return"


# -- guest output digest -----------------------------------------------------


def _digest_vnode(h, node, path: str) -> None:
    if node.is_dir:
        h.update(f"d {path}\n".encode("utf-8"))
        for name in sorted(node.children):
            _digest_vnode(h, node.children[name], f"{path}/{name}"
                          if path != "/" else f"/{name}")
    else:
        h.update(f"f {path} {len(node.data)}\n".encode("utf-8"))
        h.update(bytes(node.data))
        h.update(b"\n")


def vfs_digest(vfs) -> str:
    """Content digest of a guest filesystem tree (sorted walk)."""
    h = hashlib.sha256()
    _digest_vnode(h, vfs.root, "/")
    return h.hexdigest()[:16]


def output_digest(controller) -> str:
    """The observable output of one monitored run: every guest
    filesystem the controller's processes touched, digested in
    first-touch order.

    Deliberately excludes clocks (a :class:`DelayFault` advances
    virtual time without corrupting anything) and transient state (fd
    tables, heaps) — the durable artifact a workload leaves behind is
    its files, which is exactly what silent corruption damages.
    """
    h = hashlib.sha256()
    seen: set = set()
    for proc in controller.processes:
        kernel = proc.kernel
        if id(kernel) in seen:
            continue
        seen.add(id(kernel))
        h.update(vfs_digest(kernel.vfs).encode("ascii"))
    return h.hexdigest()[:16]


# -- the failure-mode matrix -------------------------------------------------


@dataclass
class MatrixCell:
    """One (function × fault class × outcome class) cell."""

    count: int = 0
    cases: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "cases": sorted(self.cases)}


@dataclass
class MatrixRow:
    """All outcomes of one (function × fault class) combination."""

    function: str
    fault_class: str
    cells: Dict[str, MatrixCell] = field(default_factory=dict)
    not_reached: int = 0

    def add(self, cls: str, case_id: str) -> None:
        cell = self.cells.get(cls)
        if cell is None:
            cell = self.cells[cls] = MatrixCell()
        cell.count += 1
        cell.cases.append(case_id)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "function": self.function,
            "fault_class": self.fault_class,
            "not_reached": self.not_reached,
            "cells": {cls: cell.to_dict()
                      for cls, cell in sorted(self.cells.items())},
        }


class FailureMatrix:
    """The aggregated failure-mode matrix of one campaign.

    Cells count **fired** cases only; cases whose trigger the workload
    never reached are tracked per row as ``not_reached`` (they say
    nothing about fault tolerance).  Everything serialized is derived
    from deterministic record fields — no wall clocks, no worker names
    — so :meth:`to_json` is byte-identical across backends and
    snapshot modes.
    """

    def __init__(self, campaign: str = "", app: str = "",
                 golden: Optional[str] = None) -> None:
        self.campaign = campaign
        self.app = app
        self.golden = golden
        self.rows: Dict[Tuple[str, str], MatrixRow] = {}
        self.cases = 0
        self.fired = 0

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]],
                     *, campaign: str = "", app: str = "",
                     golden: Optional[str] = None) -> "FailureMatrix":
        matrix = cls(campaign=campaign, app=app, golden=golden)
        for record in records:
            matrix.add_record(record)
        return matrix

    def add_record(self, record: Mapping[str, Any]) -> None:
        self.cases += 1
        key = (record.get("function", ""), record_fault_class(record))
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = MatrixRow(function=key[0],
                                             fault_class=key[1])
        if not record.get("fired"):
            row.not_reached += 1
            return
        self.fired += 1
        row.add(classify_record(record, self.golden),
                record.get("case", ""))

    # -- views -------------------------------------------------------------

    def sorted_rows(self) -> List[MatrixRow]:
        return [self.rows[key] for key in sorted(self.rows)]

    def totals(self) -> Dict[str, int]:
        out = {cls: 0 for cls in OUTCOME_CLASSES}
        for row in self.rows.values():
            for cls, cell in row.cells.items():
                out[cls] = out.get(cls, 0) + cell.count
        return out

    def cell_counts(self) -> Dict[Tuple[str, str, str], int]:
        """Flat ``(function, fault_class, class) -> count`` view (the
        currency gates and diffs trade in)."""
        out: Dict[Tuple[str, str, str], int] = {}
        for (function, fault_class), row in self.rows.items():
            for cls, cell in row.cells.items():
                out[(function, fault_class, cls)] = cell.count
        return out

    def to_dict(self) -> Dict[str, Any]:
        totals = self.totals()
        return {
            "schema": MATRIX_SCHEMA,
            "campaign": self.campaign,
            "app": self.app,
            "golden": self.golden,
            "classes": list(OUTCOME_CLASSES),
            "cases": self.cases,
            "fired": self.fired,
            "not_reached": self.cases - self.fired,
            "totals": totals,
            "rows": [row.to_dict() for row in self.sorted_rows()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """The matrix as a fixed-width text table."""
        headers = ["function", "fault-class"] + list(OUTCOME_CLASSES) \
            + ["not-reached"]
        rows = []
        for row in self.sorted_rows():
            cells = [str(row.cells[cls].count) if cls in row.cells else "·"
                     for cls in OUTCOME_CLASSES]
            rows.append([row.function, row.fault_class] + cells
                        + [str(row.not_reached) if row.not_reached else "·"])
        totals = self.totals()
        rows.append(["total", ""]
                    + [str(totals[cls]) for cls in OUTCOME_CLASSES]
                    + [str(self.cases - self.fired)])
        widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
                  for i in range(len(headers))]
        def fmt(cols):
            return "  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()
        title = (f"failure-mode matrix of campaign {self.campaign[:12]}"
                 + (f" ({self.app})" if self.app else "")
                 + f": {self.cases} cases, {self.fired} fired")
        return "\n".join([title, fmt(headers),
                          fmt(["-" * w for w in widths])]
                         + [fmt(r) for r in rows])


def matrix_from_store(store, campaign: Optional[str] = None
                      ) -> FailureMatrix:
    """Build the matrix for one journaled campaign in a
    :class:`~repro.core.results.ResultStore` (``campaign`` is a key
    prefix, resolved like ``triage --campaign``)."""
    key = store.resolve(campaign)
    journal = store.open_campaign(key)
    meta = journal.meta()
    records = sorted(journal.finished().values(),
                     key=lambda r: r.get("case", ""))
    return FailureMatrix.from_records(
        records, campaign=key, app=meta.get("app", ""),
        golden=meta.get("golden"))


def diff_matrices(baseline: Mapping[str, Any],
                  current: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Cell-level differences between two serialized matrices.

    Returns one entry per (function, fault_class, class) whose count
    changed, with both counts — the payload ``repro gate`` prints when
    a baseline-comparison gate fails.
    """
    def cells(doc: Mapping[str, Any]) -> Dict[Tuple[str, str, str], int]:
        out: Dict[Tuple[str, str, str], int] = {}
        for row in doc.get("rows", ()):
            for cls, cell in (row.get("cells") or {}).items():
                out[(row.get("function", ""), row.get("fault_class", ""),
                     cls)] = int(cell.get("count", 0))
        return out

    old, new = cells(baseline), cells(current)
    diffs = []
    for key in sorted(set(old) | set(new)):
        if old.get(key, 0) != new.get(key, 0):
            function, fault_class, cls = key
            diffs.append({
                "function": function,
                "fault_class": fault_class,
                "class": cls,
                "baseline": old.get(key, 0),
                "current": new.get(key, 0),
            })
    return diffs


# -- coverage novelty --------------------------------------------------------

#: How fast a function's expected novelty decays per completed sibling
#: case.  Shared by the post-hoc :func:`coverage_novelty` ranking and
#: the live ``core.search.GuidedFrontier`` scheduler so both sides of
#: the feedback loop agree on what "still promising" means.
NOVELTY_DECAY = 0.5


def novelty_score(new_blocks_total: int, visits: int,
                  *, decay: float = NOVELTY_DECAY) -> float:
    """Expected novelty of the *next* case of a group.

    ``new_blocks_total`` is how many previously-unseen blocks the
    group's completed cases contributed in total and ``visits`` how
    many of them have completed; the score is the per-visit discovery
    rate decayed by repeat visits.  Zero visits means "never explored"
    and scores infinite — unexplored groups always outrank explored
    ones.
    """
    if visits <= 0:
        return float("inf")
    return (new_blocks_total / visits) * (decay ** visits)


def record_blocks(record: Mapping[str, Any]) -> set:
    """The block-address set of a journal record's coverage map.

    Never raises: a missing, empty or malformed ``coverage`` field
    (legacy journal, dead worker, torn record) degrades to the empty
    set so rankings and schedulers stay total functions over mixed
    journals.
    """
    from ...runtime.blocks import import_coverage

    try:
        return set(import_coverage(record.get("coverage")))
    except (TypeError, ValueError, AttributeError):
        return set()


def coverage_novelty(records: Iterable[Mapping[str, Any]]
                     ) -> List[Dict[str, Any]]:
    """Greedy coverage-novelty ranking of a campaign's cases.

    Orders cases by marginal new blocks covered (classic greedy set
    cover): the first entry is the case covering the most blocks, each
    subsequent one adds the most blocks nobody before it reached.
    Cases contributing nothing new are appended by descending total
    coverage, and records with missing, empty or malformed coverage
    maps rank last of all (``blocks == 0``) instead of being dropped
    or raising — a mixed journal still yields one total, deterministic
    ranking.  Ties break on case id.
    """
    candidates = []
    uncovered = []
    for record in records:
        case_id = str(record.get("case", "") or "")
        cov = record.get("coverage")
        digest = ""
        if isinstance(cov, Mapping):
            digest = str(cov.get("digest", "") or "")
        blocks = record_blocks(record)
        if blocks:
            candidates.append((case_id, blocks, digest))
        else:
            uncovered.append((case_id, digest))
    covered: set = set()
    ranked: List[Dict[str, Any]] = []
    remaining = sorted(candidates, key=lambda c: c[0])
    while remaining:
        # deterministic tie-break: max() keeps the first of equals in
        # iteration order, and `remaining` is sorted by case id
        best = max(remaining, key=lambda c: len(c[1] - covered))
        new = len(best[1] - covered)
        if new == 0:
            leftovers = sorted(remaining,
                               key=lambda c: (-len(c[1]), c[0]))
            for case_id, blocks, digest in leftovers:
                ranked.append({"case": case_id, "new_blocks": 0,
                               "blocks": len(blocks),
                               "digest": digest})
            break
        covered |= best[1]
        ranked.append({"case": best[0], "new_blocks": new,
                       "blocks": len(best[1]),
                       "digest": best[2]})
        remaining.remove(best)
    for case_id, digest in sorted(uncovered):
        ranked.append({"case": case_id, "new_blocks": 0,
                       "blocks": 0, "digest": digest})
    return ranked
