"""Failure triage over a durable campaign: bucket, rank, replay.

A big systematic campaign fails the same way many times — fifty cases
that all die in the same ``malloc`` error path are one bug, not fifty.
Triage deduplicates the journal's failing cases into buckets keyed by a
**stable** signature:

    outcome class  ·  faulted function / errno  ·  injection-site stack

The stack component hashes the logbook stack frames of the first real
injection (the frames the paper's §5.2 log records per injection), so
two cases that crash from the same call site share a bucket even when
their case ids differ, while the same errno injected from two distinct
call paths stays separate.  Buckets rank by population, and each emits
a replay plan (via :mod:`repro.core.controller.replay`) that reproduces
one exemplar failure — the §6.1 regression-suite artifact, but one per
*distinct* failure instead of one per case.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..controller.logbook import InjectionRecord
from ..controller.replay import build_replay_plan
from ..scenario.xml_io import plan_to_xml
from .matrix import (CLASS_DETECTED, FAILURE_CLASSES, STATUS_CLASSES,
                     classify_record)


def outcome_class(status: str) -> Optional[str]:
    """The coarse failure class of an outcome status (None = not a
    failure), read off the failure-mode matrix's own map so triage
    buckets and matrix cells use the same labels.  Status alone can
    never yield ``silent-corruption`` — that verdict needs the output
    digest, so record-level callers use :func:`record_class` instead."""
    return STATUS_CLASSES.get(status)


def record_class(record: Mapping[str, Any]) -> Optional[str]:
    """The failure class of one journal record (None = not a failure).

    Prefers the record's journaled ``outcome_class`` (assigned by the
    campaign parent, including ``silent-corruption``), falling back to
    the status mapping for pre-classification journals.
    """
    cls = classify_record(record)
    return cls if cls in FAILURE_CLASSES else None


def _stack_hash(sites: Iterable[Mapping[str, Any]]) -> str:
    """Hash of the first *injecting* site's stack frames.

    Frame addresses vary with layout; symbol names don't, so hex frames
    (unresolved symbols) are kept verbatim while named frames dominate.
    An empty hash (no sites journaled — e.g. a worker that died before
    logging) still buckets by class/function/errno.
    """
    for site in sites:
        if site.get("calloriginal"):
            continue
        stack = site.get("stack") or ()
        return hashlib.sha256(
            "<-".join(stack).encode("utf-8")).hexdigest()[:16]
    return ""


def bucket_key(record: Mapping[str, Any]) -> Optional[str]:
    """The stable dedup key of one failing journal record (None when
    the record is not a failure)."""
    cls = record_class(record)
    if cls is None:
        return None
    parts = (cls, record.get("function", ""),
             str(record.get("errno") or record.get("retval") or ""),
             _stack_hash(record.get("sites") or ()))
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]


def _sites_to_records(sites: Iterable[Mapping[str, Any]]
                      ) -> List[InjectionRecord]:
    return [InjectionRecord(
        sequence=site.get("sequence", i + 1),
        test_id=site.get("test", ""),
        function=site.get("function", ""),
        call_number=site.get("call", 1),
        retval=site.get("retval"),
        errno=site.get("errno"),
        calloriginal=bool(site.get("calloriginal")),
        modifications=tuple(site.get("modifications") or ()),
        stacktrace=tuple(site.get("stack") or ()),
    ) for i, site in enumerate(sites)]


@dataclass
class FailureBucket:
    """One distinct failure: its signature, population, and a replay."""

    key: str
    outcome_class: str          # a FAILURE_CLASSES label
    status: str                 # exemplar's precise status
    function: str
    errno: Optional[str]
    stack: List[str] = field(default_factory=list)
    cases: List[str] = field(default_factory=list)
    exemplar: str = ""          # case id whose replay is emitted
    replay_xml: str = ""
    detail: str = ""

    @property
    def count(self) -> int:
        return len(self.cases)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bucket": self.key,
            "class": self.outcome_class,
            "status": self.status,
            "function": self.function,
            "errno": self.errno,
            "stack": list(self.stack),
            "count": self.count,
            "cases": list(self.cases),
            "exemplar": self.exemplar,
            "replay": self.replay_xml,
            "detail": self.detail,
        }


@dataclass
class TriageReport:
    """Ranked failure buckets for one journaled campaign."""

    campaign: str
    app: str = ""
    cases: int = 0              # failing cases triaged
    buckets: List[FailureBucket] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"triage of campaign {self.campaign[:12]}"
                 + (f" ({self.app})" if self.app else "")
                 + f": {self.cases} failing cases in "
                 f"{len(self.buckets)} buckets"]
        for i, bucket in enumerate(self.buckets, 1):
            errno = bucket.errno or "none"
            where = ("<-".join(bucket.stack[:3])
                     if bucket.stack else "(no stack)")
            lines.append(
                f"  #{i} [{bucket.outcome_class}] {bucket.function}"
                f"/{errno} ×{bucket.count}  at {where}")
            lines.append(f"      exemplar {bucket.exemplar}"
                         + (f" — {bucket.detail}" if bucket.detail else ""))
        if not self.buckets:
            lines.append("  no failures to triage")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.triage/1",
            "campaign": self.campaign,
            "app": self.app,
            "cases": self.cases,
            "buckets": [b.to_dict() for b in self.buckets],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def triage_records(campaign: str, records: Iterable[Mapping[str, Any]],
                   *, app: str = "",
                   include_errors: bool = False) -> TriageReport:
    """Bucket a campaign's failing journal records and rank by count.

    Crashes, hangs and silent corruption always triage; graceful
    ``detected-error`` outcomes — usually the *tolerated* behaviour a
    campaign hopes for — join only with ``include_errors``.  Each
    bucket's replay plan comes from its exemplar's journaled injection
    sites (the first case seen, so the choice is deterministic),
    falling back to the stored §5.2 replay script when the sites were
    lost with a crashed worker.
    """
    buckets: Dict[str, FailureBucket] = {}
    failing = 0
    for record in records:
        cls = record_class(record)
        if cls is None or (cls == CLASS_DETECTED and not include_errors):
            continue
        failing += 1
        key = bucket_key(record)
        bucket = buckets.get(key)
        if bucket is None:
            sites = list(record.get("sites") or ())
            injecting = [s for s in sites if not s.get("calloriginal")]
            stack = list((injecting[0].get("stack") if injecting else None)
                         or ())
            replay = ""
            if sites:
                replay = plan_to_xml(build_replay_plan(
                    _sites_to_records(sites),
                    name=f"triage-{record.get('case', key)}"))
            if not replay:
                replay = record.get("replay", "")
            bucket = FailureBucket(
                key=key, outcome_class=cls,
                status=record.get("status", ""),
                function=record.get("function", ""),
                errno=record.get("errno"), stack=stack,
                exemplar=record.get("case", ""), replay_xml=replay,
                detail=(record.get("detail") or "").splitlines()[-1]
                if record.get("detail") else "")
            buckets[key] = bucket
        bucket.cases.append(record.get("case", ""))
    ranked = sorted(buckets.values(),
                    key=lambda b: (-b.count, b.key))
    return TriageReport(campaign=campaign, app=app, cases=failing,
                        buckets=ranked)
