"""Durable, content-addressed campaign results (§5.2 made crash-safe).

The paper's controller collects every injection "in a log, along with an
LFI-generated replay script for each fault injection test case" so long
runs can be dissected after the fact.  This module gives campaigns the
same durability: a :class:`ResultStore` is a directory of campaigns,
each an **append-only JSONL journal** of finished
:class:`~repro.core.campaign.CaseResult` records plus a ``meta.json``
(campaign key, app, golden output digest and call counts, expected
case count).  Those two files are a campaign's whole durable state:
listings and resume fold the journal.  Records are journaled from the
campaign parent as cases drain, and every line is flushed on write, so
a worker crash, a ``SIGKILL`` or a ``^C`` mid-run loses at most the
in-flight cases — ``campaign --resume`` then skips everything already
journaled.  Each line is one JSON object: a record's fields in key
order, then its coverage, metrics and sites (lines written before 6.1
sort those in with the rest; a reader parses either).

That is the whole guarantee: resume survives the *campaign process*
dying, not the machine.  A flush hands each line to the operating
system, but nothing here calls ``fsync`` — neither the journal nor the
atomically replaced meta file — so an OS crash or a power loss can drop
or tear lines the OS had not yet written to disk.

Content addressing is the same invalidation currency
:class:`~repro.core.store.ProfileStore` uses:

* the **campaign key** digests the run's identity — app, platform,
  profile content, image content, heuristic configuration and workload
  id — so a changed library or flipped filter starts a fresh campaign
  rather than serving stale results;
* the **case key** digests the case's plan XML, so only cases whose
  inputs actually changed re-run on resume.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Tuple,
                    Union)

from ...errors import ResultsError
from ...obs.telemetry import as_telemetry
from ..campaign import case_row
from ..controller import TestOutcome
from ..scenario.xml_io import plan_to_xml
from .matrix import fault_class_of

#: Schema tag on every journaled case record.
RESULT_SCHEMA = "repro.case-result/1"
#: Schema tag on the per-campaign metadata file.
META_SCHEMA = "repro.results-meta/1"

_JOURNAL = "journal.jsonl"
_META = "meta.json"

#: one encoder for every line: ``json.dumps`` with options builds a new
#: one per call
_ENCODER = json.JSONEncoder(sort_keys=True)


def fold_records(lines: Iterable[bytes], campaign: Optional[str],
                 into: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The one journal-reading rule, shared by resume and ``repro watch``.

    Keeps the lines that parse as JSON objects tagged
    :data:`RESULT_SCHEMA` (and with ``campaign`` as their campaign key,
    when one is given) and files each under its case key in ``into``,
    so the last record per case wins.  Blank, torn and foreign lines
    are skipped.  Returns the kept records in journal order.
    """
    kept: List[Dict[str, Any]] = []
    for line in lines:
        try:
            rec = json.loads(line)
        except ValueError:      # blank, torn, or not UTF-8
            continue
        if not isinstance(rec, dict) \
                or rec.get("schema") != RESULT_SCHEMA \
                or (campaign and rec.get("campaign") != campaign):
            continue
        into[rec.get("case_key", rec.get("case", ""))] = rec
        kept.append(rec)
    return kept


def _write_atomic(path: Path, obj: Any) -> None:
    """Replace ``path`` with ``obj`` as JSON via a temp file and
    ``os.replace``: a crash mid-write leaves the previous file whole."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj, indent=2, sort_keys=True))
    os.replace(tmp, path)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def case_digest(case) -> str:
    """Content digest of one campaign case: the SHA-256 of its plan XML.

    The plan XML is the case's complete injection input (triggers,
    actions, seed), so an unchanged digest means the stored result is
    still the result this case would produce.
    """
    return _sha256(plan_to_xml(case.plan()))


def campaign_digest(*, app: str, platform: Any = None,
                    profiles: Optional[Mapping[str, Any]] = None,
                    images: Optional[Mapping[str, Any]] = None,
                    heuristics: Any = None,
                    workload: str = "") -> str:
    """Content digest of a campaign's identity.

    Digests the same inputs :class:`~repro.core.store.ProfileStore`
    keys profiles by — image bytes, profile content, the
    :class:`HeuristicConfig` in force — plus the app, platform and
    workload id.  ``images`` and ``heuristics`` are optional so
    engine-level callers without them still get a usable (coarser) key.
    """
    from ...binfmt import image_digest
    from ..store import heuristics_digest

    ident: Dict[str, Any] = {
        "app": app,
        "platform": getattr(platform, "name", platform) or "",
        "workload": workload,
        "profiles": {soname: _sha256(profile.to_xml())
                     for soname, profile in (profiles or {}).items()},
        "images": {soname: image_digest(image)
                   for soname, image in (images or {}).items()},
        "heuristics": (heuristics_digest(heuristics)
                       if heuristics is not None else ""),
    }
    return _sha256(json.dumps(ident, sort_keys=True))


def result_record(campaign_key: str, case_key: str, case,
                  result) -> Dict[str, Any]:
    """Serialize one finished case for the journal (plain JSON types)."""
    return {
        "schema": RESULT_SCHEMA,
        "campaign": campaign_key,
        "case_key": case_key,
        "case": case.case_id(),
        **case_row(case),
        "status": result.outcome.status,
        # classification signals (added by the observatory; readers of
        # older journals tolerate their absence)
        "fault_class": fault_class_of(case.code),
        "outcome_class": getattr(result, "outcome_class", None),
        "output": getattr(result, "output", None),
        "coverage": getattr(result, "coverage", None),
        "exit_code": result.outcome.exit_code,
        "detail": result.outcome.detail,
        "injections": result.outcome.injections,
        "replay": result.outcome.replay_xml,
        "fired": result.fired,
        "seconds": result.seconds,
        "worker": result.worker,
        "instructions": result.instructions,
        "calls": result.calls,
        "firings": result.firings,
        "snapshot": result.snapshot,
        "events": result.events,
        "metrics": result.metrics,
        "sites": result.sites,
    }


def restore_result(case, record: Mapping[str, Any]):
    """Rebuild the :class:`CaseResult` a journaled record captured."""
    from ..campaign import CaseResult

    outcome = TestOutcome(
        test_id=record["case"], status=record["status"],
        exit_code=record.get("exit_code"), detail=record.get("detail", ""),
        injections=record.get("injections", 0),
        replay_xml=record.get("replay", ""))
    return CaseResult(
        case=case, outcome=outcome, fired=record.get("fired", False),
        seconds=record.get("seconds", 0.0),
        events=list(record.get("events") or ()),
        metrics=dict(record.get("metrics") or {}),
        worker=record.get("worker", ""),
        instructions=record.get("instructions", 0),
        calls=record.get("calls"),
        firings=record.get("firings"),
        snapshot=record.get("snapshot"),
        sites=list(record.get("sites") or ()),
        outcome_class=record.get("outcome_class"),
        output=record.get("output"),
        coverage=record.get("coverage"))


class CampaignJournal:
    """One campaign's append-only result journal inside a store.

    The journal file is the only record of the campaign's cases:
    resume and listings fold it.  A torn final line — the signature of
    a crashed writer — is skipped on read, never repaired in place: the
    next ``record()`` appends after it on a fresh line.
    """

    def __init__(self, root: Path, key: str, *, app: str = "") -> None:
        self.root = Path(root)
        self.key = key
        self.app = app
        self.root.mkdir(parents=True, exist_ok=True)
        self._fh = None
        self.written = 0
        #: function -> (shared values, encoded line tail) of its records
        #: that fired nothing (see :meth:`_line`)
        self._tails: Dict[str, Tuple[Dict[str, Any], str]] = {}
        meta = self.root / _META
        if meta.exists():
            if not self.app:
                try:
                    self.app = json.loads(meta.read_text()).get("app", "")
                except (OSError, ValueError):
                    pass
        else:
            _write_atomic(meta, {"schema": META_SCHEMA, "campaign": key,
                                 "app": app})

    @property
    def journal_path(self) -> Path:
        return self.root / _JOURNAL

    # -- campaign metadata -------------------------------------------------

    def meta(self) -> Dict[str, Any]:
        """The campaign's ``meta.json`` (campaign key, app, plus any
        :meth:`set_meta` additions — golden digest, expected cases)."""
        try:
            meta = json.loads((self.root / _META).read_text())
        except (OSError, ValueError):
            return {"schema": META_SCHEMA, "campaign": self.key,
                    "app": self.app}
        return meta if isinstance(meta, dict) else {}

    def set_meta(self, **fields: Any) -> Dict[str, Any]:
        """Merge fields into ``meta.json`` (e.g. the no-fault golden
        output digest and the campaign's expected case count, which
        ``repro watch`` uses for ETA)."""
        meta = self.meta()
        meta.update(fields)
        meta.setdefault("schema", META_SCHEMA)
        meta.setdefault("campaign", self.key)
        meta.setdefault("app", self.app)
        _write_atomic(self.root / _META, meta)
        return meta

    # -- writing -----------------------------------------------------------

    def record(self, case_key: str, case, result) -> Dict[str, Any]:
        """Append one finished case; flushed so a crash of this process
        loses nothing (an OS crash may — there is no fsync)."""
        rec = result_record(self.key, case_key, case, result)
        line = self._line(rec, case.function if result.firings == 0
                          else None)
        if self._fh is None:
            self._start_line_clean()
            self._fh = open(self.journal_path, "a", encoding="utf-8")
        self._fh.write(line)
        self._fh.flush()
        self.written += 1
        return rec

    def _line(self, rec: Dict[str, Any], unfired: Optional[str]) -> str:
        """``rec`` as one JSON line: its fields in key order, then its
        coverage, metrics and sites.

        ``unfired`` names the function of a record whose run fired no
        trigger.  Such records of one function are its not-reached
        representative and the cases derived from it, which carry the
        same coverage, metrics and sites, most of a line.  So the line
        tail holding those is encoded once per function and serves the
        later records while their values are equal.
        """
        rest = dict(rec)
        shared = {"coverage": rest.pop("coverage"),
                  "metrics": rest.pop("metrics"),
                  "sites": rest.pop("sites")}
        memo = self._tails.get(unfired) if unfired is not None else None
        if memo is not None and memo[0] == shared:
            tail = memo[1]
        else:
            tail = ", " + _ENCODER.encode(shared)[1:]
            if unfired is not None:
                self._tails[unfired] = (shared, tail)
        return _ENCODER.encode(rest)[:-1] + tail + "\n"

    def _start_line_clean(self) -> None:
        """If a crashed writer left a torn last line, terminate it so
        the next append starts on its own line (the torn fragment is
        skipped by the reader either way)."""
        try:
            with open(self.journal_path, "rb+") as fh:
                if fh.seek(0, os.SEEK_END) == 0:
                    return
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
        except FileNotFoundError:
            pass

    def close(self) -> None:
        """Close the append handle."""
        if self._fh is not None and not self._fh.closed:
            self._fh.close()
        self._fh = None
        self._tails.clear()

    # -- reading -----------------------------------------------------------

    def finished(self) -> Dict[str, Dict[str, Any]]:
        """Completed cases by case key (last record wins on re-runs)."""
        out: Dict[str, Dict[str, Any]] = {}
        path = self.journal_path
        if path.exists():
            fold_records(path.read_bytes().splitlines(), self.key, out)
        return out

    def summary(self) -> Dict[str, Any]:
        """Campaign listing entry: key, app, and the journal's case
        count and cases by status."""
        records = self.finished()
        outcomes: Dict[str, int] = {}
        for rec in records.values():
            status = rec.get("status", "?")
            outcomes[status] = outcomes.get(status, 0) + 1
        return {"campaign": self.key, "app": self.app,
                "cases": len(records), "outcomes": outcomes}


class ResultStore:
    """A directory of durable campaign journals, one per campaign key."""

    def __init__(self, root: Union[str, Path], *, telemetry=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.telemetry = as_telemetry(telemetry)

    def campaign_key(self, **identity: Any) -> str:
        """See :func:`campaign_digest`; exposed for callers that want
        to precompute or log the key."""
        return campaign_digest(**identity)

    def open_campaign(self, key: str, *, app: str = "") -> CampaignJournal:
        return CampaignJournal(self.root / key, key, app=app)

    def load(self, key: str) -> Dict[str, Dict[str, Any]]:
        """All finished records of one campaign, by case key."""
        journal = self._journal_for(key)
        return journal.finished()

    def _metas(self) -> List[Tuple[Path, Dict[str, Any]]]:
        """``(directory, meta)`` of every campaign, in directory order."""
        out = []
        for path in sorted(self.root.iterdir()):
            if not (path / _META).exists():
                continue
            try:
                meta = json.loads((path / _META).read_text())
            except (OSError, ValueError):
                continue
            out.append((path, meta))
        return out

    def campaigns(self) -> List[Dict[str, Any]]:
        """Every campaign's listing entry (see
        :meth:`CampaignJournal.summary`), in key order."""
        return [CampaignJournal(path, meta.get("campaign", path.name),
                                app=meta.get("app", "")).summary()
                for path, meta in self._metas()]

    def resolve(self, prefix: Optional[str] = None) -> str:
        """The unique campaign key matching ``prefix`` (or the only one),
        read from the meta files: no journal is folded."""
        keys = [meta.get("campaign", path.name)
                for path, meta in self._metas()]
        if prefix:
            keys = [k for k in keys if k.startswith(prefix)]
        if not keys:
            raise ResultsError(
                f"no campaign matching {prefix!r} in {self.root}"
                if prefix else f"no campaigns recorded in {self.root}")
        if len(keys) > 1:
            shorts = ", ".join(k[:12] for k in keys)
            raise ResultsError(
                f"ambiguous campaign selection in {self.root}: {shorts}; "
                f"pass a longer --campaign prefix")
        return keys[0]

    def _journal_for(self, key: str) -> CampaignJournal:
        path = self.root / key
        if not (path / _META).exists() and not (path / _JOURNAL).exists():
            raise ResultsError(f"no campaign {key[:12]}… in {self.root}")
        return CampaignJournal(path, key)
