"""The structured event log: append-only JSONL under ``repro.event/1``.

The paper's controller "logs every injection" (§5.2); this module makes
that log machine-readable and extends it to the whole system.  An
:class:`EventLog` hands every emitted :class:`Event` — a (seq, ts, kind,
severity, fields) record — to its sinks:

* :class:`FileSink` writes one JSON object per line (JSONL), the format
  ``repro stats`` reconstructs runs from;
* :class:`StderrSink` renders human-readable lines, filtered by
  severity — the CLI's diagnostic channel;
* :class:`MemorySink` buffers events in-process (tests; the campaign
  engine uses it to ferry worker-side events back to the parent).

Timestamps come from an injected clock object and sequence numbers are
assigned under a lock, so streams are deterministic under test clocks
and well-ordered under concurrency.  ``NULL_EVENT_LOG`` is the no-op
default: ``emit`` returns immediately, keeping uninstrumented runs at
uninstrumented cost.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from .clock import Clock, MonotonicClock

#: Schema tag stamped on every serialized event.
EVENT_SCHEMA = "repro.event/1"

#: Severities, least to most severe.
SEVERITIES = ("debug", "info", "warning", "error")
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


def severity_rank(severity: str) -> int:
    try:
        return _SEVERITY_RANK[severity]
    except KeyError:
        raise ValueError(f"unknown severity {severity!r}; "
                         f"expected one of {SEVERITIES}")


@dataclass(frozen=True)
class Event:
    """One telemetry record."""

    seq: int
    ts: float
    kind: str
    severity: str = "info"
    fields: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": EVENT_SCHEMA,
            "seq": self.seq,
            "ts": round(self.ts, 6),
            "kind": self.kind,
            "severity": self.severity,
            "fields": dict(self.fields),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def render(self) -> str:
        """One human-readable line (the StderrSink format)."""
        parts = [f"[{self.severity}] {self.kind}"]
        message = self.fields.get("message")
        if message is not None:
            parts.append(str(message))
        parts.extend(f"{key}={self.fields[key]}"
                     for key in sorted(self.fields) if key != "message")
        return " ".join(parts)


# -- sinks -------------------------------------------------------------------

class Sink:
    """Interface: receives every event the log emits."""

    def write(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink(Sink):
    """Buffers events in a list."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def write(self, event: Event) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()


class FileSink(Sink):
    """Appends one JSON line per event; flushed per write so a crashed
    campaign still leaves a readable log."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def write(self, event: Event) -> None:
        self._fh.write(event.to_json() + "\n")
        self._fh.flush()

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class StderrSink(Sink):
    """Renders events as text, dropping those below ``min_severity``."""

    def __init__(self, stream=None, *, min_severity: str = "info") -> None:
        self.stream = stream
        self.min_rank = severity_rank(min_severity)

    def write(self, event: Event) -> None:
        if severity_rank(event.severity) < self.min_rank:
            return
        stream = self.stream if self.stream is not None else sys.stderr
        print(event.render(), file=stream)


# -- the log -----------------------------------------------------------------

class EventLog:
    """Append-only, sink-fanout event stream."""

    enabled = True

    def __init__(self, *, clock: Optional[Clock] = None,
                 sinks: Iterable[Sink] = ()) -> None:
        self.clock = clock or MonotonicClock()
        self.sinks: List[Sink] = list(sinks)
        self._lock = threading.Lock()
        self._seq = 0

    @property
    def emitted(self) -> int:
        return self._seq

    def attach(self, sink: Sink) -> None:
        with self._lock:
            self.sinks.append(sink)

    def emit(self, kind: str, *, severity: str = "info",
             **fields: Any) -> Optional[Event]:
        severity_rank(severity)         # validate early
        with self._lock:
            self._seq += 1
            event = Event(seq=self._seq, ts=self.clock.now(), kind=kind,
                          severity=severity, fields=fields)
            for sink in self.sinks:
                sink.write(event)
        return event

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class BufferedEventLog(EventLog):
    """A single-writer log that batches per-case telemetry.

    ``emit`` appends one flat ``(kind, severity, fields, ts)`` tuple —
    no lock, no sequence assignment, no :class:`Event` construction, no
    sink fan-out — and the whole case's records are materialized in one
    pass at case end by :meth:`drain` (Events) or :meth:`drain_dicts`
    (the ``to_dict`` wire shape, skipping Event objects entirely).
    Sequence numbers and timestamps come out exactly as the unbatched
    log would have assigned them: seq continues from the last drain,
    ts is read from the clock at emit time.

    Single-writer by construction — one case, one worker thread — so
    dropping the lock is safe; the campaign engine swaps this in for
    the per-case ``EventLog``+``MemorySink`` pair so the observability
    layer stops taxing the interpreter.
    """

    def __init__(self, *, clock: Optional[Clock] = None) -> None:
        super().__init__(clock=clock, sinks=())
        self._buffer: List[tuple] = []

    @property
    def emitted(self) -> int:
        return self._seq + len(self._buffer)

    def attach(self, sink: Sink) -> None:
        raise TypeError("BufferedEventLog has no sinks; call drain() "
                        "or drain_dicts() at batch boundaries instead")

    def emit(self, kind: str, *, severity: str = "info",
             **fields: Any) -> Optional[Event]:
        severity_rank(severity)         # validate early
        self._buffer.append((kind, severity, fields, self.clock.now()))
        return None

    def drain(self) -> List[Event]:
        """Materialize and clear the buffer as :class:`Event` records."""
        base = self._seq
        events = [Event(seq=base + index, ts=ts, kind=kind,
                        severity=severity, fields=fields)
                  for index, (kind, severity, fields, ts)
                  in enumerate(self._buffer, 1)]
        self._seq = base + len(events)
        self._buffer.clear()
        return events

    def drain_dicts(self) -> List[Dict[str, Any]]:
        """Materialize and clear the buffer straight to the
        ``Event.to_dict`` wire shape (what rides back on a
        ``CaseResult``) without building Event objects at all."""
        base = self._seq
        records = [{"schema": EVENT_SCHEMA, "seq": base + index,
                    "ts": round(ts, 6), "kind": kind,
                    "severity": severity, "fields": dict(fields)}
                   for index, (kind, severity, fields, ts)
                   in enumerate(self._buffer, 1)]
        self._seq = base + len(records)
        self._buffer.clear()
        return records


class NullEventLog(EventLog):
    """The no-op default; ``emit`` costs one method call."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(sinks=())

    def emit(self, kind: str, *, severity: str = "info",
             **fields: Any) -> Optional[Event]:
        return None


NULL_EVENT_LOG = NullEventLog()


# -- stdlib logging bridge ---------------------------------------------------

_LEVEL_SEVERITY = ((logging.ERROR, "error"), (logging.WARNING, "warning"),
                   (logging.INFO, "info"))


class EventLogHandler(logging.Handler):
    """Routes stdlib ``logging`` records into an :class:`EventLog`.

    Installed by the CLI so anything using ``logging.getLogger("repro...")``
    lands in the same JSONL stream (and the same stderr channel) as the
    native telemetry events.
    """

    def __init__(self, log: EventLog, *, kind: str = "log") -> None:
        super().__init__()
        self.log = log
        self.kind = kind

    @staticmethod
    def _severity(levelno: int) -> str:
        for level, severity in _LEVEL_SEVERITY:
            if levelno >= level:
                return severity
        return "debug"

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self.log.emit(self.kind, severity=self._severity(record.levelno),
                          logger=record.name, message=record.getMessage())
        except Exception:       # pragma: no cover - logging must not raise
            self.handleError(record)


# -- reading and summarizing saved streams -----------------------------------

def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL event file back into dicts (schema-checked)."""
    events: List[Dict[str, Any]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if isinstance(record, dict) and record.get("schema") == EVENT_SCHEMA:
            events.append(record)
    return events


def summarize_events(events: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Reconstruct run statistics from an event stream alone.

    This is the ``repro stats`` engine: per-function injection counts,
    per-case outcomes, the cache hit ratio and the span trees all come
    back out of the JSONL file with no other inputs.
    """
    kinds: Dict[str, int] = {}
    injections: Dict[str, int] = {}
    injections_by_errno: Dict[str, Dict[str, int]] = {}
    outcomes: Dict[str, int] = {}
    spans: List[Dict[str, Any]] = []
    metrics: Dict[str, Any] = {}
    cases = 0
    snapshots = {"taken": 0, "restored": 0, "dirty_pages": 0,
                 "restored_bytes": 0, "restore_seconds": 0.0}
    results = {"campaigns": 0, "skipped": 0, "replayed": 0}
    for record in events:
        kind = record.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
        fields = record.get("fields", {})
        if kind == "injection":
            function = str(fields.get("function", "?"))
            errno = str(fields.get("errno") or fields.get("retval", "?"))
            injections[function] = injections.get(function, 0) + 1
            per = injections_by_errno.setdefault(function, {})
            per[errno] = per.get(errno, 0) + 1
        elif kind == "case":
            cases += 1
            status = str(fields.get("status", "?"))
            outcomes[status] = outcomes.get(status, 0) + 1
        elif kind == "snapshot":
            action = fields.get("action")
            if action == "taken":
                snapshots["taken"] += 1
            elif action == "restored":
                snapshots["restored"] += 1
                snapshots["dirty_pages"] += int(fields.get("dirty_pages")
                                                or 0)
                snapshots["restored_bytes"] += int(fields.get("bytes") or 0)
                snapshots["restore_seconds"] += float(fields.get("seconds")
                                                      or 0.0)
        elif kind == "campaign.resume":
            results["campaigns"] += 1
            results["skipped"] += int(fields.get("skipped") or 0)
            results["replayed"] += int(fields.get("replayed") or 0)
        elif kind == "span" and "span" in fields:
            spans.append(fields["span"])
        elif kind == "metrics.snapshot" and "metrics" in fields:
            metrics = fields["metrics"]     # last snapshot wins
    snapshots["restore_seconds"] = round(snapshots["restore_seconds"], 6)
    return {
        "events": sum(kinds.values()),
        "kinds": kinds,
        "cases": cases,
        "outcomes": outcomes,
        "injections": injections,
        "injections_by_errno": injections_by_errno,
        "cache": _cache_stats(metrics),
        "code_cache": _code_cache_stats(metrics),
        "snapshots": snapshots,
        "results": results,
        "latency": _latency_stats(metrics),
        "faults": _fault_totals(metrics),
        "metrics": metrics,
        "spans": spans,
    }


def _metric_total(metrics: Mapping[str, Any], name: str) -> float:
    entry = metrics.get(name)
    if not entry:
        return 0.0
    return sum(v.get("value", 0.0) for v in entry.get("values", ()))


def _latency_stats(metrics: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """Request-latency quantiles from the final metrics snapshot
    (the loadgen's ``repro_request_latency_ns`` histogram)."""
    from .metrics import quantiles_from_snapshot

    return quantiles_from_snapshot(metrics, "repro_request_latency_ns")


def _fault_totals(metrics: Mapping[str, Any]) -> Dict[str, float]:
    """Aggregate effect of the non-return fault actions."""
    return {
        "virtual_delay_ns": _metric_total(
            metrics, "repro_virtual_delay_ns_total"),
        "partial_io_bytes": _metric_total(
            metrics, "repro_partial_io_bytes_total"),
    }


def _code_cache_stats(metrics: Mapping[str, Any]) -> Dict[str, Any]:
    """Shared-code-cache effectiveness out of a metrics snapshot —
    what ``repro stats`` renders as the translation-cache section."""
    compiled = _metric_total(metrics, "repro_blocks_compiled_total")
    hits = _metric_total(metrics, "repro_block_cache_hits_total")
    lookups = hits + compiled
    return {
        "blocks_compiled": int(compiled),
        "hits": int(hits),
        "hit_ratio": (hits / lookups) if lookups else None,
        "evictions": int(_metric_total(
            metrics, "repro_code_cache_evictions_total")),
    }


def _cache_stats(metrics: Mapping[str, Any]) -> Dict[str, Any]:
    """Cache hit/miss/ratio out of a metrics snapshot."""
    def total(name: str) -> float:
        entry = metrics.get(name)
        if not entry:
            return 0.0
        return sum(v.get("value", 0.0) for v in entry.get("values", ()))

    hits = total("repro_profile_store_hits_total")
    misses = total("repro_profile_store_misses_total")
    lookups = hits + misses
    return {
        "hits": int(hits),
        "misses": int(misses),
        "hit_ratio": (hits / lookups) if lookups else None,
    }
