"""``repro.obs`` — the unified telemetry layer.

Three dependency-free pillars behind one facade:

* **events** — an append-only structured log (:class:`EventLog`) of
  ``repro.event/1`` records with severities, injectable clocks, and
  file/stderr/memory sinks; the §5.2 injection log made machine-readable.
* **metrics** — a :class:`MetricsRegistry` of counters, gauges and
  fixed-bucket histograms with labels, a dict ``snapshot()`` and a
  Prometheus-style ``render_text()`` exposition.
* **tracing** — :class:`Span`/``trace()`` context managers building a
  parent-child span tree with durations and attributes, exportable as
  JSON or a flame-style text tree.

Everything defaults to no-op null objects (:data:`NULL_TELEMETRY`), so
instrumented code paths cost one method call when telemetry is off.
"""

from .clock import Clock, ManualClock, MonotonicClock
from .events import (EVENT_SCHEMA, Event, EventLog, EventLogHandler,
                     FileSink, MemorySink, NULL_EVENT_LOG, NullEventLog,
                     SEVERITIES, Sink, StderrSink, read_events,
                     summarize_events)
from .metrics import (Counter, DEFAULT_BUCKETS, Gauge, Histogram,
                      MetricsRegistry, NULL_REGISTRY, NullRegistry,
                      aggregate_histogram, histogram_quantile,
                      quantiles_from_snapshot)
from .report import (CampaignWatch, JournalTailer, WATCH_SCHEMA,
                     render_html_report, resolve_journal, watch_journal)
from .telemetry import (NULL_TELEMETRY, NullTelemetry, TELEMETRY_SCHEMA,
                        Telemetry, as_telemetry)
from .tracing import (NULL_TRACER, NullTracer, Span, SpanTracer,
                      TRACE_SCHEMA, render_span_dicts)

__all__ = [
    "Telemetry", "NullTelemetry", "NULL_TELEMETRY", "as_telemetry",
    "TELEMETRY_SCHEMA",
    "Event", "EventLog", "NullEventLog",
    "NULL_EVENT_LOG", "EventLogHandler", "EVENT_SCHEMA", "SEVERITIES",
    "Sink", "FileSink", "MemorySink", "StderrSink",
    "read_events", "summarize_events",
    "MetricsRegistry", "NullRegistry",
    "NULL_REGISTRY", "Counter", "Gauge", "Histogram", "DEFAULT_BUCKETS",
    "Span", "SpanTracer", "NullTracer", "NULL_TRACER", "TRACE_SCHEMA",
    "render_span_dicts",
    "Clock", "MonotonicClock", "ManualClock",
    "aggregate_histogram", "histogram_quantile", "quantiles_from_snapshot",
    "CampaignWatch", "JournalTailer", "WATCH_SCHEMA",
    "render_html_report", "resolve_journal", "watch_journal",
]
