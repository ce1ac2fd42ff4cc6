"""The telemetry facade: one object bundling events + metrics + spans.

Everything instrumentable (``Session``, ``Profiler``, ``ProfileStore``,
``Controller``, the campaign engine) takes a ``telemetry`` argument and
defaults to :data:`NULL_TELEMETRY`, whose event log, registry and
tracer are all single-method-call no-ops — the <5% overhead guarantee
is that default.

Enable it by passing a real :class:`Telemetry`::

    tele = Telemetry.to_file("run.jsonl")
    session = Session(LINUX_X86, telemetry=tele, store="cache/")
    session.load(libc(LINUX_X86)).profile().campaign(factory)
    tele.finalize()                  # append metrics + span events
    print(tele.metrics.render_text())
    print(tele.tracer.render_tree())

``finalize()`` writes the final metrics snapshot and the span trees
*into the event stream itself*, which is what lets ``repro stats``
reconstruct a whole run from the JSONL file alone.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from .clock import Clock, MonotonicClock
from .events import (EventLog, FileSink, NULL_EVENT_LOG, NullEventLog, Sink)
from .metrics import MetricsRegistry, NULL_REGISTRY, NullRegistry
from .tracing import NULL_TRACER, NullTracer, SpanTracer

#: Schema tag on combined snapshots.
TELEMETRY_SCHEMA = "repro.telemetry/1"


class Telemetry:
    """A live telemetry context: event log + metrics registry + tracer."""

    enabled = True

    def __init__(self, *, clock: Optional[Clock] = None,
                 sinks: Iterable[Sink] = (),
                 events: Optional[EventLog] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[SpanTracer] = None) -> None:
        self.clock = clock or MonotonicClock()
        self.events = (events if events is not None
                       else EventLog(clock=self.clock, sinks=sinks))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = (tracer if tracer is not None
                       else SpanTracer(clock=self.clock))

    @classmethod
    def to_file(cls, path: Union[str, Path], *,
                clock: Optional[Clock] = None,
                sinks: Iterable[Sink] = ()) -> "Telemetry":
        """A telemetry context streaming JSONL events to ``path``."""
        return cls(clock=clock, sinks=[FileSink(path), *sinks])

    def snapshot(self) -> Dict[str, Any]:
        """The combined machine-readable state of this context."""
        return {
            "schema": TELEMETRY_SCHEMA,
            "events": self.events.emitted,
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.to_dicts(),
        }

    def finalize(self) -> None:
        """Append span + metrics-snapshot events and flush sinks.

        After this, the event stream is self-contained: ``repro stats``
        rebuilds per-function injection counts, cache ratios and the
        span tree from the JSONL file with no other inputs.
        """
        for root in self.tracer.to_dicts():
            self.events.emit("span", severity="debug", span=root)
        self.events.emit("metrics.snapshot", severity="debug",
                         metrics=self.metrics.snapshot())
        self.events.flush()

    def close(self) -> None:
        self.events.close()


class NullTelemetry(Telemetry):
    """The disabled default; all three pillars are shared no-ops."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(events=NULL_EVENT_LOG, metrics=NULL_REGISTRY,
                         tracer=NULL_TRACER)

    def snapshot(self) -> Dict[str, Any]:
        return {"schema": TELEMETRY_SCHEMA, "events": 0,
                "metrics": {}, "spans": []}

    def finalize(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()


def as_telemetry(value: Union["Telemetry", bool, None]) -> Telemetry:
    """Coerce the ``telemetry=`` argument convention.

    ``None``/``False`` mean disabled (the no-op singleton); ``True``
    means "give me a fresh default context"; a :class:`Telemetry` is
    passed through.
    """
    if value is None or value is False:
        return NULL_TELEMETRY
    if value is True:
        return Telemetry()
    if isinstance(value, Telemetry):
        return value
    raise TypeError(f"telemetry must be a Telemetry, bool or None, "
                    f"not {value!r}")
