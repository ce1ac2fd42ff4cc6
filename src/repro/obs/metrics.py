"""The metrics registry: counters, gauges, fixed-bucket histograms.

Naming follows the Prometheus conventions — ``repro_`` prefix,
``_total`` suffix on counters, ``_seconds`` on time histograms — and
``render_text()`` emits the text exposition format, so a saved snapshot
drops straight into existing dashboards.  ``snapshot()`` returns a plain
dict (JSON- and pickle-friendly); ``MetricsRegistry.restore`` rebuilds a
registry from one and ``merge`` folds one in, which is how campaign
workers' per-case registries aggregate into the parent's across
process boundaries.

``NULL_REGISTRY`` is the no-op default: instruments exist but every
``inc``/``set``/``observe`` is a single no-op method call, keeping the
uninstrumented hot path at effectively zero overhead.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)

_INF = float("inf")


def _label_key(labelnames: Sequence[str],
               labels: Mapping[str, Any]) -> Tuple[str, ...]:
    unknown = set(labels) - set(labelnames)
    if unknown:
        raise ValueError(f"unknown label(s) {sorted(unknown)}; "
                         f"declared labels are {list(labelnames)}")
    return tuple(str(labels.get(name, "")) for name in labelnames)


def _labels_dict(labelnames: Sequence[str],
                 key: Tuple[str, ...]) -> Dict[str, str]:
    return dict(zip(labelnames, key))


class _Instrument:
    """Shared bookkeeping: name, help text, declared label names."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, Any]) -> Tuple[str, ...]:
        return _label_key(self.labelnames, labels)


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def _snapshot_values(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [{"labels": _labels_dict(self.labelnames, key),
                     "value": value}
                    for key, value in sorted(self._values.items())]


class Gauge(_Instrument):
    """A value that goes up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    _snapshot_values = Counter._snapshot_values


class _HistogramData:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets       # per-bin, not cumulative
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed upper-bound buckets; an observation lands in the first
    bucket whose bound is >= the value (the Prometheus ``le`` rule),
    or the implicit ``+Inf`` overflow bucket."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"{self.name}: need at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"{self.name}: duplicate bucket bounds")
        self.buckets = bounds
        self._data: Dict[Tuple[str, ...], _HistogramData] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        index = bisect.bisect_left(self.buckets, float(value))
        with self._lock:
            data = self._data.get(key)
            if data is None:
                data = self._data[key] = _HistogramData(
                    len(self.buckets) + 1)
            data.counts[index] += 1
            data.sum += float(value)
            data.count += 1

    def count(self, **labels: Any) -> int:
        with self._lock:
            data = self._data.get(self._key(labels))
            return data.count if data else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            data = self._data.get(self._key(labels))
            return data.sum if data else 0.0

    def total_sum(self) -> float:
        with self._lock:
            return sum(d.sum for d in self._data.values())

    def _bucket_names(self) -> List[str]:
        return [_format_bound(b) for b in self.buckets] + ["+Inf"]

    def _snapshot_values(self) -> List[Dict[str, Any]]:
        names = self._bucket_names()
        with self._lock:
            return [{
                "labels": _labels_dict(self.labelnames, key),
                "buckets": dict(zip(names, data.counts)),
                "sum": data.sum,
                "count": data.count,
            } for key, data in sorted(self._data.items())]


def _format_bound(bound: float) -> str:
    if bound == _INF:
        return "+Inf"
    text = repr(bound)
    return text[:-2] if text.endswith(".0") else text


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"'
                     for name, value in sorted(labels.items()))
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Creates and owns instruments; one per telemetry context."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: "OrderedDict[str, _Instrument]" = OrderedDict()
        self._lock = threading.Lock()

    # -- instrument factories (get-or-create, name-keyed) -------------------

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                if existing.labelnames != tuple(labelnames):
                    raise TypeError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, not {tuple(labelnames)}")
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return list(self._instruments)

    # -- export -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as one JSON-/pickle-friendly dict.

        Histogram bucket counts are per-bin (non-cumulative); the text
        exposition below is where the Prometheus cumulative rule is
        applied.
        """
        with self._lock:
            instruments = list(self._instruments.values())
        out: Dict[str, Any] = {}
        for instrument in instruments:
            entry: Dict[str, Any] = {
                "type": instrument.kind,
                "help": instrument.help,
                "labelnames": list(instrument.labelnames),
                "values": instrument._snapshot_values(),
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = [_format_bound(b)
                                    for b in instrument.buckets]
            out[instrument.name] = entry
        return out

    def render_text(self) -> str:
        """Prometheus-style text exposition of the current state."""
        lines: List[str] = []
        snapshot = self.snapshot()
        for name, entry in snapshot.items():
            if entry["help"]:
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {entry['type']}")
            for value in entry["values"]:
                labels = value["labels"]
                if entry["type"] == "histogram":
                    cumulative = 0
                    for bucket in entry["buckets"] + ["+Inf"]:
                        cumulative += value["buckets"].get(bucket, 0)
                        bucket_labels = dict(labels, le=bucket)
                        lines.append(
                            f"{name}_bucket{_format_labels(bucket_labels)}"
                            f" {cumulative}")
                    lines.append(f"{name}_sum{_format_labels(labels)} "
                                 f"{_format_number(value['sum'])}")
                    lines.append(f"{name}_count{_format_labels(labels)} "
                                 f"{value['count']}")
                else:
                    lines.append(f"{name}{_format_labels(labels)} "
                                 f"{_format_number(value['value'])}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- import -------------------------------------------------------------

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a ``snapshot()`` dict into this registry.

        Counters and histograms add; gauges take the incoming value.
        This is the cross-process aggregation path: workers snapshot
        their per-case registries, the parent merges.
        """
        for name, entry in snapshot.items():
            kind = entry.get("type")
            labelnames = tuple(entry.get("labelnames", ()))
            if kind == "counter":
                counter = self.counter(name, entry.get("help", ""),
                                       labelnames)
                for value in entry.get("values", ()):
                    counter.inc(value["value"], **value["labels"])
            elif kind == "gauge":
                gauge = self.gauge(name, entry.get("help", ""), labelnames)
                for value in entry.get("values", ()):
                    gauge.set(value["value"], **value["labels"])
            elif kind == "histogram":
                bounds = [float(b) for b in entry.get("buckets", ())
                          if b != "+Inf"]
                hist = self.histogram(name, entry.get("help", ""),
                                      labelnames, buckets=bounds)
                names = hist._bucket_names()
                for value in entry.get("values", ()):
                    key = hist._key(value["labels"])
                    with hist._lock:
                        data = hist._data.get(key)
                        if data is None:
                            data = hist._data[key] = _HistogramData(
                                len(hist.buckets) + 1)
                        for index, bucket in enumerate(names):
                            data.counts[index] += \
                                value["buckets"].get(bucket, 0)
                        data.sum += value.get("sum", 0.0)
                        data.count += value.get("count", 0)
            else:
                raise ValueError(f"cannot merge metric {name!r} of "
                                 f"unknown type {kind!r}")

    @classmethod
    def restore(cls, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        """A fresh registry holding exactly a snapshot's contents —
        e.g. to re-render exposition text from a saved JSONL stream."""
        registry = cls()
        registry.merge(snapshot)
        return registry


# -- quantile estimation over snapshot histograms ----------------------------

def aggregate_histogram(entry: Mapping[str, Any]
                        ) -> Tuple[List[float], List[int], int, float]:
    """Sum a snapshot histogram entry across its label sets.

    Returns ``(bounds, per_bin_counts, count, sum)`` where ``bounds``
    excludes the implicit ``+Inf`` overflow (whose count is the last
    entry of ``per_bin_counts``).  Input is one entry of
    :meth:`MetricsRegistry.snapshot` — the shape ``repro stats`` reads
    back out of a ``--log-json`` stream.
    """
    names = [b for b in entry.get("buckets", ()) if b != "+Inf"]
    bounds = [float(b) for b in names]
    counts = [0] * (len(bounds) + 1)
    total = 0
    value_sum = 0.0
    for value in entry.get("values", ()):
        per = value.get("buckets", {})
        for index, name in enumerate(names + ["+Inf"]):
            counts[index] += int(per.get(name, 0))
        total += int(value.get("count", 0))
        value_sum += float(value.get("sum", 0.0))
    return bounds, counts, total, value_sum


def histogram_quantile(q: float, bounds: Sequence[float],
                       counts: Sequence[int]) -> Optional[float]:
    """Estimate the ``q``-quantile from per-bin bucket counts.

    Linear interpolation inside the winning bucket (the PromQL
    ``histogram_quantile`` rule); an estimate landing in the ``+Inf``
    overflow clamps to the largest finite bound.  ``None`` when the
    histogram is empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be within [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= rank and count:
            if index >= len(bounds):
                return bounds[-1] if bounds else None
            lower = bounds[index - 1] if index > 0 else 0.0
            return lower + (bounds[index] - lower) \
                * ((rank - previous) / count)
    return bounds[-1] if bounds else None


def quantiles_from_snapshot(snapshot: Mapping[str, Any], name: str,
                            quantiles: Sequence[float] = (0.5, 0.9, 0.99)
                            ) -> Optional[Dict[str, float]]:
    """Quantile summary of one histogram in a registry snapshot.

    Returns ``{"count": ..., "mean": ..., "p50": ..., ...}`` (keys
    from the requested quantiles), or ``None`` when the metric is
    absent, not a histogram, or empty — callers render the section only
    when there is something to say.
    """
    entry = snapshot.get(name)
    if not entry or entry.get("type") != "histogram":
        return None
    bounds, counts, total, value_sum = aggregate_histogram(entry)
    if total == 0:
        return None
    out: Dict[str, float] = {"count": float(total),
                             "mean": value_sum / total}
    for q in quantiles:
        estimate = histogram_quantile(q, bounds, counts)
        if estimate is not None:
            out[f"p{int(q * 100)}"] = estimate
    return out


# -- the no-op default -------------------------------------------------------

class _NullInstrument:
    """Absorbs every instrument method at one no-op call each."""

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def count(self, **labels: Any) -> int:
        return 0

    def sum(self, **labels: Any) -> float:
        return 0.0

    def total_sum(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled default: every factory returns the same no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name, help="", labelnames=()):    # type: ignore
        return _NULL_INSTRUMENT

    def gauge(self, name, help="", labelnames=()):      # type: ignore
        return _NULL_INSTRUMENT

    def histogram(self, name, help="", labelnames=(),   # type: ignore
                  buckets=DEFAULT_BUCKETS):
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def render_text(self) -> str:
        return ""

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        pass


NULL_REGISTRY = NullRegistry()
