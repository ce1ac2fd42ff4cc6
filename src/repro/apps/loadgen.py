"""miniweb load generation: concurrent clients and latency analysis.

Where :class:`~repro.apps.workloads.ApacheBenchDriver` issues strictly
sequential requests, the load generator here drives the miniweb server
with **windows of concurrent clients** — many connections queued in the
listen backlog before the server drains them — and measures a
*per-request virtual latency* for every request.

Virtual time is fully deterministic: it advances with every executed
guest instruction (``ns_per_insn`` each) and with every virtual-clock
jump the kernel makes (``nanosleep``, injected :class:`DelayFault`\\ s).
A latency campaign therefore produces bit-identical histograms on every
run, which is what makes the regression report below usable as a CI
guard rather than a flaky wall-clock comparison.

Per-request latencies stream into the ``repro_request_latency_ns``
histogram when a telemetry context is attached, and aggregate into a
:class:`LatencyReport` (p50/p90/p99/p99.9).  :class:`LatencyRegression`
compares two reports quantile-by-quantile and flags ratios above a
threshold — the shape of a perf-CI latency analyzer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..corpus.libc import libc
from ..obs.telemetry import as_telemetry
from ..runtime import Process
from .miniweb import STATIC_PAGE, MiniWeb

_CHUNK = 256

#: upper bounds (virtual ns) for the request-latency histogram
LATENCY_BUCKETS = (10_000.0, 30_000.0, 100_000.0, 300_000.0,
                   1_000_000.0, 3_000_000.0, 10_000_000.0,
                   30_000_000.0, 100_000_000.0)

#: quantiles every report carries, as (label, fraction)
QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
             ("p999", 0.999))


def _quantile(ordered: Sequence[int], fraction: float) -> int:
    """Nearest-rank quantile over an already-sorted sample."""
    if not ordered:
        return 0
    rank = max(0, min(len(ordered) - 1,
                      int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass(frozen=True)
class LatencyReport:
    """Aggregated per-request latencies of one load-generator run."""

    requests: int
    failures: int
    quantiles: Dict[str, int]       # label -> virtual ns
    mean_ns: float
    max_ns: int

    @classmethod
    def from_samples(cls, samples: Sequence[int],
                     failures: int = 0) -> "LatencyReport":
        ordered = sorted(samples)
        return cls(
            requests=len(samples),
            failures=failures,
            quantiles={label: _quantile(ordered, f)
                       for label, f in QUANTILES},
            mean_ns=(sum(ordered) / len(ordered)) if ordered else 0.0,
            max_ns=ordered[-1] if ordered else 0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "failures": self.failures,
            "quantiles_ns": dict(self.quantiles),
            "mean_ns": round(self.mean_ns, 3),
            "max_ns": self.max_ns,
        }

    def render(self) -> str:
        cells = "  ".join(f"{label}={self.quantiles[label]}ns"
                          for label, _ in QUANTILES)
        return (f"{self.requests} requests, {self.failures} failures  "
                f"{cells}  mean={self.mean_ns:.0f}ns")


@dataclass
class LatencyRegression:
    """Quantile-by-quantile comparison of two latency reports.

    ``threshold`` is the candidate/baseline ratio above which a
    quantile counts as regressed (1.25 = 25% slower).  A baseline
    quantile of zero only regresses if the candidate is nonzero.
    """

    baseline: LatencyReport
    candidate: LatencyReport
    threshold: float = 1.25

    def ratios(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for label, _ in QUANTILES:
            base = self.baseline.quantiles.get(label, 0)
            cand = self.candidate.quantiles.get(label, 0)
            out[label] = (cand / base) if base else \
                (float("inf") if cand else 1.0)
        return out

    def regressions(self) -> List[str]:
        return [label for label, ratio in self.ratios().items()
                if ratio > self.threshold]

    @property
    def ok(self) -> bool:
        return not self.regressions() and \
            self.candidate.failures <= self.baseline.failures

    def render(self) -> str:
        lines = [f"latency regression check "
                 f"(threshold {self.threshold:.2f}x): "
                 + ("OK" if self.ok else "REGRESSED")]
        ratios = self.ratios()
        for label, _ in QUANTILES:
            base = self.baseline.quantiles.get(label, 0)
            cand = self.candidate.quantiles.get(label, 0)
            mark = " <-- regression" if label in self.regressions() else ""
            lines.append(f"  {label:<5} {base:>12}ns -> {cand:>12}ns  "
                         f"({ratios[label]:.2f}x){mark}")
        if self.candidate.failures > self.baseline.failures:
            lines.append(f"  failures {self.baseline.failures} -> "
                         f"{self.candidate.failures} <-- regression")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "threshold": self.threshold,
            "ratios": {k: round(v, 4) for k, v in self.ratios().items()},
            "regressions": self.regressions(),
            "baseline": self.baseline.to_dict(),
            "candidate": self.candidate.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass
class LoadResult:
    """Raw output of one load-generator run."""

    samples: List[int] = field(default_factory=list)  # virtual ns each
    failures: int = 0

    @property
    def requests(self) -> int:
        return len(self.samples)

    def report(self) -> LatencyReport:
        return LatencyReport.from_samples(self.samples, self.failures)


class _ClientSlot:
    """One reusable concurrent client: its own guest process and
    preallocated request/response buffers (windows reuse slots, so a
    thousands-of-clients run does not grow guest memory)."""

    def __init__(self, server: MiniWeb) -> None:
        self.proc = Process(server.kernel, server.platform)
        self.proc.load_program([libc(server.platform).image])
        self.send_buf = self.proc.scratch_alloc(_CHUNK)
        self.recv_buf = self.proc.scratch_alloc(_CHUNK)
        self.fd = -1
        self.started_ns = 0
        self.ok = False


class LoadGenerator:
    """Windowed-concurrency loopback load against a miniweb server.

    ``window`` clients connect and send before the server drains the
    backlog, so every request's latency includes the queueing delay its
    window imposes — a DelayFault on any server-side call shows up in
    the tail quantiles of *all* requests queued behind it.  ``window``
    must stay within the listen backlog (16).
    """

    def __init__(self, server: MiniWeb, *, window: int = 8,
                 ns_per_insn: int = 10, telemetry=None) -> None:
        if window < 1 or window > 16:
            raise ValueError("window must be within the listen "
                             "backlog (1..16)")
        self.server = server
        self.window = window
        self.ns_per_insn = ns_per_insn
        self.telemetry = as_telemetry(telemetry)
        self._latency_metric = self.telemetry.metrics.histogram(
            "repro_request_latency_ns",
            "Per-request virtual latency through the miniweb load "
            "generator", ("page",), buckets=LATENCY_BUCKETS)
        self._slots = [_ClientSlot(server) for _ in range(window)]

    # -- virtual time -------------------------------------------------------

    def _now_ns(self) -> int:
        """Deterministic virtual time: instructions + kernel clock."""
        instructions = self.server.proc.cpu.instructions_executed
        for slot in self._slots:
            instructions += slot.proc.cpu.instructions_executed
        return instructions * self.ns_per_insn + \
            self.server.kernel.clock_ns

    # -- driving ------------------------------------------------------------

    def run(self, n_clients: int,
            *, page: str = STATIC_PAGE) -> LoadResult:
        """Issue ``n_clients`` requests in windows of ``window``."""
        result = LoadResult()
        remaining = n_clients
        while remaining > 0:
            batch = self._slots[:min(self.window, remaining)]
            self._open_window(batch, page)
            for _ in batch:
                self.server.serve_one()
            self._drain_window(batch, page, result)
            remaining -= len(batch)
        return result

    def _open_window(self, batch: List[_ClientSlot], page: str) -> None:
        request = f"GET {page} HTTP/1.0\r\n\r\n".encode()
        for slot in batch:
            proc = slot.proc
            slot.started_ns = self._now_ns()
            slot.ok = False
            slot.fd = proc.libcall("socket", 2, 1, 0)
            if slot.fd < 0:
                continue
            if proc.libcall("connect", slot.fd, self.server.port, 0) < 0:
                proc.libcall("close", slot.fd)
                slot.fd = -1
                continue
            proc.mem_write(slot.send_buf, request)
            if proc.libcall("send", slot.fd, slot.send_buf,
                            len(request), 0) <= 0:
                proc.libcall("close", slot.fd)
                slot.fd = -1

    def _drain_window(self, batch: List[_ClientSlot], page: str,
                      result: LoadResult) -> None:
        for slot in batch:
            proc = slot.proc
            if slot.fd >= 0:
                out = bytearray()
                while True:
                    n = proc.libcall("recv", slot.fd, slot.recv_buf,
                                     _CHUNK, 0)
                    if n <= 0:
                        break
                    out += proc.mem_read(slot.recv_buf, n)
                slot.ok = out.startswith(b"HTTP/1.0 200")
                proc.libcall("close", slot.fd)
                slot.fd = -1
            latency = self._now_ns() - slot.started_ns
            result.samples.append(latency)
            if not slot.ok:
                result.failures += 1
            self._latency_metric.observe(latency, page=page)

