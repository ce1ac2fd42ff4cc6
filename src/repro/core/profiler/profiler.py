"""The LFI profiler: orchestration (§3).

``Profiler.profile_library`` analyzes one binary; ``profile_application``
mimics the end-to-end flow: run ``ldd`` over the target's libraries,
profile each library in the closure, and return the profiles keyed by
soname — "testers point LFI at a target application and the profiler
automatically finds which shared libraries the application links to".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

from ...binfmt import SharedObject, ldd
from ...errors import ProfilerError
from ...obs.telemetry import as_telemetry
from ...platform import Platform
from ..profiles import ErrorReturn, FunctionProfile, LibraryProfile
from .cfg import CfgStats
from .heuristics import HeuristicConfig, apply_heuristics
from .propagation import AnalysisContext, FunctionAnalysis


@dataclass
class ProfilerReport:
    """Bookkeeping for §6.2/§3.1 measurements."""

    seconds: float = 0.0
    functions_analyzed: int = 0
    instructions: int = 0
    max_hops: int = 0
    stats: CfgStats = field(default_factory=CfgStats)


@dataclass
class _ExportAnalysis:
    """One export's analysis products, ready for profile assembly."""

    name: str
    profile: FunctionProfile
    instructions: int
    calls: int
    max_hops: int


class Profiler:
    """Static analyzer producing fault profiles from binaries."""

    def __init__(self, platform: Platform,
                 images: Mapping[str, SharedObject],
                 kernel_image: Optional[SharedObject] = None,
                 heuristics: Optional[HeuristicConfig] = None,
                 *, use_edge_constraints: bool = True,
                 infer_arg_conditions: bool = False,
                 telemetry=None) -> None:
        self.platform = platform
        self.images = dict(images)
        self.kernel_image = kernel_image
        self.heuristics = heuristics or HeuristicConfig.default()
        self.telemetry = as_telemetry(telemetry)
        self.context = AnalysisContext(
            platform, self.images, kernel_image,
            use_edge_constraints=use_edge_constraints,
            infer_arg_conditions=infer_arg_conditions)
        self.last_report = ProfilerReport()

    @property
    def libraries(self) -> Dict[str, SharedObject]:
        """Read-only alias of :attr:`images`."""
        return self.images

    # -- public API --------------------------------------------------------

    def profile_library(self, soname: str) -> LibraryProfile:
        """Profile every exported function of one library."""
        image = self.images.get(soname)
        if image is None:
            raise ProfilerError(f"library {soname!r} not registered")
        started = time.perf_counter()
        report = ProfilerReport()
        profile = LibraryProfile(soname=soname, platform=self.platform.name,
                                 code_bytes=image.code_size())
        with self.telemetry.tracer.trace(f"profile:{soname}",
                                         soname=soname) as span:
            analyses = [self._analyze_export(soname, sym)
                        for sym in image.exports]
            sizes: Dict[str, int] = {}
            calls: Dict[str, int] = {}
            hops = self.telemetry.metrics.histogram(
                "repro_propagation_hops",
                "Reverse-propagation call-chain depth per export",
                buckets=(0, 1, 2, 3, 5, 8, 13))
            for item in analyses:
                profile.functions[item.name] = item.profile
                sizes[item.name] = item.instructions
                calls[item.name] = item.calls
                report.functions_analyzed += 1
                report.instructions += item.instructions
                report.max_hops = max(report.max_hops, item.max_hops)
                hops.observe(item.max_hops)
            profile = apply_heuristics(profile, self.heuristics,
                                       function_sizes=sizes,
                                       function_calls=calls)
            profile.profiling_seconds = time.perf_counter() - started
            report.seconds = profile.profiling_seconds
            report.stats = self.context.stats
            self.last_report = report
            span.set(functions=report.functions_analyzed,
                     instructions=report.instructions)
        self._record_profile(soname, report)
        return profile

    def _record_profile(self, soname: str, report: ProfilerReport) -> None:
        """Library-level telemetry after one profile run."""
        tele = self.telemetry
        if not tele.enabled:
            return
        metrics = tele.metrics
        metrics.counter("repro_profiler_functions_total",
                        "Exported functions analyzed").inc(
            report.functions_analyzed)
        metrics.counter("repro_profiler_instructions_total",
                        "Instructions decoded into CFGs").inc(
            report.instructions)
        stats = report.stats
        branches = metrics.counter(
            "repro_cfg_branches_total", "CFG branch edges discovered",
            ("indirection",))
        branches.inc(stats.branches - stats.indirect_branches,
                     indirection="direct")
        branches.inc(stats.indirect_branches, indirection="indirect")
        cfg_calls = metrics.counter(
            "repro_cfg_calls_total", "CFG call sites discovered",
            ("indirection",))
        cfg_calls.inc(stats.calls - stats.indirect_calls,
                      indirection="direct")
        cfg_calls.inc(stats.indirect_calls, indirection="indirect")
        tele.events.emit("profile", soname=soname,
                         functions=report.functions_analyzed,
                         instructions=report.instructions,
                         seconds=round(report.seconds, 6))

    def profile_all(self) -> Dict[str, LibraryProfile]:
        """Profile every registered library."""
        return {soname: self.profile_library(soname)
                for soname in sorted(self.images)}

    # -- internals ---------------------------------------------------------

    def _analyze_export(self, soname: str, sym) -> _ExportAnalysis:
        """Analyze one exported function: CFG plus reverse propagation."""
        image = self.images[soname]
        with self.telemetry.tracer.trace(f"export:{sym.name}",
                                         soname=soname) as span:
            analysis = self.context.analyze_function(soname, sym.offset)
            cfg = self.context.cfg(image, sym.offset)
            nodes = len(cfg.blocks)
            edges = sum(len(b.successors) for b in cfg.blocks.values())
            metrics = self.telemetry.metrics
            metrics.counter("repro_cfg_nodes_total",
                            "Basic blocks across analyzed CFGs").inc(nodes)
            metrics.counter("repro_cfg_edges_total",
                            "Successor edges across analyzed CFGs").inc(edges)
            span.set(instructions=cfg.instruction_count(),
                     error_returns=len(analysis.entries),
                     hops=analysis.max_hops)
        return _ExportAnalysis(
            name=sym.name,
            profile=_to_function_profile(sym.name, analysis),
            instructions=cfg.instruction_count(),
            calls=_real_call_count(cfg),
            max_hops=analysis.max_hops)


def profile_application(platform: Platform,
                        app_libraries: Sequence[SharedObject],
                        available: Mapping[str, SharedObject],
                        kernel_image: Optional[SharedObject] = None,
                        heuristics: Optional[HeuristicConfig] = None
                        ) -> Dict[str, LibraryProfile]:
    """End-to-end §2 flow: discover the closure with ``ldd``, profile all.

    ``app_libraries`` are the libraries the application links directly;
    ``available`` is the system library search path.
    """
    closure: Dict[str, SharedObject] = {}
    for lib in app_libraries:
        for dep in ldd(lib, available):
            closure.setdefault(dep.soname, dep)
    profiler = Profiler(platform, closure, kernel_image, heuristics)
    return profiler.profile_all()


def _real_call_count(cfg) -> int:
    """Call sites in a CFG, excluding the call/pop PIC thunk."""
    from ...isa import Rel

    count = 0
    for block in cfg.blocks.values():
        for decoded in block.instructions:
            if decoded.insn.mnemonic != "call":
                continue
            op = decoded.insn.operands[0]
            if isinstance(op, Rel) and decoded.branch_target() == decoded.end:
                continue
            count += 1
    return count


def _to_function_profile(name: str,
                         analysis: FunctionAnalysis) -> FunctionProfile:
    fp = FunctionProfile(name=name,
                         indirect_influence=analysis.indirect_influence,
                         propagation_hops=analysis.max_hops)
    for entry in analysis.entries:
        fp.error_returns.append(
            ErrorReturn(retval=entry.value, side_effects=entry.effects,
                        conditions=entry.conditions))
    return fp
