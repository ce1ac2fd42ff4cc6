"""The ``Session`` facade — LFI's two-command workflow as one object.

The paper's §6.1 pitch is "issuing two commands, one for profiling and
one for running the tests".  ``Session`` is that pitch as an API: it
owns the platform, the loaded images, the (optionally store-backed)
profiles, and the campaign worker-pool knobs, and exposes the whole
flow as a fluent chain::

    from repro import Session, libc, LINUX_X86

    report = (Session(LINUX_X86, jobs=4, timeout=5.0, store="cache/")
              .load(libc(LINUX_X86))
              .profile()
              .campaign(my_workload_factory, functions=["close", "read"]))

Every stage records a :class:`~repro.core.exec.RunSummary`;
``summary_json()`` emits the machine-readable run summary (cases/sec,
cache hits, worker utilization) for dashboards and CI.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from .binfmt import SharedObject
from .core.campaign import (CampaignCase, CampaignReport, enumerate_cases,
                            run_campaign)
from .core.controller import Controller
from .core.exec.engine import RunSummary
from .core.profiler import HeuristicConfig, Profiler
from .core.profiles import LibraryProfile
from .core.scenario.model import Plan
from .core.store import ProfileStore
from .errors import ReproError
from .kernel import build_kernel_image
from .obs.telemetry import as_telemetry
from .platform import LINUX_X86, Platform, platform_by_name

#: Anything ``load`` understands: an image, a built library (anything
#: with an ``.image``), a path to a ``.self`` file, a soname->image
#: mapping, or an iterable of those.
Loadable = Union[SharedObject, str, Path, Mapping[str, SharedObject],
                 Iterable[Any]]

#: Sentinel: build the platform's kernel image on first profile().
_AUTO = "auto"


class Session:
    """Single entry point tying profiling and campaigns together.

    Parameters
    ----------
    platform:
        A :class:`Platform` or its name (``"linux-x86"``, ...).
    app:
        Label stamped on reports and run summaries.
    store:
        Optional profile cache — a directory path or a
        :class:`ProfileStore`.  Fresh profiles are reused across
        sessions and processes; a warm store makes ``profile()``
        orders of magnitude faster.
    jobs, timeout, backend:
        Worker-pool configuration for campaigns only: ``campaign()``
        fans cases out over ``jobs`` forked workers (``0`` = one per
        CPU) with per-case timeouts and crash isolation.
        ``backend=None`` runs serially for one job and no timeout,
        otherwise on the process backend.  ``profile()`` always runs
        on the calling thread.
    heuristics:
        §3.1 profile filters; part of the store's cache key.
    kernel_image:
        Kernel image for syscall analysis; ``"auto"`` (default) builds
        the platform's kernel lazily, ``None`` disables kernel
        recursion.
    telemetry:
        ``None`` (default) keeps observability at zero cost via the
        no-op context; ``True`` creates a fresh in-memory
        :class:`~repro.obs.Telemetry`; an explicit ``Telemetry`` (e.g.
        ``Telemetry.to_file("run.jsonl")``) streams structured events,
        metrics and spans for the whole session.  Inspect with
        :meth:`telemetry`.
    results_dir:
        Optional durable campaign result store — a directory path or a
        :class:`~repro.core.results.ResultStore`.  Campaigns journal
        every finished case as the run drains, so interrupted runs can
        be resumed and ``repro triage`` can dissect them afterwards.
    resume:
        Default for :meth:`campaign`'s ``resume`` flag: satisfy
        already-journaled cases from ``results_dir`` instead of
        re-running them.
    """

    def __init__(self, platform: Union[Platform, str] = LINUX_X86,
                 *, app: str = "session",
                 store: Union[ProfileStore, str, Path, None] = None,
                 jobs: int = 1,
                 timeout: Optional[float] = None,
                 backend: Optional[str] = None,
                 snapshot: bool = False,
                 heuristics: Optional[HeuristicConfig] = None,
                 kernel_image: Union[SharedObject, None, str] = _AUTO,
                 telemetry=None,
                 results_dir: Union["ResultStore", str, Path, None] = None,
                 resume: bool = False) -> None:
        self.platform = (platform_by_name(platform)
                         if isinstance(platform, str) else platform)
        self.app = app
        self.jobs = jobs
        self.timeout = timeout
        self.backend = backend
        self.snapshot = snapshot
        self.heuristics = heuristics
        self.obs = as_telemetry(telemetry)
        self.store = (ProfileStore(store)
                      if isinstance(store, (str, Path)) else store)
        if self.store is not None and self.obs.enabled \
                and not self.store.telemetry.enabled:
            self.store.telemetry = self.obs
        if isinstance(results_dir, (str, Path)):
            from .core.results import ResultStore
            results_dir = ResultStore(results_dir, telemetry=self.obs)
        self.results = results_dir
        self.resume = resume
        self._kernel_image = kernel_image
        self.images: Dict[str, SharedObject] = {}
        self._profiles: Optional[Dict[str, LibraryProfile]] = None
        self.summaries: List[RunSummary] = []

    # -- loading -----------------------------------------------------------

    def load(self, *sources: Loadable) -> "Session":
        """Register library images; returns the session for chaining."""
        with self.obs.tracer.trace("session.load") as span:
            for source in sources:
                self._load_one(source)
            self._profiles = None   # new images invalidate old profiles
            span.set(images=len(self.images))
        if self.obs.enabled:
            self.obs.events.emit("session.load", app=self.app,
                                 images=sorted(self.images))
        return self

    def _load_one(self, source: Any) -> None:
        image = getattr(source, "image", None)      # BuiltLibrary et al.
        if isinstance(image, SharedObject):
            source = image
        if isinstance(source, SharedObject):
            self.images[source.soname] = source
        elif isinstance(source, (str, Path)):
            loaded = SharedObject.from_bytes(Path(source).read_bytes())
            self.images[loaded.soname] = loaded
        elif isinstance(source, Mapping):
            for img in source.values():
                self._load_one(img)
        elif isinstance(source, Iterable):
            for item in source:
                self._load_one(item)
        else:
            raise TypeError(f"Session.load: cannot load {source!r}")

    @property
    def kernel_image(self) -> Optional[SharedObject]:
        if self._kernel_image == _AUTO:
            self._kernel_image = build_kernel_image(self.platform)
        return self._kernel_image

    # -- profiling ---------------------------------------------------------

    def profile(self, *, force: bool = False) -> "Session":
        """Profile every loaded image (store-backed when configured).

        Idempotent: an already-profiled session returns immediately
        unless ``force``.  Returns the session for chaining; the result
        is available as :attr:`profiles`.
        """
        if self._profiles is not None and not force:
            return self
        if not self.images:
            raise ReproError("Session.profile: no images loaded; "
                             "call load() first")
        started = time.perf_counter()
        with self.obs.tracer.trace("session.profile",
                                   app=self.app) as span:
            if self.store is not None:
                hits0, misses0 = self.store.hits, self.store.misses
                self._profiles = self.store.profile_or_load(
                    self.platform, self.images, self.kernel_image,
                    self.heuristics)
                cache = (self.store.hits - hits0,
                         self.store.misses - misses0)
            else:
                profiler = Profiler(self.platform, self.images,
                                    self.kernel_image, self.heuristics,
                                    telemetry=self.obs)
                self._profiles = profiler.profile_all()
                cache = (0, len(self.images))
            duration = time.perf_counter() - started
            exports = sum(len(img.exports) for img in self.images.values())
            span.set(libraries=len(self.images), exports=exports,
                     cache_hits=cache[0], cache_misses=cache[1])
        self.summaries.append(RunSummary(
            kind="profile", app=self.app, outcome="ok", duration=duration,
            cases=exports,
            cases_per_second=(exports / duration) if duration > 0 else 0.0,
            cache_hits=cache[0], cache_misses=cache[1]))
        if self.obs.enabled:
            self.obs.events.emit(
                "session.profile", app=self.app,
                libraries=len(self.images), exports=exports,
                seconds=round(duration, 6),
                cache_hits=cache[0], cache_misses=cache[1])
        return self

    @property
    def profiles(self) -> Dict[str, LibraryProfile]:
        """Profiles keyed by soname, computed on first access."""
        if self._profiles is None:
            self.profile()
        return self._profiles

    # -- campaigns ---------------------------------------------------------

    def cases(self, *, functions: Optional[Sequence[str]] = None,
              call_ordinals: Sequence[int] = (1,),
              max_codes_per_function: Optional[int] = None,
              fault_classes: Sequence[str] = ("return",),
              latency_ns: int = 1_000_000,
              fraction: float = 0.5,
              fail_rate: Optional[float] = None
              ) -> List[CampaignCase]:
        """Enumerate the systematic (function, fault action) space.

        ``fault_classes`` widens the matrix beyond error returns to
        latency (``delay``) and partial-I/O (``short-read`` /
        ``partial-write``) actions; ``fail_rate`` makes every cell a
        fail-rate plan case under a content-derived recorded seed.
        """
        return enumerate_cases(self.profiles, functions=functions,
                               call_ordinals=call_ordinals,
                               max_codes_per_function=max_codes_per_function,
                               fault_classes=fault_classes,
                               latency_ns=latency_ns, fraction=fraction,
                               fail_rate=fail_rate)

    def campaign(self, factory, *, app: Optional[str] = None,
                 functions: Optional[Sequence[str]] = None,
                 call_ordinals: Sequence[int] = (1,),
                 max_codes_per_function: Optional[int] = None,
                 fault_classes: Sequence[str] = ("return",),
                 latency_ns: int = 1_000_000,
                 fraction: float = 0.5,
                 fail_rate: Optional[float] = None,
                 cases: Optional[Iterable[CampaignCase]] = None,
                 snapshot: Optional[bool] = None,
                 resume: Optional[bool] = None,
                 guided: bool = False,
                 budget_cases: Optional[int] = None
                 ) -> CampaignReport:
        """Run a systematic fault campaign over the profiled space.

        ``factory`` receives each case's :class:`Controller` and returns
        the workload callable to monitor (the §5 developer-provided
        script).  Profiling happens automatically if it has not yet.
        The report's ordering matches the case order regardless of
        ``jobs``; its :class:`RunSummary` is appended to
        :attr:`summaries`.

        ``snapshot`` (default: the session's setting) enables
        common-prefix checkpoint replay when ``factory`` is a
        :class:`~repro.core.campaign.PrefixFactory` — the workload
        setup runs once per trigger function and each case replays
        only the post-trigger suffix, with results bit-identical to
        fresh runs.

        With ``results_dir`` configured on the session, every finished
        case is journaled durably as the run drains; ``resume``
        (default: the session's ``resume`` setting) additionally
        satisfies already-journaled cases from the store.  The store's
        campaign key digests the app, platform, profile and image
        content, heuristics and workload id, so a changed input re-runs
        rather than serving stale results.

        ``guided=True`` schedules adaptively instead of exhaustively:
        the enumerated cases seed a coverage-guided
        :class:`~repro.core.search.GuidedFrontier` that runs the
        highest-novelty cases first, prunes subsumed ones, and expands
        promising call ordinals; ``budget_cases`` caps the number of
        cases executed.  Guided scheduling searches the call-ordinal
        axis of :class:`~repro.core.campaign.FaultCase` cells: a plan
        case, ``fail_rate``'s included, is a :class:`ValueError`.
        """
        if snapshot is None:
            snapshot = self.snapshot
        if resume is None:
            resume = self.resume
        with self.obs.tracer.trace("session.campaign",
                                   app=app or self.app) as span:
            if cases is None:
                cases = self.cases(
                    functions=functions, call_ordinals=call_ordinals,
                    max_codes_per_function=max_codes_per_function,
                    fault_classes=fault_classes, latency_ns=latency_ns,
                    fraction=fraction, fail_rate=fail_rate)
            results_key = None
            if self.results is not None:
                results_key = {
                    "app": app or self.app,
                    "platform": self.platform,
                    "images": self.images,
                    "heuristics": self.heuristics,
                    "workload": getattr(factory, "workload_id", "") or "",
                }
            report = run_campaign(app or self.app, factory, self.platform,
                                  self.profiles, cases, jobs=self.jobs,
                                  timeout=self.timeout, backend=self.backend,
                                  snapshot=snapshot, telemetry=self.obs,
                                  results=self.results,
                                  results_key=results_key, resume=resume,
                                  guided=guided,
                                  budget_cases=budget_cases)
            span.set(cases=len(report.results), outcome=report.outcome())
        if self.store is not None and report.summary is not None:
            report.summary.cache_hits = self.store.hits
            report.summary.cache_misses = self.store.misses
        if report.summary is not None:
            self.summaries.append(report.summary)
        return report

    def controller(self, plan: Plan, *, seed: Optional[int] = None
                   ) -> Controller:
        """A :class:`Controller` over this session's profiles."""
        return Controller(self.platform, self.profiles, plan, seed=seed,
                          telemetry=self.obs)

    # -- observatory -------------------------------------------------------

    def matrix(self, campaign: Optional[str] = None):
        """The failure-mode matrix of a journaled campaign.

        Requires ``results_dir``; ``campaign`` is a key prefix
        (default: the store's only campaign).  Returns a
        :class:`~repro.core.results.FailureMatrix` whose ``to_json()``
        is byte-identical across backends and snapshot modes.
        """
        if self.results is None:
            raise ReproError("Session.matrix: no results_dir configured; "
                             "campaigns must be journaled to aggregate")
        from .core.results import matrix_from_store
        return matrix_from_store(self.results, campaign)

    def gate(self, spec: Union[str, Path, Mapping[str, Any]],
             *, campaign: Optional[str] = None,
             baseline: Optional[Mapping[str, Any]] = None):
        """Evaluate a robustness-gate spec against a journaled campaign.

        ``spec`` is a parsed gate document or a path to a YAML/JSON
        file; ``baseline`` a previously serialized matrix document for
        ``forbid_new`` gates.  Returns the
        :class:`~repro.core.results.GateReport` (check ``.ok``).
        """
        from .core.results import evaluate_gates, load_gate_spec
        if isinstance(spec, (str, Path)):
            spec = load_gate_spec(spec)
        matrix_doc = self.matrix(campaign).to_dict()
        return evaluate_gates(matrix_doc, spec, baseline=baseline)

    # -- run summary -------------------------------------------------------

    def telemetry(self) -> Dict[str, Any]:
        """Combined observability snapshot: events, metrics, spans.

        Empty (but schema-stable) when the session runs with the
        default no-op telemetry context.
        """
        return self.obs.snapshot()

    def summary(self) -> Dict[str, Any]:
        """Machine-readable summary of everything this session ran."""
        outcome = "ok"
        for stage in self.summaries:
            if stage.outcome != "ok":
                outcome = stage.outcome
        # the pool the last campaign ran on; profiling runs serially
        campaigns = [s for s in self.summaries if s.kind == "campaign"]
        return {
            "schema": "repro.run-summary/1",
            "app": self.app,
            "outcome": outcome,
            "duration": round(sum(s.duration for s in self.summaries), 6),
            "platform": self.platform.name,
            "jobs": campaigns[-1].jobs if campaigns else 1,
            "backend": campaigns[-1].backend if campaigns else "serial",
            "timeout": self.timeout,
            "stages": [s.to_dict() for s in self.summaries],
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True)

    def __repr__(self) -> str:     # pragma: no cover
        profiled = (len(self._profiles) if self._profiles is not None
                    else 0)
        return (f"Session(platform={self.platform.name!r}, "
                f"images={len(self.images)}, profiles={profiled}, "
                f"jobs={self.jobs})")
