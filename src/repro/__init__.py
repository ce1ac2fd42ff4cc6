"""repro — a full reproduction of *LFI: A Practical and General
Library-Level Fault Injector* (Marinescu & Candea, DSN 2009) on a
synthetic binary ecosystem.

Public API tour
===============

The single documented entry point is :class:`Session` — the paper's
two-command workflow (profile, then test) as one fluent object::

    from repro import Session, libc, LINUX_X86

    def workload(lfi):
        proc = lfi.make_process_with_stack()
        def run():
            fd = proc.libcall("open", proc.cstr("/tmp/x"), 1, 0)
            if proc.errno(fd) != 0:
                return 1        # tolerated the injected fault
            proc.libcall("close", fd)
            return 0
        return run

    session = Session(LINUX_X86, app="demo",
                      jobs=4, timeout=5.0, store="profile-cache/")
    report = (session
              .load(libc(LINUX_X86))
              .profile()                       # store-backed
              .campaign(workload, functions=["open", "close"]))
    print(report.render())
    print(session.summary_json())              # cases/sec, cache hits, ...

``jobs`` fans campaigns out per case over forked worker processes
(per-case timeouts turn hung workloads into ``hung`` results instead of
hung runs, and a worker that dies is a ``crashed`` case).  Profiling
always runs on the calling thread.  ``store`` caches profiles on disk,
keyed by image, kernel, and heuristic digests.

The lower-level pieces remain public and composable:

* :class:`Profiler` — §3 static analysis producing fault profiles.
* :class:`Controller` — §5 shim synthesis, triggers, injection, replay.
* :func:`random_plan` / :func:`exhaustive_plan` — §4 scenario generation.
* :class:`Kernel` / :class:`Process` — the simulated runtime.
* ``repro.core.campaign`` — systematic (function, errno) campaigns.
* ``repro.core.store.ProfileStore`` — the profile cache by itself.
* ``repro.core.exec`` — the worker pool / parallel engine underneath.
* ``repro.obs`` — structured events, metrics, spans.  Pass
  ``telemetry=Telemetry.to_file("run.jsonl")`` to :class:`Session` and
  inspect the run with ``repro stats run.jsonl``; the default is a
  no-op context with no measurable overhead (see docs/OBSERVABILITY.md).

See DESIGN.md for the system inventory, docs/API.md for the reference,
and EXPERIMENTS.md for the paper-vs-measured results of every table and
figure.
"""

from .core.controller import REPORT_SCHEMA, Controller, TestOutcome
from .core.exec import RunSummary, WorkerPool
from .core.profiler import HeuristicConfig, Profiler, profile_application
from .core.profiles import LibraryProfile
from .core.scenario import (DelayFault, FunctionTrigger,
                            PartialWriteFault, Plan, ReturnFault,
                            ShortReadFault, TargetScope,
                            exhaustive_plan, plan_from_xml,
                            plan_to_xml, random_plan)
from .core.store import ProfileStore
from .corpus import build_libc, libc
from .kernel import Kernel, build_kernel_image
from .obs import (EventLog, MetricsRegistry, NULL_TELEMETRY, SpanTracer,
                  Telemetry)
from .platform import (ALL_PLATFORMS, LINUX_X86, SOLARIS_SPARC, WINDOWS_X86,
                       Platform, platform_by_name)
from .runtime import Process
from .session import Session

__version__ = "9.0.0"

__all__ = [
    "Session",
    "Profiler", "profile_application", "HeuristicConfig", "LibraryProfile",
    "Controller", "TestOutcome", "REPORT_SCHEMA",
    "ProfileStore", "WorkerPool", "RunSummary",
    "Telemetry", "NULL_TELEMETRY", "EventLog", "MetricsRegistry",
    "SpanTracer",
    "Plan", "FunctionTrigger", "ReturnFault", "DelayFault",
    "ShortReadFault", "PartialWriteFault", "TargetScope",
    "random_plan", "exhaustive_plan", "plan_to_xml", "plan_from_xml",
    "Kernel", "Process", "build_kernel_image",
    "libc", "build_libc",
    "Platform", "LINUX_X86", "WINDOWS_X86", "SOLARIS_SPARC",
    "ALL_PLATFORMS", "platform_by_name",
    "__version__",
]
