"""Command-line interface — the paper's "two commands" experience (§6.1).

"The human effort involved in the basic use of LFI is small: it requires
issuing two commands, one for profiling and one for running the tests."

::

    python -m repro build-corpus --out ./sysroot
    python -m repro profile ./sysroot/libc.so.6.self \
        --kernel ./sysroot/kernel.self -o libc.profile.xml
    python -m repro generate-plan libc.profile.xml --mode random \
        --probability 0.1 -o plan.xml
    python -m repro run-demo pidgin --plan plan.xml --report report.txt

Systematic campaigns scale over a worker pool and cache profiles::

    python -m repro campaign minidb --jobs 4 --timeout 5 \
        --store ./profile-cache --summary-json summary.json

Plus binutils-style inspection (``objdump``, ``nm``, ``ldd``) and stub
source generation.  All artifacts are ordinary files: ``.self`` binaries,
XML profiles, XML plans, text logs.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import binfmt
from .binfmt import SharedObject
from .core.controller import Controller, generate_c_source
from .core.profiler import HeuristicConfig, Profiler
from .core.profiles import LibraryProfile
from .core.scenario import (exhaustive_plan, io_faults, plan_from_xml,
                            plan_to_xml, random_plan)
from .errors import ReproError
from .kernel import Kernel, build_kernel_image
from .obs import (EventLogHandler, FileSink, NULL_TELEMETRY, StderrSink,
                  Telemetry)
from .platform import LINUX_X86, platform_by_name


def _telemetry_from_args(args: argparse.Namespace) -> Telemetry:
    """The run's telemetry context, from the global flags.

    Plain runs stay on the no-op context (zero overhead); ``--log-json``
    streams structured events to a JSONL file and ``--verbose`` renders
    every event (down to debug) on stderr.  Both may be combined.
    """
    sinks = []
    if getattr(args, "log_json", None):
        sinks.append(FileSink(args.log_json))
    if getattr(args, "verbose", False):
        sinks.append(StderrSink(min_severity="debug"))
    if not sinks and not getattr(args, "trace_out", None):
        return NULL_TELEMETRY
    return Telemetry(sinks=sinks)


def _notice(args: argparse.Namespace, message: str, **fields) -> None:
    """Informational diagnostics: event log and/or stderr, never stdout."""
    tele = getattr(args, "telemetry", NULL_TELEMETRY)
    if tele.enabled:
        tele.events.emit("cli", message=message, **fields)
    if getattr(args, "quiet", False) or getattr(args, "verbose", False):
        return          # verbose: the stderr sink already rendered it
    print(message, file=sys.stderr)


def _error(args: argparse.Namespace, message: str) -> None:
    """Error diagnostics: always stderr (callers return nonzero)."""
    tele = getattr(args, "telemetry", NULL_TELEMETRY)
    if tele.enabled:
        tele.events.emit("cli", severity="error", message=message)
    if not getattr(args, "verbose", False):
        print(f"error: {message}", file=sys.stderr)


def _load_image(path: str) -> SharedObject:
    return SharedObject.from_bytes(Path(path).read_bytes())


def _load_profiles(paths: Sequence[str]) -> Dict[str, LibraryProfile]:
    profiles = {}
    for path in paths:
        profile = LibraryProfile.from_xml(Path(path).read_text())
        profiles[profile.soname] = profile
    return profiles


# -- subcommands ------------------------------------------------------------

def cmd_build_corpus(args: argparse.Namespace) -> int:
    """Compile libc/libapr/libaprutil + the kernel image to disk."""
    from .apps.apr import apr, aprutil
    from .corpus.libc import libc

    platform = platform_by_name(args.platform)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    images = [libc(platform).image, apr(platform).image,
              aprutil(platform).image, build_kernel_image(platform)]
    for image in images:
        name = (f"{image.soname}.self" if image.kind != "kernel"
                else "kernel.self")
        (out / name).write_bytes(image.to_bytes())
        _notice(args, f"wrote {out / name}  ({len(image.exports)} exports, "
                      f"{image.code_size()} bytes of code)",
                path=str(out / name), exports=len(image.exports))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Command 1: statically profile a library binary."""
    image = _load_image(args.library)
    platform = platform_by_name(args.platform)
    libraries = {image.soname: image}
    for extra in args.with_library or []:
        dep = _load_image(extra)
        libraries[dep.soname] = dep
    kernel_image = _load_image(args.kernel) if args.kernel else None
    heuristics = (HeuristicConfig.all_enabled() if args.heuristics
                  else HeuristicConfig.default())
    telemetry = getattr(args, "telemetry", NULL_TELEMETRY)
    if args.store:
        from .core.store import ProfileStore
        store = ProfileStore(args.store, telemetry=telemetry)
        profiles = store.profile_or_load(platform, libraries,
                                         kernel_image, heuristics,
                                         jobs=args.jobs)
        profile = profiles[image.soname]
        origin = "cache" if store.hits else "analysis"
    else:
        profiler = Profiler(platform, libraries, kernel_image, heuristics,
                            telemetry=telemetry)
        profile = profiler.profile_library(image.soname, jobs=args.jobs)
        origin = "analysis"
    xml = profile.to_xml()
    if args.output:
        Path(args.output).write_text(xml)
        _notice(args, f"profiled {image.soname}: "
                      f"{len(profile.functions)} functions via {origin} "
                      f"-> {args.output}",
                soname=image.soname, functions=len(profile.functions),
                origin=origin)
    else:
        print(xml)
    return 0


def cmd_generate_plan(args: argparse.Namespace) -> int:
    profiles = _load_profiles(args.profiles)
    if args.mode == "exhaustive":
        plan = exhaustive_plan(profiles, functions=args.function or None)
    elif args.mode == "random":
        plan = random_plan(profiles, probability=args.probability,
                           seed=args.seed,
                           functions=args.function or None)
    else:   # io preset
        libc_profile = profiles.get("libc.so.6")
        if libc_profile is None:
            _error(args, "the io preset needs a libc profile")
            return 2
        plan = io_faults(libc_profile, probability=args.probability,
                         seed=args.seed)
    xml = plan_to_xml(plan)
    if args.output:
        Path(args.output).write_text(xml)
        _notice(args, f"{plan.trigger_count()} triggers over "
                      f"{len(plan.functions())} functions -> {args.output}",
                triggers=plan.trigger_count())
    else:
        print(xml)
    return 0


def cmd_stub_source(args: argparse.Namespace) -> int:
    plan = plan_from_xml(Path(args.plan).read_text())
    platform = platform_by_name(args.platform)
    source = generate_c_source(plan.functions(), platform)
    if args.output:
        Path(args.output).write_text(source)
        _notice(args, f"stub source for {len(plan.functions())} "
                      f"functions -> {args.output}")
    else:
        print(source)
    return 0


def cmd_profile_diff(args: argparse.Namespace) -> int:
    """Compare two versions' fault profiles (the §1 library-drift story)."""
    from .core.diff import diff_profiles, focus_functions

    old = LibraryProfile.from_xml(Path(args.old).read_text())
    new = LibraryProfile.from_xml(Path(args.new).read_text())
    diff = diff_profiles(old, new)
    print(diff.render())
    focus = focus_functions(diff)
    if focus:
        print("\nsuggested post-upgrade faultload targets: "
              + ", ".join(focus))
    return 0 if diff.is_compatible else 1


def cmd_objdump(args: argparse.Namespace) -> int:
    image = _load_image(args.library)
    if args.function:
        print(binfmt.objdump_function(image, args.function))
    else:
        print(binfmt.objdump(image))
    return 0


def cmd_nm(args: argparse.Namespace) -> int:
    print(binfmt.nm(_load_image(args.library)))
    return 0


def cmd_ldd(args: argparse.Namespace) -> int:
    image = _load_image(args.library)
    available = {}
    for path in Path(args.path).glob("*.self"):
        dep = SharedObject.from_bytes(path.read_bytes())
        available[dep.soname] = dep
    for module in binfmt.ldd(image, available):
        print(f"    {module.soname}")
    return 0


def cmd_run_demo(args: argparse.Namespace) -> int:
    """Command 2: run a canned program under test with a faultload."""
    platform = platform_by_name(args.platform)
    plan = plan_from_xml(Path(args.plan).read_text())
    from .corpus.libc import libc
    profiles: Dict[str, LibraryProfile] = {}
    if args.profiles:
        profiles = _load_profiles(args.profiles)
    lfi = Controller(platform, profiles, plan, seed=args.seed,
                     telemetry=getattr(args, "telemetry", NULL_TELEMETRY))

    if args.app == "pidgin":
        outcome = _demo_pidgin(lfi, platform)
    elif args.app == "minidb":
        outcome = _demo_minidb(lfi, platform)
    else:
        outcome = _demo_miniweb(lfi, platform)

    print(f"outcome: {outcome.status}"
          + (f" ({outcome.detail})" if outcome.detail else ""))
    print(f"injections: {outcome.injections}; trigger evaluations: "
          f"{lfi.evaluations}")
    if args.report:
        Path(args.report).write_text(lfi.logbook.render() + "\n")
        _notice(args, f"log -> {args.report}")
    if args.replay_out:
        Path(args.replay_out).write_text(outcome.replay_xml)
        _notice(args, f"replay script -> {args.replay_out}")
    return 1 if outcome.crashed else 0


def _demo_pidgin(lfi: Controller, platform):
    from .apps.minipidgin import MiniPidgin

    def session():
        app = MiniPidgin(Kernel(os_name=platform.os), platform,
                         controller=lfi)
        app.login_and_chat([f"buddy{i}.example.org" for i in range(12)])
        return 0

    return lfi.run_test(session, test_id="pidgin")


def _demo_minidb(lfi: Controller, platform):
    from .apps.minidb import MiniDB
    from .apps.workloads import SysbenchOltpDriver

    def session():
        db = MiniDB(Kernel(os_name=platform.os), platform, controller=lfi)
        driver = SysbenchOltpDriver(db)
        result = driver.run(20, read_only=False)
        return 1 if result.errors else 0

    return lfi.run_test(session, test_id="minidb")


def _demo_miniweb(lfi: Controller, platform):
    from .apps.miniweb import MiniWeb
    from .apps.workloads import ApacheBenchDriver

    def session():
        server = MiniWeb(Kernel(os_name=platform.os), platform,
                         controller=lfi)
        result = ApacheBenchDriver(server).run_static(20)
        return 1 if result.failures else 0

    return lfi.run_test(session, test_id="miniweb")


def cmd_campaign(args: argparse.Namespace) -> int:
    """Systematic (function, errno) campaign over a worker pool."""
    from .corpus.libc import libc
    from .session import Session

    platform = platform_by_name(args.platform)
    heuristics = (HeuristicConfig.all_enabled() if args.heuristics
                  else HeuristicConfig.default())
    telemetry = getattr(args, "telemetry", NULL_TELEMETRY)
    session = Session(platform, app=args.app, jobs=args.jobs,
                      timeout=args.timeout, backend=args.backend,
                      snapshot=args.snapshot,
                      store=args.store, heuristics=heuristics,
                      telemetry=telemetry,
                      results_dir=args.results_dir, resume=args.resume)
    session.load(libc(platform))
    report = session.campaign(
        _campaign_factory(args.app, platform),
        functions=args.function or None,
        call_ordinals=tuple(args.call_ordinal or [1]),
        max_codes_per_function=args.max_codes,
        fault_classes=tuple(args.fault_class or ["return"]),
        latency_ns=args.latency_ns,
        fail_rate=args.fail_rate,
        guided=args.guided,
        budget_cases=args.budget_cases)

    if report.resumed is not None and report.resumed["skipped"]:
        _notice(args, f"resumed: {report.resumed['skipped']} cases from "
                      f"the result journal, {report.resumed['replayed']} "
                      f"(re)run", **report.resumed)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
        summary = report.summary
        if summary is not None:
            print(f"\n{summary.cases} cases in {summary.duration:.2f}s "
                  f"({summary.cases_per_second:.1f} cases/sec, "
                  f"jobs={summary.jobs}, backend={summary.backend}, "
                  f"utilization={summary.worker_utilization:.0%})")
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n")
        _notice(args, f"report -> {args.report}")
    if args.summary_json:
        Path(args.summary_json).write_text(session.summary_json() + "\n")
        _notice(args, f"run summary -> {args.summary_json}")
    if getattr(args, "trace_out", None):
        spans = telemetry.tracer.to_dicts() if telemetry.enabled else []
        from .obs.tracing import TRACE_SCHEMA
        Path(args.trace_out).write_text(json.dumps(
            {"schema": TRACE_SCHEMA, "spans": spans},
            indent=2, sort_keys=True) + "\n")
        _notice(args, f"span tree -> {args.trace_out}")
    return 0 if report.outcome() == "ok" else 1


def cmd_triage(args: argparse.Namespace) -> int:
    """Deduplicate a journaled campaign's failures into ranked buckets."""
    from .core.results import ResultStore, triage_records

    store = ResultStore(args.results_dir,
                        telemetry=getattr(args, "telemetry", NULL_TELEMETRY))
    if args.list:
        campaigns = store.campaigns()
        if not campaigns:
            _notice(args, f"no campaigns recorded in {args.results_dir}")
        for entry in campaigns:
            outcomes = ", ".join(f"{k}={n}" for k, n
                                 in sorted(entry["outcomes"].items()))
            print(f"{entry['campaign'][:12]}  {entry['app'] or '?':<10} "
                  f"{entry['cases']:>5} cases  ({outcomes})")
        return 0
    key = store.resolve(args.campaign)
    records = store.load(key)
    journal = store.open_campaign(key)
    report = triage_records(key, records.values(), app=journal.app,
                            include_errors=args.include_errors)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    if args.replay_dir:
        out = Path(args.replay_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = 0
        for i, bucket in enumerate(report.buckets, 1):
            if not bucket.replay_xml:
                continue
            path = out / f"bucket-{i:02d}-{bucket.key}.xml"
            path.write_text(bucket.replay_xml)
            written += 1
        _notice(args, f"{written} replay plans -> {args.replay_dir}",
                replays=written)
    return 0 if not report.buckets else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Aggregate a journaled campaign into the failure-mode matrix."""
    from .core.results import ResultStore, matrix_from_store
    from .obs.report import render_html_report

    store = ResultStore(args.results_dir,
                        telemetry=getattr(args, "telemetry", NULL_TELEMETRY))
    key = store.resolve(args.campaign)
    matrix = matrix_from_store(store, key)
    if args.json:
        print(matrix.to_json())
    else:
        print(matrix.render())
    if args.out:
        Path(args.out).write_text(matrix.to_json() + "\n")
        _notice(args, f"matrix JSON -> {args.out}")
    if args.html:
        records = store.load(key)
        Path(args.html).write_text(
            render_html_report(matrix, records))
        _notice(args, f"HTML report -> {args.html}")
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Live view of a running journaled campaign."""
    from .obs.report import watch_journal

    try:
        return watch_journal(args.journal, campaign=args.campaign,
                             interval=args.interval, once=args.once)
    except KeyboardInterrupt:
        return 0


def cmd_gate(args: argparse.Namespace) -> int:
    """Evaluate declarative robustness gates against a campaign matrix."""
    from .core.results import (ResultStore, evaluate_gates, load_gate_spec,
                               matrix_from_store)

    spec = load_gate_spec(args.spec)
    baseline = None
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
    store = ResultStore(args.results_dir,
                        telemetry=getattr(args, "telemetry", NULL_TELEMETRY))
    matrix = matrix_from_store(store, store.resolve(args.campaign))
    report = evaluate_gates(matrix.to_dict(), spec, baseline=baseline)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n")
        _notice(args, f"gate report -> {args.report}")
    return 0 if report.ok else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """Reconstruct run statistics from a ``--log-json`` event stream."""
    from .obs.events import read_events, summarize_events
    from .obs.metrics import MetricsRegistry
    from .obs.tracing import render_span_dicts

    events = read_events(args.events)
    if not events:
        _error(args, f"no repro events found in {args.events}")
        return 1
    summary = summarize_events(events)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    kinds = ", ".join(f"{k}={n}" for k, n in sorted(summary["kinds"].items()))
    print(f"{summary['events']} events ({kinds})")
    if summary["cases"]:
        outcomes = ", ".join(f"{k}={n}" for k, n
                             in sorted(summary["outcomes"].items()))
        print(f"cases: {summary['cases']} ({outcomes})")
    if summary["injections"]:
        print("injections by function:")
        for function, count in sorted(summary["injections"].items()):
            per = summary["injections_by_errno"].get(function, {})
            detail = ", ".join(f"{errno}={n}"
                               for errno, n in sorted(per.items()))
            print(f"  {function:<16} {count:>4}  ({detail})")
    cache = summary["cache"]
    if cache["hits"] or cache["misses"]:
        ratio = cache["hit_ratio"]
        print(f"profile cache: {cache['hits']} hits, "
              f"{cache['misses']} misses"
              + (f" ({ratio:.0%} hit ratio)" if ratio is not None else ""))
    code = summary.get("code_cache") or {}
    if code.get("blocks_compiled") or code.get("hits"):
        ratio = code.get("hit_ratio")
        line = (f"code cache: {code['hits']} hits, "
                f"{code['blocks_compiled']} blocks compiled"
                + (f" ({ratio:.0%} hit ratio)" if ratio is not None
                   else ""))
        if code.get("evictions"):
            line += f", {code['evictions']} evicted"
        print(line)
    durable = summary.get("results") or {}
    if durable.get("campaigns"):
        print(f"result store: {durable['skipped']} cases resumed from "
              f"the journal, {durable['replayed']} executed "
              f"({durable['campaigns']} journaled campaign(s))")
    snaps = summary.get("snapshots") or {}
    if snaps.get("taken") or snaps.get("restored"):
        restored = snaps.get("restored", 0)
        avg = (snaps["dirty_pages"] / restored) if restored else 0.0
        print(f"snapshots: {snaps.get('taken', 0)} taken, "
              f"{restored} restores, "
              f"{snaps.get('dirty_pages', 0)} dirty pages restored "
              f"(avg {avg:.1f}/restore, "
              f"{snaps.get('restored_bytes', 0)} bytes, "
              f"{snaps.get('restore_seconds', 0.0):.3f}s restoring)")
    latency = summary.get("latency")
    if latency:
        quantiles = ", ".join(
            f"{key}={latency[key] / 1e6:.2f}ms"
            for key in ("p50", "p90", "p99") if key in latency)
        print(f"request latency: {int(latency['count'])} requests, "
              f"mean {latency['mean'] / 1e6:.2f}ms ({quantiles})")
    faults = summary.get("faults") or {}
    if faults.get("virtual_delay_ns"):
        print(f"injected latency: "
              f"{faults['virtual_delay_ns'] / 1e6:.2f}ms of virtual "
              f"delay added to the kernel clock")
    if faults.get("partial_io_bytes"):
        print(f"partial I/O: {int(faults['partial_io_bytes'])} bytes "
              f"trimmed off transfer counts")
    if args.spans:
        rendered = render_span_dicts(summary["spans"])
        if rendered:
            print("spans:")
            print(rendered)
    if args.metrics and summary["metrics"]:
        print(MetricsRegistry.restore(summary["metrics"]).render_text())
    return 0


def _campaign_factory(app: str, platform):
    """Per-case workload factories (smaller than the run-demo ones so
    exhaustive campaigns stay quick).

    Each is a :class:`~repro.core.campaign.PrefixFactory` — ``setup``
    boots the program under test, ``run`` drives the monitored
    workload — so ``campaign --snapshot`` can checkpoint the booted
    guest once per trigger function and replay only the workload
    suffix per fault case.  Without snapshots the factory behaves as a
    plain session factory (setup + run, fresh per case).
    """
    from .core.campaign import PrefixFactory

    if app == "pidgin":
        from .apps.minipidgin import MiniPidgin

        def setup(lfi):
            return MiniPidgin(Kernel(os_name=platform.os), platform,
                              controller=lfi)

        def run(lfi, client):
            client.login_and_chat(
                [f"buddy{i}.example.org" for i in range(4)])
            return 0
        return PrefixFactory(setup, run, workload_id="pidgin-login-4")
    if app == "minidb":
        from .apps.minidb import DbError, MiniDB

        def setup(lfi):
            return MiniDB(Kernel(os_name=platform.os), platform,
                          controller=lfi)

        def run(lfi, db):
            try:
                db.execute("create table t k v")
                for i in range(3):
                    db.execute(f"insert into t {i} value{i}")
                db.execute("select from t where k 1")
                db.checkpoint()
            except DbError:
                return 1      # graceful: the engine reported the fault
            return 0
        return PrefixFactory(setup, run, workload_id="minidb-basic")

    from .apps.miniweb import MiniWeb
    from .apps.workloads import ApacheBenchDriver

    def setup(lfi):
        return MiniWeb(Kernel(os_name=platform.os), platform,
                       controller=lfi)

    def run(lfi, server):
        result = ApacheBenchDriver(server).run_static(6)
        return 1 if result.failures else 0
    return PrefixFactory(setup, run, workload_id="miniweb-static-6")


# -- parser -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LFI library-level fault injector (DSN'09 "
                    "reproduction)")
    # global observability flags live on the root parser only: defining
    # them on subparsers too would reset the root's values (argparse
    # applies subparser defaults last)
    parser.add_argument("--log-json", metavar="PATH",
                        help="stream structured JSONL events to PATH "
                             "(inspect with 'repro stats PATH')")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="render every event (down to debug) on stderr")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress informational diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--platform", default=LINUX_X86.name,
                       help="linux-x86 | windows-x86 | solaris-sparc")

    p = sub.add_parser("build-corpus",
                       help="compile libc/libapr/kernel images to disk")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_corpus)

    p = sub.add_parser("profile", help="statically profile a library")
    common(p)
    p.add_argument("library", help="path to a .self image")
    p.add_argument("--kernel", help="kernel image for syscall analysis")
    p.add_argument("--with-library", action="append",
                   help="additional dependency images")
    p.add_argument("--heuristics", action="store_true",
                   help="enable the unsound §3.1 profile filters")
    p.add_argument("--store",
                   help="profile-cache directory (reuse across programs, "
                        "re-analyze only on library updates)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel per-export analysis workers")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("campaign",
                       help="systematic per-(function, errno) fault "
                            "campaign against a demo app")
    common(p)
    p.add_argument("app", choices=("pidgin", "minidb", "miniweb"))
    p.add_argument("--function", action="append",
                   help="restrict to these libc functions")
    p.add_argument("--call-ordinal", action="append", type=int,
                   help="inject at these call ordinals (default: 1)")
    p.add_argument("--max-codes", type=int, default=None,
                   help="cap error codes per function")
    p.add_argument("--fault-class", action="append",
                   choices=("return", "delay", "short-read",
                            "partial-write"),
                   help="fault action families to enumerate (repeat; "
                        "default: return)")
    p.add_argument("--latency-ns", type=int, default=1_000_000,
                   help="virtual latency per 'delay' injection "
                        "(default: 1ms)")
    p.add_argument("--fail-rate", type=float, default=None,
                   help="make every case probabilistic at this rate "
                        "under a recorded seed instead of firing at an "
                        "exact call ordinal")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel case workers (0 = one per CPU)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-case timeout in seconds (hung cases are "
                        "reaped and reported as 'hung')")
    p.add_argument("--backend", choices=("serial", "thread", "process"),
                   default=None,
                   help="worker backend (default: auto; process adds "
                        "crash isolation)")
    p.add_argument("--snapshot", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="checkpoint the booted workload once per trigger "
                        "function and replay only the post-trigger suffix "
                        "per case (results stay bit-identical)")
    p.add_argument("--store",
                   help="profile-cache directory")
    p.add_argument("--results-dir", metavar="DIR",
                   help="durable result store: journal every finished "
                        "case so interrupted runs can resume and "
                        "'repro triage' can dissect them")
    p.add_argument("--resume", action="store_true",
                   help="skip cases already journaled in --results-dir "
                        "under the same campaign key")
    p.add_argument("--guided", action="store_true",
                   help="coverage-guided adaptive scheduling: run the "
                        "highest-novelty cases first, prune subsumed "
                        "ones, expand promising call ordinals "
                        "(incompatible with --fail-rate)")
    p.add_argument("--budget-cases", type=int, default=None,
                   metavar="N",
                   help="with --guided: stop after scheduling N cases")
    p.add_argument("--heuristics", action="store_true",
                   help="enable the unsound §3.1 profile filters")
    p.add_argument("--json", action="store_true",
                   help="print the campaign report as JSON")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--summary-json",
                   help="write the machine-readable run summary here")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write the run's span tree here as JSON")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser("triage",
                       help="deduplicate a journaled campaign's failures "
                            "into ranked buckets with replay plans")
    p.add_argument("results_dir",
                   help="result store directory (campaign --results-dir)")
    p.add_argument("--campaign", metavar="PREFIX", default=None,
                   help="campaign key prefix (default: the store's only "
                        "campaign)")
    p.add_argument("--list", action="store_true",
                   help="list the store's campaigns and exit")
    p.add_argument("--include-errors", action="store_true",
                   help="also bucket graceful error-exit outcomes")
    p.add_argument("--replay-dir", metavar="DIR",
                   help="write one replay plan XML per bucket here")
    p.add_argument("--json", action="store_true",
                   help="print the triage report as JSON")
    p.set_defaults(fn=cmd_triage)

    p = sub.add_parser("report",
                       help="aggregate a journaled campaign into the "
                            "failure-mode matrix")
    p.add_argument("results_dir",
                   help="result store directory (campaign --results-dir)")
    p.add_argument("--campaign", metavar="PREFIX", default=None,
                   help="campaign key prefix (default: the store's only "
                        "campaign)")
    p.add_argument("--json", action="store_true",
                   help="print the repro.matrix/1 document instead of "
                        "the text table")
    p.add_argument("--out", metavar="PATH",
                   help="write the matrix JSON here (the gate baseline "
                        "artifact)")
    p.add_argument("--html", metavar="PATH",
                   help="write a self-contained HTML report here "
                        "(per-cell drilldown, replay plans, "
                        "coverage-novelty ranking)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("watch",
                       help="live view of a running journaled campaign")
    p.add_argument("journal",
                   help="journal.jsonl, a campaign directory, or a "
                        "result store root")
    p.add_argument("--campaign", metavar="PREFIX", default=None,
                   help="campaign key prefix when pointing at a store")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between polls (default: 1)")
    p.add_argument("--once", action="store_true",
                   help="render one frame and exit (scripting/CI)")
    p.set_defaults(fn=cmd_watch)

    p = sub.add_parser("gate",
                       help="evaluate declarative robustness gates "
                            "against a campaign matrix (exits nonzero "
                            "on regression)")
    p.add_argument("spec", help="gate spec (YAML or JSON)")
    p.add_argument("results_dir",
                   help="result store directory (campaign --results-dir)")
    p.add_argument("--campaign", metavar="PREFIX", default=None,
                   help="campaign key prefix (default: the store's only "
                        "campaign)")
    p.add_argument("--baseline", metavar="PATH",
                   help="baseline repro.matrix/1 JSON for forbid_new "
                        "gates (from 'repro report --out')")
    p.add_argument("--json", action="store_true",
                   help="print the gate report as JSON")
    p.add_argument("--report", metavar="PATH",
                   help="write the gate report JSON here")
    p.set_defaults(fn=cmd_gate)

    p = sub.add_parser("stats",
                       help="reconstruct run statistics from a "
                            "--log-json event stream")
    p.add_argument("events", help="JSONL event file from --log-json")
    p.add_argument("--json", action="store_true",
                   help="print the reconstructed summary as JSON")
    p.add_argument("--metrics", action="store_true",
                   help="render the final metrics snapshot "
                        "(Prometheus text format)")
    p.add_argument("--spans", action="store_true",
                   help="render the recorded span trees")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("generate-plan", help="build a fault scenario")
    p.add_argument("profiles", nargs="+", help="profile XML files")
    p.add_argument("--mode", choices=("exhaustive", "random", "io"),
                   default="random")
    p.add_argument("--probability", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--function", action="append",
                   help="restrict to these functions")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_generate_plan)

    p = sub.add_parser("stub-source",
                       help="emit the C interceptor stubs for a plan")
    common(p)
    p.add_argument("plan")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_stub_source)

    p = sub.add_parser("profile-diff",
                       help="fault-surface drift between two profiles")
    p.add_argument("old", help="old version's profile XML")
    p.add_argument("new", help="new version's profile XML")
    p.set_defaults(fn=cmd_profile_diff)

    p = sub.add_parser("objdump", help="disassemble a .self image")
    p.add_argument("library")
    p.add_argument("--function")
    p.set_defaults(fn=cmd_objdump)

    p = sub.add_parser("nm", help="list symbols of a .self image")
    p.add_argument("library")
    p.set_defaults(fn=cmd_nm)

    p = sub.add_parser("ldd", help="resolve a library's dependencies")
    p.add_argument("library")
    p.add_argument("--path", default=".",
                   help="directory of .self images")
    p.set_defaults(fn=cmd_ldd)

    p = sub.add_parser("run-demo",
                       help="run a demo app under fault injection")
    common(p)
    p.add_argument("app", choices=("pidgin", "minidb", "miniweb"))
    p.add_argument("--plan", required=True)
    p.add_argument("--profiles", nargs="*", default=[])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", help="write the injection log here")
    p.add_argument("--replay-out", help="write the replay script here")
    p.set_defaults(fn=cmd_run_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.telemetry = _telemetry_from_args(args)
    handler = None
    if args.telemetry.enabled:
        # bridge stdlib logging into the same structured event stream
        handler = EventLogHandler(args.telemetry.events)
        logging.getLogger().addHandler(handler)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        _error(args, str(exc))
        return 2
    except BrokenPipeError:
        return 0      # e.g. `repro objdump ... | head`
    except ReproError as exc:
        _error(args, str(exc))
        return 1
    finally:
        if handler is not None:
            logging.getLogger().removeHandler(handler)
        if args.telemetry.enabled:
            args.telemetry.finalize()
            args.telemetry.close()


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
