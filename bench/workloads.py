"""The benchmark's four workloads.

Each workload is driven closed-loop by one client — one campaign, one
database client or one HTTP client — and sees only the inputs its seed
generates.  ``setup()`` profiles the libraries, builds the inputs and
runs one untimed warm-up round, which also becomes the run's reference;
``run_round()`` executes one timed round; ``finish()`` runs whatever
untimed cross-check the workload needs.

``small=True`` shrinks every round to a few operations, for the tests.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

DEFAULT_SEED = 20090629

#: call ordinals every campaign case list covers
ORDINALS = (1, 2, 3)

#: passthrough triggers armed by the interposed serving runs (§6.4's
#: largest plan), spread over every library function the workload calls
TRIGGERS = 1000

#: plain (no-LFI) runs of a campaign's workload timed per round, the
#: base of the campaign ``slowdown_x``
PLAIN_RUNS = 40


def _digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Round:
    """What one timed round produced."""

    wall: float                       # seconds of the measured work
    samples: List[float]              # per-operation latency, seconds
    digest: str                       # the round's output digest
    failed: int = 0
    #: seconds of the same operations without LFI (serving) or of plain
    #: workload runs (campaigns): the base of ``slowdown_x``
    base: List[float] = field(default_factory=list)
    #: latency samples by operation kind (serving)
    kinds: Dict[str, List[float]] = field(default_factory=dict)
    executed: int = 0
    replays: int = 0


class _Workload:
    name = ""
    #: operations one round is expected to execute
    ops_per_round = 0

    def __init__(self, seed: int, workdir: Path, *, small: bool = False,
                 tracer=None) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.small = small
        self.tracer = tracer
        self.reference: Dict[str, Any] = {}
        self.reference_digest = ""
        self.warmup_seconds = 0.0
        self.enumerated = 0

    def span(self, name: str, op: Optional[str] = None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, op)

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def finish(self) -> int:
        """Untimed cross-checks after the timed rounds; returns the
        number of operations that failed them."""
        return 0

    def slowdown(self, rounds: List[Round]) -> float:
        """``slowdown_x`` of a run's rounds."""
        raise NotImplementedError

    def _warm_up(self) -> None:
        started = time.perf_counter()
        first = self.run_round(-1)
        self.warmup_seconds = time.perf_counter() - started
        self.reference_digest = first.digest
        self.warmup_failed = first.failed


# -- campaigns -----------------------------------------------------------------


class CampaignWorkload(_Workload):
    """One systematic campaign per round over the seeded case list."""

    app = ""
    options: Dict[str, Any] = {}

    def setup(self) -> None:
        from repro.cli import _campaign_factory
        from repro.core.campaign import enumerate_cases
        from repro.core.profiler import Profiler
        from repro.corpus.libc import libc
        from repro.kernel import build_kernel_image
        from repro.platform import LINUX_X86

        self.platform = LINUX_X86
        image = libc(LINUX_X86).image
        self.profiles = Profiler(LINUX_X86, {image.soname: image},
                                 build_kernel_image(LINUX_X86)).profile_all()
        cases = enumerate_cases(self.profiles, call_ordinals=ORDINALS)
        if self.small:
            cases = cases[::len(cases) // 12][:12]
        random.Random(self.seed).shuffle(cases)
        self.cases = cases
        self.enumerated = len(cases)
        self.factory = _campaign_factory(self.app, LINUX_X86)
        self._warm_up()
        self.ops_per_round = len(self.reference)

    def _campaign(self, cases, index: int, **options):
        from repro.core.campaign import run_campaign
        from repro.core.results import ResultStore

        store = self.workdir / f"round-{index}"
        try:
            with self.span("core.exec.engine"):
                started = time.perf_counter()
                report = run_campaign(self.app, self.factory, self.platform,
                                      self.profiles, cases,
                                      results=ResultStore(store), **options)
                wall = time.perf_counter() - started
        finally:
            shutil.rmtree(store, ignore_errors=True)
        return report, wall

    def _disagreements(self, rows: Dict[str, List[Any]],
                       reference: Dict[str, List[Any]], where: str) -> int:
        """Count (and report on stderr) cases that differ from the
        reference, including cases only one side ran."""
        bad = sorted(case_id for case_id in set(rows) | set(reference)
                     if rows.get(case_id) != reference.get(case_id))
        for case_id in bad:
            print(f"{self.name}: {where}: {case_id} gave "
                  f"{rows.get(case_id)}, reference {reference.get(case_id)}",
                  file=sys.stderr)
        return len(bad)

    @staticmethod
    def _rows(report) -> Dict[str, List[Any]]:
        return {r.case.case_id(): [r.outcome.status, r.outcome_class,
                                   r.instructions, r.output]
                for r in report.results}

    def _plain_runs(self, count: int) -> List[float]:
        """The workload without LFI: no controller, no shim."""
        seconds = []
        for _ in range(count):
            with self.span("bench.harness"):
                started = time.perf_counter()
                self.factory.run(None, self.factory.setup(None))
                seconds.append(time.perf_counter() - started)
        return seconds

    def slowdown(self, rounds: List[Round]) -> float:
        """Campaign wall time per case over one plain workload run.

        One plain run takes milliseconds, so a round's own plain runs
        sample the host's speed over a far shorter window than its
        campaign; the base pools every plain run of the run instead.
        """
        per_case = median([r.wall / r.executed for r in rounds])
        return per_case / median([b for r in rounds for b in r.base])

    def run_round(self, index: int) -> Round:
        # plain runs bracket the campaign, so both sides of slowdown_x
        # share the host's speed of the moment; each half starts from a
        # collected heap, as the campaign does
        half = 1 if self.small else PLAIN_RUNS // 2
        base = self._plain_runs(half)
        report, wall = self._campaign(self.cases, index, **self.options)
        gc.collect()
        base += self._plain_runs(half)
        rows = self._rows(report)
        if index < 0:
            self.reference = rows
            self.executed_cases = [r.case for r in report.results]
        # Outcome classes, "crashed" tasks included, are results the
        # campaign exists to find; a case fails when it disagrees with
        # the reference.  A worker that dies or cannot return its result
        # only does so under the pool, so the serial reference exposes
        # it, while an exception the program raises on every run is a
        # crash it reproduces.
        failed = self._disagreements(rows, self.reference, f"round {index}")
        return Round(wall=wall,
                     samples=[r.seconds for r in report.results],
                     digest=_digest(sorted(rows.items())),
                     failed=failed,
                     base=base,
                     executed=len(rows),
                     replays=sum(1 for r in report.results if r.snapshot))


class CampaignMinidb(CampaignWorkload):
    """Exhaustive, fresh, serial: per-case fixed costs dominate."""

    name = "campaign-minidb"
    app = "minidb"
    options: Dict[str, Any] = {}


class CampaignWebGuided(CampaignWorkload):
    """Every accelerator on: guided search, snapshots, a forked worker
    per case."""

    name = "campaign-web-guided"
    app = "miniweb"
    # One worker: with two, the pool's supervisor threads race on
    # waitpid (a thread starting a worker reaps its sibling's exited
    # child), and a case is now and then misreported as hung.
    options = {"guided": True, "snapshot": True, "backend": "process",
               "jobs": 1}

    def finish(self) -> int:
        # the equivalence suites' ground truth: a fresh, serial,
        # exhaustive rerun of exactly the cases the guided rounds ran
        report, _ = self._campaign(self.executed_cases, -2)
        return self._disagreements(self.reference, self._rows(report),
                                   "fresh serial rerun")


# -- serving -------------------------------------------------------------------


def _exact_passthrough(call_counts: Dict[str, int], codes, seed: int):
    """A passthrough plan of exactly :data:`TRIGGERS` triggers over the
    called functions, most-called first."""
    from repro.core.scenario import passthrough_plan
    from repro.core.scenario.model import Plan

    called = sorted((name for name, n in call_counts.items() if n),
                    key=lambda name: (-call_counts[name], name))
    per, extra = divmod(TRIGGERS, len(called))
    plan = Plan(name="passthrough", seed=seed)
    for rank, name in enumerate(called):
        plan.triggers.extend(passthrough_plan(
            {name: codes.get(name, [])},
            per_function=per + (rank < extra)).triggers)
    return plan


class ServingWorkload(_Workload):
    """Each round issues the seeded op stream against a fresh instance
    without LFI, then the same stream against a fresh instance under the
    1,000-trigger passthrough plan."""

    def images(self) -> Dict[str, Any]:
        raise NotImplementedError

    def stream(self, rng: random.Random) -> List[Tuple[str, Any]]:
        raise NotImplementedError

    def build(self, controller) -> Any:
        raise NotImplementedError

    def execute(self, instance, op) -> Tuple[bytes, bool]:
        raise NotImplementedError

    def vfs(self, instance):
        raise NotImplementedError

    def setup(self) -> None:
        from repro.core.controller import Controller
        from repro.core.profiler import Profiler
        from repro.core.scenario import (error_codes_from_profile,
                                         passthrough_plan)
        from repro.kernel import build_kernel_image
        from repro.platform import LINUX_X86

        self.platform = LINUX_X86
        self.profiles = Profiler(LINUX_X86, self.images(),
                                 build_kernel_image(LINUX_X86)).profile_all()
        self.ops = self.stream(random.Random(self.seed))
        self.ops_per_round = 2 * len(self.ops)      # both passes
        codes = {fn: error_codes_from_profile(p.functions[fn])
                 for p in self.profiles.values() for fn in p.functions}
        census = Controller(LINUX_X86, self.profiles, passthrough_plan(codes))
        instance = self.build(census)
        for op in self.ops:
            self.execute(instance, op)
        self.plan = _exact_passthrough(census.engine.call_counts, codes,
                                       self.seed)
        self._warm_up()

    def slowdown(self, rounds: List[Round]) -> float:
        """Interposed over un-interposed wall time of the same ops, paired
        within each round."""
        return median([r.wall / r.base[0] for r in rounds])

    def _pass(self, instance, label: str):
        responses, seconds, ok = [], [], []
        started = time.perf_counter()
        for i, op in enumerate(self.ops):
            with self.span("apps.host", f"{label}:{i}"):
                t = time.perf_counter()
                body, good = self.execute(instance, op)
                seconds.append(time.perf_counter() - t)
            responses.append(body)
            ok.append(good)
        wall = time.perf_counter() - started
        return responses, seconds, ok, wall

    def run_round(self, index: int) -> Round:
        from repro.core.controller import Controller
        from repro.core.results.matrix import vfs_digest

        with self.span("bench.harness"):
            plain = self.build(None)
            lfi = self.build(Controller(self.platform, self.profiles,
                                        self.plan))
        ref, _, ref_ok, ref_wall = self._pass(plain, "plain")
        out, seconds, ok, wall = self._pass(lfi, "lfi")
        failed = sum(1 for i in range(len(out))
                     if not (ok[i] and ref_ok[i] and out[i] == ref[i]))
        files = vfs_digest(self.vfs(lfi))
        if files != vfs_digest(self.vfs(plain)):
            failed += 1
        kinds: Dict[str, List[float]] = {}
        for (kind, _), s in zip(self.ops, seconds):
            kinds.setdefault(kind, []).append(s)
        digest = _digest([files] + [hashlib.sha256(body).hexdigest()
                                    for body in out])
        if index >= 0 and digest != self.reference_digest:
            failed += 1
        return Round(wall=wall, samples=seconds, digest=digest,
                     failed=failed, base=[ref_wall], kinds=kinds)


class OltpInterposed(ServingWorkload):
    """Table 4: a seeded 2:1 read-only / read-write transaction mix."""

    name = "oltp-interposed"
    ROWS = 24

    def images(self):
        from repro.corpus.libc import libc
        image = libc(self.platform).image
        return {image.soname: image}

    def stream(self, rng):
        table, rows = "sbtest", self.ROWS
        kinds = ["ro_txn"] * (6 if self.small else 60) \
            + ["rw_txn"] * (3 if self.small else 30)
        rng.shuffle(kinds)
        ops = []
        for n, kind in enumerate(kinds):
            if kind == "ro_txn":
                sql = [f"select from {table} where k {rng.randrange(rows)}",
                       f"select from {table} where k {rng.randrange(rows)}",
                       f"select from {table}"]
            else:
                key = rows + n
                sql = [f"select from {table} where k {rng.randrange(rows)}",
                       f"update {table} {rng.randrange(rows)} upd{n}",
                       f"insert into {table} {key} new{n}",
                       f"delete from {table} {key}"]
            ops.append((kind, sql))
        return ops

    def build(self, controller):
        from repro.apps import SysbenchOltpDriver
        from repro.apps.minidb import MiniDB
        from repro.kernel import Kernel

        db = MiniDB(Kernel(), self.platform, controller=controller)
        SysbenchOltpDriver(db, rows=self.ROWS)     # creates + fills sbtest
        return db

    def execute(self, db, op):
        from repro.apps.minidb import DbError

        parts = []
        try:
            for sql in op[1]:
                parts.append(repr(db.execute(sql)))
        except DbError as exc:
            return f"DbError: {exc}".encode(), False
        return "\n".join(parts).encode(), True

    def vfs(self, db):
        return db.kernel.vfs


class WebInterposed(ServingWorkload):
    """Table 3: a seeded 5:1 static-HTML / PHP request mix."""

    name = "web-interposed"
    CHUNK = 256

    def images(self):
        from repro.apps.apr import apr, aprutil
        from repro.corpus.libc import libc
        return {b.image.soname: b.image
                for b in (libc(self.platform), apr(self.platform),
                          aprutil(self.platform))}

    def stream(self, rng):
        from repro.apps.miniweb import PHP_PAGE, STATIC_PAGE

        kinds = ["static_req"] * (5 if self.small else 50) \
            + ["php_req"] * (1 if self.small else 10)
        rng.shuffle(kinds)
        return [(kind, STATIC_PAGE if kind == "static_req" else PHP_PAGE)
                for kind in kinds]

    def build(self, controller):
        from repro.apps import ApacheBenchDriver, MiniWeb
        from repro.kernel import Kernel

        return ApacheBenchDriver(MiniWeb(Kernel(), self.platform,
                                         controller=controller))

    def execute(self, client, op):
        # ApacheBenchDriver's request loop, keeping the response bytes
        proc, server = client.proc, client.server
        fd = proc.libcall("socket", 2, 1, 0)
        if fd < 0:
            return b"", False
        out = bytearray()
        try:
            if proc.libcall("connect", fd, server.port, 0) < 0:
                return b"", False
            request = f"GET {op[1]} HTTP/1.0\r\n\r\n".encode()
            buf = proc.scratch_alloc(len(request))
            proc.mem_write(buf, request)
            if proc.libcall("send", fd, buf, len(request), 0) <= 0:
                return b"", False
            server.serve_one()
            rbuf = proc.scratch_alloc(self.CHUNK)
            while True:
                n = proc.libcall("recv", fd, rbuf, self.CHUNK, 0)
                if n <= 0:
                    break
                out += proc.mem_read(rbuf, n)
        finally:
            proc.libcall("close", fd)
        return bytes(out), out.startswith(b"HTTP/1.0 200")

    def vfs(self, client):
        return client.server.kernel.vfs


WORKLOADS: Dict[str, Callable[..., _Workload]] = {
    w.name: w for w in (CampaignMinidb, CampaignWebGuided, OltpInterposed,
                        WebInterposed)}


def quantile(values: List[float], q: float) -> float:
    """The q-quantile by the nearest-rank method."""
    ordered = sorted(values)
    rank = min(max(1, math.ceil(q * len(ordered))), len(ordered))
    return ordered[rank - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
