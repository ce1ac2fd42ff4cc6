"""Benchmark drivers: AB (ApacheBench) and SysBench-OLTP equivalents.

These drive the §6.4 overhead experiments:

* :class:`ApacheBenchDriver` — "In each test we ran 1,000 requests with
  AB", for a static-HTML and a PHP workload (Table 3, completion time).
* :class:`SysbenchOltpDriver` — read-only and read/write transaction
  mixes against minidb (Table 4, transactions per second).

Both also expose *call-count profiling* so the experiment can pick the
top-N most-called functions for its trigger plans, exactly as the paper
built "10 triggers on the top-10-most-called functions", etc.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..corpus.libc import libc
from ..kernel import Kernel
from ..platform import Platform
from ..runtime import Process
from .minidb import MiniDB
from .miniweb import PHP_PAGE, STATIC_PAGE, MiniWeb

_CHUNK = 256


@dataclass
class AbResult:
    """One AB run: completion time for n requests."""

    requests: int
    seconds: float
    failures: int = 0


class ApacheBenchDriver:
    """A loopback HTTP client issuing sequential requests."""

    def __init__(self, server: MiniWeb) -> None:
        self.server = server
        self.proc = Process(server.kernel, server.platform)
        self.proc.load_program([libc(server.platform).image])

    def _one_request(self, path: str) -> bool:
        proc = self.proc
        fd = proc.libcall("socket", 2, 1, 0)
        if fd < 0:
            return False
        ok = False
        try:
            if proc.libcall("connect", fd, self.server.port, 0) < 0:
                return False
            request = f"GET {path} HTTP/1.0\r\n\r\n".encode()
            buf = proc.scratch_alloc(len(request))
            proc.mem_write(buf, request)
            if proc.libcall("send", fd, buf, len(request), 0) <= 0:
                return False
            self.server.serve_one()
            out = bytearray()
            rbuf = proc.scratch_alloc(_CHUNK)
            while True:
                n = proc.libcall("recv", fd, rbuf, _CHUNK, 0)
                if n <= 0:
                    break
                out += proc.mem_read(rbuf, n)
            ok = out.startswith(b"HTTP/1.0 200")
        finally:
            proc.libcall("close", fd)
        return ok

    def run(self, n_requests: int, *, page: str = STATIC_PAGE) -> AbResult:
        started = time.perf_counter()
        failures = 0
        for _ in range(n_requests):
            if not self._one_request(page):
                failures += 1
        return AbResult(requests=n_requests,
                        seconds=time.perf_counter() - started,
                        failures=failures)

    def run_static(self, n_requests: int) -> AbResult:
        return self.run(n_requests, page=STATIC_PAGE)

    def run_php(self, n_requests: int) -> AbResult:
        return self.run(n_requests, page=PHP_PAGE)


@dataclass
class OltpResult:
    """One SysBench-OLTP run."""

    transactions: int
    seconds: float
    errors: int = 0

    @property
    def txns_per_second(self) -> float:
        return self.transactions / self.seconds if self.seconds else 0.0


class SysbenchOltpDriver:
    """Transaction mixes against a MiniDB instance."""

    TABLE = "sbtest"

    def __init__(self, db: MiniDB, *, rows: int = 24) -> None:
        self.db = db
        db.execute(f"create table {self.TABLE} k v")
        for i in range(rows):
            db.execute(f"insert into {self.TABLE} {i} seed{i}")
        self.rows = rows
        self._next_key = rows

    def _read_only_txn(self, i: int) -> None:
        db = self.db
        db.execute(f"select from {self.TABLE} where k {i % self.rows}")
        db.execute(f"select from {self.TABLE} where k "
                   f"{(i * 7 + 3) % self.rows}")
        db.execute(f"select from {self.TABLE}")

    def _read_write_txn(self, i: int) -> None:
        db = self.db
        db.execute(f"select from {self.TABLE} where k {i % self.rows}")
        db.execute(f"update {self.TABLE} {i % self.rows} upd{i}")
        key = self._next_key
        self._next_key += 1
        db.execute(f"insert into {self.TABLE} {key} new{i}")
        db.execute(f"delete from {self.TABLE} {key}")

    def run(self, n_transactions: int, *,
            read_only: bool = True) -> OltpResult:
        from .minidb import DbError

        txn = self._read_only_txn if read_only else self._read_write_txn
        errors = 0
        started = time.perf_counter()
        for i in range(n_transactions):
            try:
                txn(i)
            except DbError:
                errors += 1
        return OltpResult(transactions=n_transactions,
                          seconds=time.perf_counter() - started,
                          errors=errors)


def top_called_functions(call_counts: Dict[str, int],
                         top_n: int) -> List[str]:
    """Rank functions by observed call count (for top-N trigger plans)."""
    ranked = sorted(call_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [name for name, _count in ranked[:top_n]]
