"""miniweb, the APR libraries and the workload drivers."""

import pytest

from repro.apps import (ApacheBenchDriver, MiniWeb, SysbenchOltpDriver,
                        top_called_functions)
from repro.apps.minidb import MiniDB
from repro.core.controller import Controller
from repro.core.scenario import (ErrorCode, FunctionTrigger, Plan,
                                 passthrough_plan, random_plan)
from repro.kernel import Kernel
from repro.platform import LINUX_X86


class TestMiniWeb:
    def test_serves_static_page(self):
        server = MiniWeb(Kernel(), LINUX_X86)
        ab = ApacheBenchDriver(server)
        result = ab.run_static(5)
        assert result.failures == 0
        assert server.requests_served == 5

    def test_serves_php_page(self):
        server = MiniWeb(Kernel(), LINUX_X86)
        ab = ApacheBenchDriver(server)
        result = ab.run_php(5)
        assert result.failures == 0

    def test_php_issues_more_library_calls(self, web_stack_linux):
        """§6.4: the PHP workload crosses the shim far more often."""
        images, profiles = web_stack_linux

        def calls_for(page_method):
            plan = passthrough_plan({"read": [], "write": [],
                                     "send": [], "recv": [],
                                     "malloc": [], "open": [],
                                     "close": []})
            lfi = Controller(LINUX_X86, profiles, plan)
            server = MiniWeb(Kernel(), LINUX_X86, controller=lfi)
            getattr(ApacheBenchDriver(server), page_method)(3)
            return sum(lfi.engine.call_counts.values())

        assert calls_for("run_php") > 2 * calls_for("run_static")

    def test_missing_page_is_404(self):
        server = MiniWeb(Kernel(), LINUX_X86)
        ab = ApacheBenchDriver(server)
        result = ab.run(3, page="/www/ghost.html")
        assert result.failures == 3     # 404s are not 200 OK

    def test_injection_can_fail_requests(self, web_stack_linux):
        images, profiles = web_stack_linux
        plan = Plan()
        plan.add(FunctionTrigger(function="open", mode="always",
                                 actions=(ErrorCode(-1, "EMFILE"),)))
        lfi = Controller(LINUX_X86, profiles, plan)
        server = MiniWeb(Kernel(), LINUX_X86, controller=lfi)
        result = ApacheBenchDriver(server).run_static(3)
        assert result.failures == 3     # every open fails -> 404


class TestOltp:
    def test_read_only_transactions(self):
        db = MiniDB(Kernel(), LINUX_X86)
        driver = SysbenchOltpDriver(db)
        result = driver.run(10, read_only=True)
        assert result.errors == 0
        assert result.txns_per_second > 0

    def test_read_write_transactions(self):
        db = MiniDB(Kernel(), LINUX_X86)
        driver = SysbenchOltpDriver(db)
        result = driver.run(10, read_only=False)
        assert result.errors == 0

    def test_read_only_faster_than_read_write(self):
        """Read-only transactions do less work than read-write ones.

        The work is counted in guest instructions and syscalls, which do
        not depend on the host's speed (15 transactions: 22,365 and
        1,260 read-only, 27,014 and 1,551 read-write); the wall-clock
        txns/s comparison lives in the Table 4 bench.
        """
        db = MiniDB(Kernel(), LINUX_X86)
        driver = SysbenchOltpDriver(db)

        def cost(read_only):
            before = (db.proc.cpu.instructions_executed,
                      db.kernel.syscall_count)
            result = driver.run(15, read_only=read_only)
            assert result.errors == 0
            return (db.proc.cpu.instructions_executed - before[0],
                    db.kernel.syscall_count - before[1])

        ro_instructions, ro_syscalls = cost(read_only=True)
        rw_instructions, rw_syscalls = cost(read_only=False)
        assert 0 < ro_instructions < rw_instructions
        assert 0 < ro_syscalls < rw_syscalls

    def test_injection_surfaces_as_txn_errors(self, libc_profiles_linux):
        plan = random_plan(libc_profiles_linux, probability=0.08, seed=4,
                           functions=["read"])
        lfi = Controller(LINUX_X86, libc_profiles_linux, plan)
        db = MiniDB(Kernel(), LINUX_X86, controller=lfi)
        driver = SysbenchOltpDriver(db)
        result = driver.run(25, read_only=True)
        assert result.errors > 0


class TestTopCalled:
    def test_ranking(self):
        counts = {"read": 100, "close": 5, "write": 50}
        assert top_called_functions(counts, 2) == ["read", "write"]

    def test_deterministic_tie_break(self):
        counts = {"b": 10, "a": 10}
        assert top_called_functions(counts, 2) == ["a", "b"]
