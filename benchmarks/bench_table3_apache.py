"""Table 3: runtime overhead of LFI on the Apache httpd server.

The paper shims GNU libc + libapr + libaprutil simultaneously, builds
random pass-through plans over the top-N most-called functions
(10/100/500/1000 triggers) and reports the completion time of 1,000 AB
requests for a static-HTML and a PHP workload.  Absolute times here are
VM-scale; the reproduced *shape* is: PHP ~10x static per request, and
completion time grows only mildly and monotonically-ish with trigger
count (trigger evaluation is cheap).
"""

from __future__ import annotations

from repro.apps import ApacheBenchDriver, MiniWeb
from repro.core.controller import Controller
from repro.core.scenario import error_codes_from_profile, passthrough_plan
from repro.kernel import Kernel
from repro.platform import LINUX_X86

from _benchutil import exact_passthrough_plan, print_table

#: (label, trigger count, top-N pool) — the paper's four plans + baseline.
CONFIGS = (("baseline (no LFI)", 0, 0),
           ("10 triggers", 10, 10),
           ("100 triggers", 100, 100),
           ("500 triggers", 500, 300),
           ("1,000 triggers", 1000, 300))

N_STATIC = 120
N_PHP = 24
WARMUP = 8


def _call_census(images, profiles):
    """Rank functions by how often the workload calls them."""
    codes = {fn: error_codes_from_profile(p.functions[fn])
             for p in profiles.values() for fn in p.functions}
    lfi = Controller(LINUX_X86, profiles, passthrough_plan(codes))
    server = MiniWeb(Kernel(), LINUX_X86, controller=lfi)
    ab = ApacheBenchDriver(server)
    ab.run_static(10)
    ab.run_php(4)
    return dict(lfi.engine.call_counts), codes


def _timed_run(images, profiles, codes, counts, n_triggers, top_n,
               n_requests, page):
    if n_triggers == 0:
        server = MiniWeb(Kernel(), LINUX_X86)
    else:
        plan = exact_passthrough_plan(counts, codes, n_triggers, top_n)
        lfi = Controller(LINUX_X86, profiles, plan)
        server = MiniWeb(Kernel(), LINUX_X86, controller=lfi)
    ab = ApacheBenchDriver(server)
    ab.run(WARMUP, page=page)                    # warm caches
    # min of two runs: robust against scheduler noise on loaded hosts
    seconds = []
    for _ in range(2):
        result = ab.run(n_requests, page=page)
        assert result.failures == 0
        seconds.append(result.seconds)
    return min(seconds)


def test_table3_apache_overhead(benchmark, web_stack):
    images, profiles = web_stack
    counts, codes = _call_census(images, profiles)

    def sweep():
        table = {}
        for label, n_triggers, top_n in CONFIGS:
            static_s = _timed_run(images, profiles, codes, counts,
                                  n_triggers, top_n, N_STATIC,
                                  "/www/index.html")
            php_s = _timed_run(images, profiles, codes, counts,
                               n_triggers, top_n, N_PHP, "/www/app.php")
            table[label] = (static_s, php_s)
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)

    base_static, base_php = table["baseline (no LFI)"]
    rows = []
    for label, _n, _t in CONFIGS:
        static_s, php_s = table[label]
        rows.append(f"{label:<18} {static_s:8.3f} s "
                    f"({100 * (static_s / base_static - 1):+5.1f}%)   "
                    f"{php_s:8.3f} s "
                    f"({100 * (php_s / base_php - 1):+5.1f}%)")
    print_table(
        f"Table 3 — AB completion time ({N_STATIC} static / {N_PHP} PHP "
        "requests), libc+libapr+libaprutil shimmed",
        "configuration        static HTML            PHP",
        rows)

    # shape assertions
    # PHP does far more work per request than static (paper: 10x)
    assert (base_php / N_PHP) > 3 * (base_static / N_STATIC)
    # trigger evaluation overhead stays bounded (paper: negligible)
    worst_static = max(s for s, _ in table.values())
    worst_php = max(p for _, p in table.values())
    assert worst_static < 2.5 * base_static
    assert worst_php < 2.5 * base_php
