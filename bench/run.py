#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end metrics, layer trace.

Run from the repository root::

    python3 bench/run.py --seed 20090629              # all four workloads
    python3 bench/run.py --workload oltp-interposed --seed 7 --seconds 15
    python3 bench/run.py --workload campaign-minidb --trace 1
    python3 bench/run.py --out runs/a                 # keep each run's JSON

Every workload runs in fresh subprocesses, one after another.  An
untraced run starts the workload :data:`SETUPS` times — twice only to
time set-up, once to set up and measure — and reports the median
set-up time.  A traced run (``--trace 1``) measures half its time
untraced and half with every layer's entry point wrapped (see
``layers.py``), and reports the per-layer metrics plus the tracing
overhead.

Each metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every output check
passed; a harness failure exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: set-up samples per untraced run; ``setup_s`` is their median
SETUPS = 3

#: a p99 must rest on at least this many samples (ten beyond it); a
#: run measures past --seconds, if need be, until it has them
MIN_P99_SAMPLES = 1000

#: wall-clock budget of one workload run, children included
DEADLINE = 170.0


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_digests() -> Dict[str, Any]:
    return json.loads((BENCH / "digests.json").read_text())


# -- the measuring child ---------------------------------------------------------


def _peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0            # ru_maxrss is in KiB on Linux


def _ms(seconds: float) -> float:
    return seconds * 1e3


def summarize(workload, rounds) -> Dict[str, Any]:
    """The end-to-end numbers of one run's timed rounds.

    Other tenants of the host slow it by tens of percent for seconds at
    a time, and interference only ever slows a round down.  Throughput
    and the median latency therefore come from the *quiet* rounds: the
    faster half by throughput.  ``slowdown_x`` sets each round against
    a base that shares its host speed (see the workloads) and uses
    every round; the p99 pools every round's samples.
    """
    from workloads import median, quantile

    ranked = sorted(rounds, key=lambda r: len(r.samples) / r.wall,
                    reverse=True)
    quiet = ranked[:(len(rounds) + 1) // 2]
    quiet_ids = {id(r) for r in quiet}
    samples = [s for r in rounds for s in r.samples]
    kinds = sorted({kind for r in rounds for kind in r.kinds})
    return {
        "ops_per_s": median([len(r.samples) / r.wall for r in quiet]),
        "op_p50_ms": _ms(median([s for r in quiet for s in r.samples])),
        "op_p99_ms": _ms(quantile(samples, 0.99)),
        "p99_samples": len(samples),
        "quiet_rounds": len(quiet),
        "slowdown_x": workload.slowdown(rounds),
        "kinds": {f"{kind}_p50_ms": _ms(median(
            [s for r in quiet for s in r.kinds.get(kind, ())]))
            for kind in kinds},
        "per_round": [{"ops_per_s": len(r.samples) / r.wall,
                       "quiet": id(r) in quiet_ids} for r in rounds],
    }


def measure(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """Set one workload up and, unless ``cfg["phase"] == "setup"``,
    measure it; runs inside the child process."""
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from workloads import WORKLOADS

    rec = uninstall = None
    if cfg["trace"]:
        rec = layers.Recorder(cfg["seed"])
        uninstall = layers.install(rec)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[cfg["workload"]](
            cfg["seed"], workdir, small=cfg["small"], tracer=rec)
        workload.setup()
        doc: Dict[str, Any] = {"setup_s": time.time() - cfg["spawned_at"]}
        if cfg["phase"] == "setup":
            return doc

        if rec is not None:
            from repro.runtime import CODE_CACHE
            profile = tuple(rec.totals.get("core.profiler.profile",
                                           (0.0, 0)))
            rec.reset()
            expected = workload.ops_per_round * max(
                1.0, cfg["seconds"] / max(workload.warmup_seconds, 1e-6))
            rec.sample_p = min(1.0, layers.SAMPLE_OPS / max(expected, 1.0))
            cache_before = CODE_CACHE.stats()

        rounds = []
        started = time.perf_counter()
        while True:
            gc.collect()
            if rec is not None:
                rec.round = len(rounds)
            rounds.append(workload.run_round(len(rounds)))
            if cfg["rounds"] is not None:
                if len(rounds) >= cfg["rounds"]:
                    break
                continue
            elapsed = time.perf_counter() - started
            samples = sum(len(r.samples) for r in rounds)
            if elapsed >= cfg["seconds"] and (
                    samples >= cfg["min_samples"]
                    or elapsed >= 3 * cfg["seconds"]):
                break

        doc.update(summarize(workload, rounds))
        doc.update(
            rounds=len(rounds),
            attempted=sum(len(r.samples) for r in rounds),
            failed=sum(r.failed for r in rounds),
            warmup_failed=workload.warmup_failed,
            peak_rss_mb=_peak_rss_mb(),
            digest=workload.reference_digest,
            round_digests=sorted({r.digest for r in rounds}),
        )
        if rec is not None:
            for name, value in layers.cache_delta(cache_before).items():
                rec.count(name, value)
            executed = sum(r.executed for r in rounds)
            doc["layers"] = layers.layer_metrics(
                rec, profile=profile, executed=executed,
                enumerated=workload.enumerated * len(rounds),
                replays=sum(r.replays for r in rounds), overhead=0.0)
            doc["partition"] = {
                "wall_s": rec.wall,
                "self_sum_s": sum(v[0] for v in rec.totals.values())}
            uninstall()
            uninstall = None
            spans = OUT / f"spans-{cfg['workload']}-{cfg['seed']}.json"
            spans.write_text(json.dumps(
                {"workload": cfg["workload"], "seed": cfg["seed"],
                 "spans": rec.span_records()}))
        doc["failed"] += workload.finish()
        return doc
    finally:
        if uninstall is not None:
            uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


# -- the driving parent ------------------------------------------------------------


class HarnessError(RuntimeError):
    """A child failed to produce a result."""


def _spawn(cfg: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    cfg = dict(cfg, spawned_at=time.time())
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError(f"{cfg['workload']}: out of time")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--child",
             json.dumps(cfg)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{cfg['workload']}: child exceeded the "
                           f"{DEADLINE:.0f}s run budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{cfg['workload']}: child exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def drive(workload: str, seed: int, seconds: float, trace: bool, *,
          small: bool = False, rounds: Optional[int] = None,
          setups: int = SETUPS,
          digests: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One benchmark run of one workload; returns the full run document.

    ``small``/``rounds`` shrink the run (tests); ``digests`` replaces
    the committed reference digests, which otherwise apply to full-size
    runs at the seeds they were recorded for.
    """
    spec = load_spec()
    deadline = time.monotonic() + DEADLINE
    cfg = {"workload": workload, "seed": seed, "small": small,
           "rounds": rounds, "trace": False, "phase": "measure",
           "seconds": seconds,
           "min_samples": 0 if (small or trace) else MIN_P99_SAMPLES}
    if digests is None:
        digests = {} if small else load_digests()
    expected = digests.get(workload)
    if expected is not None and expected.get("seed") not in (None, seed):
        expected = None

    if trace:
        half = dict(cfg, seconds=seconds / 2)
        plain = _spawn(half, deadline)
        traced = _spawn(dict(half, trace=True), deadline)
        children = [plain, traced]
        traced["layers"]["trace_overhead_frac"]["value"] = \
            plain["ops_per_s"] / traced["ops_per_s"] - 1
        wanted = spec["per_layer"]
        values = {name: m["value"] for name, m in traced["layers"].items()}
    else:
        setup_times = [_spawn(dict(cfg, phase="setup"), deadline)["setup_s"]
                       for _ in range(setups - 1)]
        main = _spawn(cfg, deadline)
        children = [main]
        values = {name: main[name] for name in
                  ("ops_per_s", "op_p50_ms", "slowdown_x", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup_times + [main["setup_s"]])
        wanted = spec["end_to_end"]

    metrics = {}
    for entry in wanted:
        if entry["name"] not in values:
            raise HarnessError(f"{workload}: no value for metric "
                               f"{entry['name']}")
        metrics[entry["name"]] = {"value": values[entry["name"]],
                                  "unit": entry["unit"]}
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    checks = {
        "no failed operations": failed == 0,
        "warm-up round matched its reference":
            all(c["warmup_failed"] == 0 for c in children),
        "every round produced the reference digest":
            all(c["round_digests"] == [c["digest"]] for c in children),
    }
    if expected is not None:
        checks["committed digest matches"] = all(
            c["digest"] == expected["digest"] for c in children)
    main = children[-1]
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds,
        "correct": all(checks.values()),
        "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "checks": checks,
        "detail": {
            "rounds": main["rounds"],
            "op_p99_ms": main["op_p99_ms"],
            "p99_samples": main["p99_samples"],
            "quiet_rounds": main["quiet_rounds"],
            "failed_frac": failed / attempted if attempted else 0.0,
            "digest": main["digest"],
            **main["kinds"],
            **({"partition": main["partition"]} if trace else {}),
            "per_round": main["per_round"],
        },
    }


def render(doc: Dict[str, Any]) -> List[str]:
    """Human-readable lines for one run document."""
    lines = [f"== {doc['workload']} (seed {doc['seed']}, "
             f"{'traced' if doc['trace'] else 'untraced'}) =="]
    for name, m in doc["metrics"].items():
        lines.append(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")
    for name, value in doc["detail"].items():
        if isinstance(value, float):
            unit = " ms" if name.endswith("_ms") else ""
            lines.append(f"  {name:<38} {value:>14.6g}{unit}")
        elif not isinstance(value, (dict, list)):
            lines.append(f"  {name:<38} {value!s:>14}")
    lines.append(f"  {'attempted / failed':<38} "
                 f"{doc['attempted']:>8} / {doc['failed']}")
    for check, ok in doc["checks"].items():
        lines.append(f"  [{'ok' if ok else 'FAILED'}] {check}")
    return lines


def result_line(docs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The final JSON object: one run's, or all runs' combined."""
    if len(docs) == 1:
        doc = docs[0]
        return {k: doc[k] for k in ("correct", "attempted", "failed",
                                    "metrics")}
    return {
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": {f"{d['workload']}.{name}": m for d in docs
                    for name, m in d["metrics"].items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory to write each run's "
                                      "full JSON document into")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(measure(json.loads(args.child))))
        return 0

    spec = load_spec()
    from workloads import DEFAULT_SEED
    rc, _ = run_all(
        args.workload or [w["name"] for w in spec["workloads"]],
        DEFAULT_SEED if args.seed is None else args.seed,
        spec["run_seconds"] if args.seconds is None else args.seconds,
        bool(args.trace), out=args.out)
    return rc


def run_all(names: List[str], seed: int, seconds: float, trace: bool, *,
            out: Optional[str] = None, **options: Any
            ) -> Tuple[int, List[Dict[str, Any]]]:
    """Run workloads one after another, printing each run's metrics and
    then the result line; ``options`` pass through to :func:`drive`.
    Returns the exit code and the run documents."""
    known = {w["name"] for w in load_spec()["workloads"]}
    docs: List[Dict[str, Any]] = []
    try:
        for name in names:
            if name not in known:
                raise HarnessError(f"unknown workload {name!r}")
            doc = drive(name, seed, seconds, trace, **options)
            docs.append(doc)
            print("\n".join(render(doc)), flush=True)
            if out:
                directory = Path(out)
                directory.mkdir(parents=True, exist_ok=True)
                suffix = "-trace" if trace else ""
                (directory / f"{name}{suffix}.json").write_text(
                    json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2, docs
    print(json.dumps(result_line(docs)))
    return (0 if all(d["correct"] for d in docs) else 1), docs


if __name__ == "__main__":
    sys.exit(main())
