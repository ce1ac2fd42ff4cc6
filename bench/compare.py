#!/usr/bin/env python3
"""Compare two sets of benchmark runs under the BENCHMARK.json bounds.

    python3 bench/compare.py A/ B/ [--json]

``A`` (the baseline, e.g. the parent commit) and ``B`` (the candidate)
are directories of run documents written by ``run.py --out``, searched
recursively; traced runs are skipped.  For every workload and
end-to-end metric it prints each side's median and quartiles, the share
of pairs B won (runs paired by seed when both sides ran the same seeds,
else in file order; ties count for neither) and a verdict:

``improved``
    B won at least nine tenths of the pairs and the medians differ, in
    the better direction, by more than A's quartile distance;
``regressed``
    B's median is worse than A's by more than the metric's bound;
``unresolved``
    either side's quartile distance exceeds the bound (as a share of its
    median), unless every B run beats every A run;
``unchanged``
    otherwise.

More failed operations in B than in A also count as a regression.  The
exit code is 0 when nothing regressed and nothing is unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: a gain needs this share of pairs won
WIN_SHARE = 0.9


def load_runs(directory: Path) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced run documents under ``directory``, by workload."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            continue
        if not isinstance(doc, dict) or "workload" not in doc \
                or "metrics" not in doc or doc.get("trace"):
            continue
        runs.setdefault(doc["workload"], []).append(doc)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _pairs(a: List[Dict[str, Any]], b: List[Dict[str, Any]]):
    seeds_a = {d["seed"]: d for d in a}
    seeds_b = {d["seed"]: d for d in b}
    if len(seeds_a) == len(a) and set(seeds_a) == set(seeds_b):
        return [(seeds_a[s], seeds_b[s]) for s in sorted(seeds_a)]
    return list(zip(a, b))


def verdict(a: List[float], b: List[float], pairs: List[Tuple[float, float]],
            bound: float, higher_is_better: bool) -> Dict[str, Any]:
    """Judge one workload × metric; see the module docstring."""
    def better(x: float, y: float) -> bool:
        return x > y if higher_is_better else x < y

    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    wins = sum(1 for x, y in pairs if better(y, x))
    share = wins / len(pairs) if pairs else 0.0
    spread_a = (qa[2] - qa[0]) / abs(med_a) if med_a else 0.0
    spread_b = (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0
    worse_by = ((med_a - med_b) if higher_is_better else (med_b - med_a))
    worse_share = worse_by / abs(med_a) if med_a else 0.0
    all_better = all(better(y, x) for x in a for y in b)
    if max(spread_a, spread_b) > bound:
        result = "improved" if all_better else "unresolved"
    elif share >= WIN_SHARE and better(med_b, med_a) \
            and abs(med_b - med_a) > qa[2] - qa[0]:
        result = "improved"
    elif worse_share > bound:
        result = "regressed"
    else:
        result = "unchanged"
    return {"a": qa, "b": qb, "spread_a": spread_a, "spread_b": spread_b,
            "change": (med_b - med_a) / abs(med_a) if med_a else 0.0,
            "won": share, "pairs": len(pairs), "verdict": result}


def compare(dir_a: Path, dir_b: Path) -> Dict[str, Any]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    rows, failures = [], {}
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a or not b:
            continue
        failures[workload] = (sum(d["failed"] for d in a),
                              sum(d["failed"] for d in b))
        pairs = _pairs(a, b)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [d["metrics"][name]["value"] for d in a],
                [d["metrics"][name]["value"] for d in b],
                [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                 for x, y in pairs],
                metric["bound"], metric["better"] == "higher")
            row.update(workload=workload, metric=name,
                       unit=metric["unit"], bound=metric["bound"],
                       runs=(len(a), len(b)))
            rows.append(row)
    ok = (all(r["verdict"] in ("improved", "unchanged") for r in rows)
          and all(fb <= fa for fa, fb in failures.values()))
    return {"rows": rows, "failed": failures, "ok": ok and bool(rows)}


def render(result: Dict[str, Any]) -> List[str]:
    lines = [f"{'workload':<20} {'metric':<12} {'A median [q1, q3]':>30} "
             f"{'B median [q1, q3]':>30} {'change':>8} {'B won':>6}  verdict"]

    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    for r in result["rows"]:
        lines.append(
            f"{r['workload']:<20} {r['metric']:<12} {fmt(r['a']):>30} "
            f"{fmt(r['b']):>30} {100 * r['change']:>+7.1f}% "
            f"{100 * r['won']:>5.0f}%  {r['verdict']}"
            f" (bound {100 * r['bound']:.0f}%, spread "
            f"{100 * r['spread_a']:.1f}%/{100 * r['spread_b']:.1f}%)")
    for workload, (fa, fb) in result["failed"].items():
        lines.append(f"{workload:<20} failed operations: A {fa}, B {fb}"
                     + ("  (more failures in B)" if fb > fa else ""))
    if not result["rows"]:
        lines.append("no workload has runs on both sides")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of benchmark runs.")
    parser.add_argument("a", type=Path, help="baseline run directory")
    parser.add_argument("b", type=Path, help="candidate run directory")
    parser.add_argument("--json", action="store_true",
                        help="print the comparison as JSON")
    args = parser.parse_args(argv)
    result = compare(args.a, args.b)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print("\n".join(render(result)))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
