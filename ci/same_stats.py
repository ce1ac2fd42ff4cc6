"""Fail unless every event stream tells the same story about its campaign.

Usage: python ci/same_stats.py STATS.json STATS.json [...]

Each argument is the ``repro stats --json`` summary of a ``--log-json``
event stream, all of the same campaign.  What the campaign did — its
cases, their outcomes, the injections and fault totals, and the metric
families counted from them — must not depend on the backend or the
worker count.  Times, worker labels and the parent-only code-cache
counters may differ, so they are not compared.
"""

import json
import sys

#: top-level keys of the ``repro stats --json`` summary
FIELDS = ("cases", "outcomes", "injections", "injections_by_errno",
          "faults")

#: metric families of the final metrics snapshot
METRICS = ("repro_cases_total", "repro_cases_derived_total",
           "repro_injections_total", "repro_instructions_total",
           "repro_trigger_evaluations_total",
           "repro_passthrough_firings_total")


def facts(path: str) -> dict:
    with open(path) as fh:
        stats = json.load(fh)
    out = {field: stats[field] for field in FIELDS}
    for name in METRICS:
        if name not in stats["metrics"]:
            raise SystemExit(f"{path}: no {name} in the metrics snapshot")
        out[name] = stats["metrics"][name]["values"]
    return out


def main(paths) -> int:
    if len(paths) < 2:
        print("usage: python ci/same_stats.py STATS.json STATS.json [...]",
              file=sys.stderr)
        return 2
    runs = {path: facts(path) for path in paths}
    first = runs[paths[0]]
    differ = sorted({key for run in runs.values()
                     for key, value in run.items() if value != first[key]})
    for path, run in runs.items():
        print(f"{path}: {run['cases']} cases")
    if differ:
        print("the runs differ in: " + ", ".join(differ), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
