"""Fail unless every run summary derived the same number of cases.

Usage: python ci/same_derived.py SUMMARY.json SUMMARY.json [...]

Each argument is a ``repro campaign --summary-json`` file.  The campaign
parent derives the cases the golden run proves cannot fire, so the
``derived`` count of the campaign stage must not depend on the backend
or the worker count.
"""

import json
import sys


def derived(path: str) -> int:
    with open(path) as fh:
        stages = json.load(fh)["stages"]
    (campaign,) = [s for s in stages if s["kind"] == "campaign"]
    return campaign["derived"]


def main(paths) -> int:
    counts = {path: derived(path) for path in paths}
    for path, count in counts.items():
        print(f"{path}: derived {count}")
    if len(set(counts.values())) != 1:
        print("the runs derived different numbers of cases",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
