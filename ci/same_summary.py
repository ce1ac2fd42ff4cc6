"""Fail unless every run summary derived the same number of cases and
counted the same cases by status.

Usage: python ci/same_summary.py SUMMARY.json SUMMARY.json [...]

Each argument is a ``repro campaign --summary-json`` file.  The campaign
parent derives the cases the golden run proves cannot fire, and every
case's status is deterministic, so neither the ``derived`` count nor the
``outcomes`` of the campaign stage may depend on the backend or the
worker count.
"""

import json
import sys


def campaign_stage(path: str) -> dict:
    with open(path) as fh:
        stages = json.load(fh)["stages"]
    (campaign,) = [s for s in stages if s["kind"] == "campaign"]
    return campaign


def main(paths) -> int:
    stages = {path: campaign_stage(path) for path in paths}
    for path, stage in stages.items():
        print(f"{path}: derived {stage['derived']}, "
              f"outcomes {json.dumps(stage['outcomes'], sort_keys=True)}")
    failed = 0
    for field, what in (("derived", "derived different numbers of cases"),
                        ("outcomes", "counted different cases by status")):
        if len({json.dumps(stage[field], sort_keys=True)
                for stage in stages.values()}) != 1:
            print(f"the runs {what}", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
