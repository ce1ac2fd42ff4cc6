"""Fail unless campaign journals hold the same records in the same order.

Usage: python ci/same_journal.py [--ignore-snapshot] RESULTS_DIR RESULTS_DIR [...]

Each argument is a ``repro campaign --results-dir`` directory holding one
campaign (or a ``journal.jsonl`` file).  The records are compared after
parsing, field by field, with two exceptions: ``seconds`` (a case's wall
time) and ``worker`` (the process that ran it).  Everything else a
record holds is a function of the case alone, whichever backend ran it:
status, classes, coverage, sites, metrics, the replay script and the
captured events, which are journaled without a timestamp.

``--ignore-snapshot`` also drops ``snapshot``, the replay bookkeeping a
``--snapshot`` run journals (checkpoint group, dirty pages, bytes and
restore seconds), so a snapshot run's journal can be held to a fresh
run's.
"""

import json
import sys
from pathlib import Path

#: fields that may differ between two runs of the same campaign
IGNORED = ("seconds", "worker")


def journal_records(path: str, ignored=IGNORED):
    path = Path(path)
    if path.is_dir():
        journals = sorted(path.glob("*/journal.jsonl"))
        if len(journals) != 1:
            raise SystemExit(f"{path}: expected one campaign journal, "
                             f"found {len(journals)}")
        path = journals[0]
    records = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        for field in ignored:
            record.pop(field, None)
        records.append(record)
    return records


def main(args) -> int:
    ignored = IGNORED
    if args and args[0] == "--ignore-snapshot":
        ignored, args = IGNORED + ("snapshot",), args[1:]
    journals = {path: journal_records(path, ignored) for path in args}
    reference_path, reference = next(iter(journals.items()))
    failed = 0
    for path, records in journals.items():
        print(f"{path}: {len(records)} records")
        if len(records) != len(reference):
            print(f"{path} holds {len(records)} records, {reference_path} "
                  f"{len(reference)}", file=sys.stderr)
            failed = 1
            continue
        differ = [(i, mine, theirs)
                  for i, (mine, theirs) in enumerate(zip(records, reference))
                  if mine != theirs]
        for i, mine, theirs in differ[:5]:
            fields = sorted(key for key in set(mine) | set(theirs)
                            if mine.get(key) != theirs.get(key))
            print(f"{path}: record {i} ({mine.get('case')}) differs from "
                  f"{reference_path} in {', '.join(fields)}",
                  file=sys.stderr)
        if differ:
            print(f"{path}: {len(differ)} of {len(records)} records differ",
                  file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
