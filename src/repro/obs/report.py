"""Campaign observatory: live journal tailing and the HTML report.

A journaled campaign (``campaign --results-dir``) is observable while
it runs and dissectable after it finishes.  This module supplies both
ends:

* :class:`JournalTailer` — an incremental reader over the append-only
  ``journal.jsonl``.  It only ever advances past **complete** lines, so
  a torn final line (the writer mid-append, or a crashed writer) is
  simply not consumed yet — the same tolerance the ``--resume`` reader
  has, made incremental.  Truncation or rotation (the file shrank) is
  detected from the size and the tailer starts over from offset zero.
* :class:`CampaignWatch` — the ``repro watch`` view over a tailer:
  progress against the journal's expected case count, throughput and
  ETA, per-outcome-class counts, snapshot efficiency, and the live
  failure-mode matrix, re-rendered as records arrive.
* :func:`render_html_report` — the ``repro report --html`` artifact: a
  single self-contained file with the matrix, per-cell drilldown to
  each case's detail and replay plan, and the coverage-novelty ranking
  (which cases to keep for a regression suite).

Everything reads only deterministic journal fields; the watch's clock
is injectable so its tests don't sleep.
"""

from __future__ import annotations

import html
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ResultsError

# NOTE: ``repro.obs`` sits *below* ``repro.core`` (core modules import
# obs.telemetry at module scope), so everything from core.results is
# imported lazily inside the functions that need it.

#: Schema tag of the serialized watch snapshot (``repro watch --json``).
WATCH_SCHEMA = "repro.watch/1"


def resolve_journal(source: Any, campaign: Optional[str] = None
                    ) -> Tuple[Path, Dict[str, Any]]:
    """Resolve what the user pointed ``watch``/``report`` at.

    Accepts a ``journal.jsonl`` path, a campaign directory containing
    one, or a result-store root (resolved like ``triage --campaign``,
    with ``campaign`` as an optional key prefix).  Returns the journal
    path and the campaign's metadata (which may not exist yet for a
    journal that hasn't been written — watch starts before the first
    record lands).
    """
    path = Path(source)
    if path.is_file():
        root = path.parent
    elif (path / "journal.jsonl").exists() or (path / "meta.json").exists():
        root = path
    elif path.is_dir():
        from ..core.results import ResultStore
        store = ResultStore(path)
        key = store.resolve(campaign)
        root = Path(path) / key
    else:
        raise ResultsError(f"no journal at {path}: pass a journal.jsonl, "
                           f"a campaign directory, or a result store")
    meta: Dict[str, Any] = {}
    try:
        loaded = json.loads((root / "meta.json").read_text())
        if isinstance(loaded, dict):
            meta = loaded
    except (OSError, ValueError):
        pass
    return root / "journal.jsonl", meta


class JournalTailer:
    """Incrementally read finished-case records from a live journal.

    Records pass the same filter as ``CampaignJournal.finished()``
    (:func:`~repro.core.results.store.fold_records`: schema tag,
    campaign key when one is given, last record per case key wins), but
    consumption is incremental: :meth:`poll` returns only the
    records that arrived since the previous poll, and the byte offset
    only ever advances past a terminated line, so a torn tail is read
    on a later poll once its newline lands.
    """

    def __init__(self, path: Any, campaign: Optional[str] = None) -> None:
        self.path = Path(path)
        self.campaign = campaign
        self.offset = 0
        #: last-wins view of every record consumed so far, by case key
        self.records: Dict[str, Dict[str, Any]] = {}
        self.reopened = 0       # truncation/rotation restarts observed

    def poll(self) -> List[Dict[str, Any]]:
        """Consume newly completed lines; returns the new records."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return []           # not written yet (or rotated away)
        if size < self.offset:
            # the journal shrank underneath us: truncated or rotated.
            # Start over — last-wins replay over `records` converges to
            # the new file's content.
            self.offset = 0
            self.records.clear()
            self.reopened += 1
        if size == self.offset:
            return []
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            chunk = fh.read(size - self.offset)
        complete = chunk.rfind(b"\n") + 1
        if not complete:
            return []           # only a torn tail so far
        self.offset += complete
        from ..core.results.store import fold_records
        return fold_records(chunk[:complete].splitlines(), self.campaign,
                            self.records)


class CampaignWatch:
    """The ``repro watch`` view: one tailer plus derived statistics."""

    def __init__(self, journal: Any, *, campaign: Optional[str] = None,
                 meta: Optional[Mapping[str, Any]] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        journal_path, found_meta = resolve_journal(journal, campaign)
        self.journal_path = journal_path
        self.meta = dict(meta if meta is not None else found_meta)
        self.tailer = JournalTailer(journal_path,
                                    self.meta.get("campaign") or campaign)
        self.clock = clock
        self.started = clock()
        self.baseline: Optional[int] = None     # cases present at start

    # -- state -------------------------------------------------------------

    def refresh(self) -> int:
        """Poll the journal (and metadata); returns new-record count."""
        fresh = self.tailer.poll()
        if self.baseline is None:
            # everything present at the first poll predates this watch;
            # throughput counts only what arrives while we look
            self.baseline = len(self.tailer.records)
        try:
            meta = json.loads(
                (self.journal_path.parent / "meta.json").read_text())
            if isinstance(meta, dict):
                self.meta = meta
        except (OSError, ValueError):
            pass
        return len(fresh)

    def snapshot(self) -> Dict[str, Any]:
        """The watch's current state as plain data."""
        return self._snapshot(self._matrix())

    def _matrix(self):
        """The failure-mode matrix of the records tailed so far."""
        from ..core.results.matrix import FailureMatrix

        return FailureMatrix.from_records(
            sorted(self.tailer.records.values(),
                   key=lambda r: r.get("case", "")),
            campaign=self.meta.get("campaign", ""),
            app=self.meta.get("app", ""), golden=self.meta.get("golden"))

    def _snapshot(self, matrix) -> Dict[str, Any]:
        """:meth:`snapshot`, with the class and not-reached counts of
        ``matrix``."""
        records = self.tailer.records
        done = len(records)
        expected = self.meta.get("cases_expected")
        elapsed = max(self.clock() - self.started, 1e-9)
        seen = done - (self.baseline or 0)
        rate = seen / elapsed if seen > 0 else 0.0
        eta = None
        if expected and rate > 0 and expected > done:
            eta = (expected - done) / rate
        replays = [r["snapshot"] for r in records.values()
                   if r.get("snapshot")]
        return {
            "schema": WATCH_SCHEMA,
            "campaign": self.meta.get("campaign", ""),
            "app": self.meta.get("app", ""),
            "cases": done,
            "expected": expected,
            "classes": matrix.totals(),
            "not_reached": matrix.cases - matrix.fired,
            "rate": rate,
            "eta_seconds": eta,
            "reopened": self.tailer.reopened,
            "snapshot": {
                "replays": len(replays),
                "dirty_pages": sum(s.get("dirty_pages", 0)
                                   for s in replays),
                "restore_seconds": sum(s.get("seconds", 0.0)
                                       for s in replays),
            },
        }

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        matrix = self._matrix()
        snap = self._snapshot(matrix)
        done, expected = snap["cases"], snap["expected"]
        progress = f"{done} cases"
        if expected:
            pct = 100.0 * done / expected if expected else 0.0
            progress = f"{done}/{expected} cases ({pct:.0f}%)"
        lines = [f"watching campaign {snap['campaign'][:12]}"
                 + (f" ({snap['app']})" if snap['app'] else "")
                 + f": {progress}"]
        counted = ", ".join(f"{cls}={n}" for cls, n
                            in snap["classes"].items() if n)
        if snap["not_reached"]:
            counted += (", " if counted else "") \
                + f"not-reached={snap['not_reached']}"
        if counted:
            lines.append(f"  outcomes: {counted}")
        if snap["rate"] > 0:
            eta = snap["eta_seconds"]
            lines.append(f"  throughput: {snap['rate']:.1f} cases/sec"
                         + (f", eta {eta:.0f}s" if eta is not None else ""))
        replays = snap["snapshot"]["replays"]
        if replays:
            lines.append(
                f"  snapshots: {replays} replays, "
                f"{snap['snapshot']['dirty_pages']} dirty pages, "
                f"{snap['snapshot']['restore_seconds']:.3f}s restoring")
        if snap["reopened"]:
            lines.append(f"  journal rotated/truncated "
                         f"{snap['reopened']} time(s); re-read from start")
        if matrix.cases:
            lines.append("")
            lines.append(matrix.render())
        return "\n".join(lines)

    def done(self) -> bool:
        expected = self.meta.get("cases_expected")
        return bool(expected) and len(self.tailer.records) >= expected


def watch_journal(source: Any, *, campaign: Optional[str] = None,
                  interval: float = 1.0, once: bool = False,
                  max_polls: Optional[int] = None,
                  stream=None,
                  clock: Callable[[], float] = time.monotonic,
                  sleep: Callable[[float], None] = time.sleep) -> int:
    """The ``repro watch`` loop: poll, render, repeat until complete.

    ``once`` renders a single frame (scripting/CI); ``max_polls``
    bounds the loop for tests.  On a terminal each frame repaints in
    place; otherwise frames separate with a blank line.
    """
    import sys
    out = stream if stream is not None else sys.stdout
    watch = CampaignWatch(source, campaign=campaign, clock=clock)
    tty = bool(getattr(out, "isatty", lambda: False)())
    polls = 0
    while True:
        watch.refresh()
        polls += 1
        if tty:
            out.write("\x1b[2J\x1b[H")
        elif polls > 1:
            out.write("\n")
        out.write(watch.render() + "\n")
        out.flush()
        if once or watch.done() \
                or (max_polls is not None and polls >= max_polls):
            return 0
        sleep(interval)


# -- the HTML report ---------------------------------------------------------

_CLASS_COLORS = {
    "crash": "#c0392b",
    "hang": "#8e44ad",
    "silent-corruption": "#d35400",
    "detected-error": "#2980b9",
    "survived": "#27ae60",
}

_HTML_STYLE = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #222; }
h1, h2 { font-weight: 600; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #ccc; padding: .35rem .7rem; text-align: left; }
th { background: #f4f4f4; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.badge { display: inline-block; padding: 0 .5rem; border-radius: .6rem;
         color: #fff; font-size: 12px; }
details { margin: .5rem 0 .5rem 1rem; }
summary { cursor: pointer; }
pre { background: #f8f8f8; border: 1px solid #ddd; padding: .6rem;
      overflow-x: auto; font-size: 12px; }
.muted { color: #888; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _badge(cls: str) -> str:
    color = _CLASS_COLORS.get(cls, "#7f8c8d")
    return (f'<span class="badge" style="background:{color}">'
            f'{_esc(cls)}</span>')


def _case_anchor(case_id: str) -> str:
    return "case-" + "".join(c if c.isalnum() else "-" for c in case_id)


def _drilldown(record: Mapping[str, Any], golden: Optional[str]) -> str:
    from ..core.results.matrix import classify_record

    case_id = record.get("case", "")
    cls = classify_record(record, golden)
    parts = [f'<details id="{_case_anchor(case_id)}">'
             f"<summary><code>{_esc(case_id)}</code> {_badge(cls)} "
             f'<span class="muted">{_esc(record.get("status", "?"))}'
             f"</span></summary>"]
    rows = [("function", record.get("function", "")),
            ("fault class", record.get("fault_class", "")),
            ("fired", record.get("fired")),
            ("injections", record.get("injections")),
            ("instructions", record.get("instructions")),
            ("detail", record.get("detail") or "—")]
    coverage = record.get("coverage") or {}
    if coverage:
        rows.append(("coverage", f"{coverage.get('blocks', 0)} blocks, "
                                 f"digest {coverage.get('digest', '')}"))
    if record.get("output"):
        rows.append(("output digest", record["output"]
                     + (" (= golden)" if record["output"] == golden
                        else " (diverges from golden)" if golden else "")))
    parts.append("<table>" + "".join(
        f"<tr><th>{_esc(k)}</th><td>{_esc(v)}</td></tr>"
        for k, v in rows) + "</table>")
    if record.get("replay"):
        parts.append("<p>replay plan:</p><pre>"
                     + _esc(record["replay"]) + "</pre>")
    parts.append("</details>")
    return "".join(parts)


def render_html_report(matrix,
                      records: Mapping[str, Mapping[str, Any]],
                      *, title: str = "") -> str:
    """One self-contained HTML file: matrix, drilldowns, novelty.

    ``matrix`` is a :class:`~repro.core.results.FailureMatrix`;
    ``records`` is the journal's last-wins record map (the same thing
    ``ResultStore.load`` returns); every matrix cell links down to its
    cases' full detail and replay plans, and the coverage-novelty table
    ranks the cases a regression suite should keep.
    """
    from ..core.results.matrix import OUTCOME_CLASSES, coverage_novelty

    by_case = {r.get("case", ""): r for r in records.values()}
    golden = matrix.golden
    name = title or (f"{matrix.app or 'campaign'} "
                     f"{matrix.campaign[:12]}")
    totals = matrix.totals()
    parts = [
        "<!doctype html><html><head><meta charset=\"utf-8\">",
        f"<title>{_esc(name)} — failure-mode matrix</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>Failure-mode matrix — {_esc(name)}</h1>",
        f"<p>{matrix.cases} cases, {matrix.fired} fired, "
        f"{matrix.cases - matrix.fired} never reached their trigger."
        + (f' Golden output digest <code>{_esc(golden)}</code>.'
           if golden else "") + "</p>",
        "<p>" + " ".join(f"{_badge(cls)} {totals[cls]}"
                         for cls in OUTCOME_CLASSES) + "</p>",
    ]

    # the matrix itself, each non-empty cell linking to its drilldown
    parts.append("<h2>Matrix</h2><table><tr><th>function</th>"
                 "<th>fault class</th>"
                 + "".join(f"<th>{_esc(cls)}</th>"
                           for cls in OUTCOME_CLASSES)
                 + "<th>not reached</th></tr>")
    for row in matrix.sorted_rows():
        cells = []
        for cls in OUTCOME_CLASSES:
            cell = row.cells.get(cls)
            if cell is None:
                cells.append('<td class="num muted">·</td>')
                continue
            links = " ".join(
                f'<a href="#{_case_anchor(case)}">{cell.count}</a>'
                for case in [sorted(cell.cases)[0]])
            cells.append(f'<td class="num">{links}</td>')
        parts.append(f"<tr><td><code>{_esc(row.function)}</code></td>"
                     f"<td>{_esc(row.fault_class)}</td>"
                     + "".join(cells)
                     + f'<td class="num">'
                       f'{row.not_reached or "·"}</td></tr>')
    parts.append("</table>")

    # per-bucket drilldowns, grouped by outcome class, worst first
    parts.append("<h2>Cases</h2>")
    for cls in OUTCOME_CLASSES:
        cases = sorted(
            case for row in matrix.rows.values()
            for cell_cls, cell in row.cells.items() if cell_cls == cls
            for case in cell.cases)
        if not cases:
            continue
        parts.append(f"<h3>{_badge(cls)} {len(cases)} case(s)</h3>")
        for case_id in cases:
            record = by_case.get(case_id)
            if record is not None:
                parts.append(_drilldown(record, golden))

    # coverage-novelty ranking: the regression-suite shortlist
    ranked = coverage_novelty(sorted(records.values(),
                                     key=lambda r: r.get("case", "")))
    if ranked:
        parts.append(
            "<h2>Coverage novelty</h2>"
            "<p>Greedy ranking by marginal new blocks covered — the "
            "shortest prefix of this list that reaches every observed "
            "block is the regression-suite shortlist.</p>"
            "<table><tr><th>#</th><th>case</th><th>new blocks</th>"
            "<th>total blocks</th><th>digest</th></tr>")
        for i, entry in enumerate(ranked, 1):
            parts.append(
                f'<tr><td class="num">{i}</td>'
                f'<td><a href="#{_case_anchor(entry["case"])}">'
                f'<code>{_esc(entry["case"])}</code></a></td>'
                f'<td class="num">{entry["new_blocks"]}</td>'
                f'<td class="num">{entry["blocks"]}</td>'
                f'<td><code>{_esc(entry["digest"])}</code></td></tr>')
        parts.append("</table>")

    parts.append("</body></html>")
    return "".join(parts)
