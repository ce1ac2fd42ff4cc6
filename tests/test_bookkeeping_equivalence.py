"""A campaign's per-case bookkeeping keeps its bytes.

The case key (a digest of the case's plan XML), the replay script, the
journal line, the exported coverage and the interceptor shim are
produced for every case, so each takes a fast path.  These tests hold
each fast path to what the code it replaced produced: the ElementTree
plan writer (``tests/plan_xml_reference.py``), a per-block coverage
hash, a shim assembled from scratch and a ``json.dumps`` of the whole
record.  They also check that two runs of one campaign journal the same
records, whatever the wall clock read.
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _campaign_factory
from repro.core.campaign import (CaseResult, FaultCase, enumerate_cases,
                                 run_campaign)
from repro.core.controller import TestOutcome, synthesize_shim
from repro.core.controller.logbook import InjectionRecord
from repro.core.controller.replay import build_replay_plan
from repro.core.controller.stubs import _assemble, generate_c_source
from repro.core.results import ResultStore, case_digest, result_record
from repro.core.results.store import RESULT_SCHEMA, fold_records
from repro.core.scenario import ErrorCode, plan_to_xml
from repro.core.scenario.model import DelayFault
from repro.obs import MemorySink, Telemetry
from repro.platform import LINUX_X86
from repro.runtime.blocks import coverage_digest, export_coverage

from .plan_xml_reference import reference_case_digest, reference_plan_to_xml

#: a few functions' share of the exhaustive list: cases that fire, and
#: cases past the golden count that the parent derives
_FUNCTIONS = ("open", "close", "fsync", "unlink")


def _exhaustive(profiles):
    return enumerate_cases(profiles, call_ordinals=(1, 2, 3))


def _journal(store):
    """A store's only journal, record by record in file order."""
    path = store.open_campaign(store.resolve()).journal_path
    return [json.loads(line) for line in path.read_text().splitlines()]


def _campaign(profiles, cases, store, **options):
    return run_campaign("minidb", _campaign_factory("minidb", LINUX_X86),
                        LINUX_X86, profiles, cases, results=store,
                        **options)


class TestCaseKeysAndReplayScripts:
    def test_every_exhaustive_case_key_is_the_reference_digest(
            self, libc_profiles_linux):
        """The minidb and miniweb exhaustive lists are both this list:
        every profiled libc function x error code x ordinals 1-3."""
        cases = _exhaustive(libc_profiles_linux)
        assert len(cases) == 585
        for case in cases:
            assert case_digest(case) == reference_case_digest(case)

    def test_replay_scripts_match_the_reference_writer(
            self, libc_profiles_linux):
        """The replay script of a case that injected once, and the
        empty one of a case that did not (a derived case's)."""
        for case in _exhaustive(libc_profiles_linux):
            record = InjectionRecord(
                sequence=1, test_id=case.case_id(),
                function=case.function, call_number=case.call_ordinal,
                retval=case.code.retval, errno=case.code.errno,
                calloriginal=False)
            for records in ((record,), ()):
                plan = build_replay_plan(records,
                                         name=f"replay-{case.case_id()}")
                assert plan_to_xml(plan) == reference_plan_to_xml(plan)

    def test_a_journal_keyed_by_the_reference_resumes_without_reruns(
            self, libc_profiles_linux, tmp_path, monkeypatch):
        import repro.core.results as results

        cases = [c for c in _exhaustive(libc_profiles_linux)
                 if c.function in _FUNCTIONS]
        with monkeypatch.context() as patch:
            patch.setattr(results, "case_digest", reference_case_digest)
            first = _campaign(libc_profiles_linux, cases,
                              ResultStore(tmp_path))
        again = _campaign(libc_profiles_linux, cases,
                          ResultStore(tmp_path), resume=True)
        assert again.resumed == {"skipped": len(cases), "replayed": 0}
        assert [r.outcome.status for r in again.results] == \
            [r.outcome.status for r in first.results]
        assert any(r.derived for r in again.results)


class TestJournalLines:
    def test_two_runs_journal_the_same_records_but_seconds(
            self, libc_profiles_linux, tmp_path):
        """Captured events ship without their wall-clock ``ts``, so with
        telemetry on two runs differ only in each case's ``seconds``."""
        cases = [c for c in _exhaustive(libc_profiles_linux)
                 if c.function in _FUNCTIONS]
        journals = []
        for run in ("a", "b"):
            store = ResultStore(tmp_path / run)
            _campaign(libc_profiles_linux, cases, store,
                      telemetry=Telemetry(sinks=[MemorySink()]))
            journals.append([{k: v for k, v in rec.items()
                              if k != "seconds"}
                             for rec in _journal(store)])
        first, second = journals
        assert len(first) == len(cases)
        assert any(rec["events"] for rec in first)
        assert first == second

    def test_lines_parse_to_the_record_and_share_only_equal_tails(
            self, tmp_path):
        """Unfired records of one function reuse the encoded coverage,
        metrics and sites only while those are equal."""
        journal = ResultStore(tmp_path).open_campaign("k")
        case = FaultCase("open", ErrorCode(-1, "EIO"), 3)

        def unfired(blocks, worker):
            return CaseResult(
                case=case, outcome=TestOutcome("t", "normal"), fired=False,
                firings=0, calls=2, worker=worker,
                coverage=export_coverage({16 * i: i for i in blocks}),
                metrics={"counters": {"x": [[[], blocks[0]]]}},
                sites=[{"function": "open", "stack": list(blocks)}])

        results = [unfired((1, 2), "main"), unfired((1, 2), "proc-9"),
                   unfired((1, 3), "main"), unfired((1, 2), "main")]
        fired = unfired((4,), "main")
        fired.firings = 1
        results.append(fired)
        for result in results:
            journal.record("key", case, result)
        journal.close()
        lines = journal.journal_path.read_bytes().splitlines()
        assert [json.loads(line) for line in lines] == \
            [result_record("k", "key", case, r) for r in results]

    def test_fold_reads_sorted_and_tail_lines_alike(self, tmp_path):
        journal = ResultStore(tmp_path).open_campaign("k")
        case = FaultCase("read", DelayFault(5), 1)
        result = CaseResult(case=case, outcome=TestOutcome("t", "normal"),
                            fired=True, firings=1, calls=4,
                            coverage=export_coverage({8: 2}),
                            metrics={}, sites=[])
        journal.record("key", case, result)
        journal.close()
        (line,) = journal.journal_path.read_bytes().splitlines()
        rec = result_record("k", "key", case, result)
        sorted_line = json.dumps(rec, sort_keys=True).encode()
        assert line != sorted_line
        for text in (line, sorted_line):
            into = {}
            assert fold_records([text], "k", into) == [rec]
            assert into["key"]["schema"] == RESULT_SCHEMA


def _reference_coverage_digest(coverage):
    """The digest as first defined: one hash update per block."""
    h = hashlib.sha256()
    for addr in sorted(coverage):
        h.update(f"{addr:#x}:{coverage[addr]};".encode("ascii"))
    return h.hexdigest()[:16]


@given(st.dictionaries(st.integers(0, (1 << 32) - 1),
                       st.integers(0, 1 << 40), max_size=200))
@settings(max_examples=100, deadline=None)
def test_coverage_export_keeps_its_digest_and_map(coverage):
    exported = export_coverage(coverage)
    assert exported["digest"] == coverage_digest(coverage) == \
        _reference_coverage_digest(coverage)
    assert exported["blocks"] == len(coverage)
    assert exported["executed"] == sum(coverage.values())
    assert list(exported["map"].items()) == \
        [(f"{addr:#010x}", coverage[addr]) for addr in sorted(coverage)]


def test_shims_of_one_function_list_share_their_assembly():
    functions = ["read", "close"]
    first, first_source = synthesize_shim(functions, LINUX_X86,
                                          soname="liblfi_shim1.so",
                                          eval_symbol="__lfi_eval_1")
    second, second_source = synthesize_shim(tuple(functions), LINUX_X86,
                                            soname="liblfi_shim2.so",
                                            eval_symbol="__lfi_eval_2")
    text, exports, source = _assemble.__wrapped__(tuple(functions),
                                                  LINUX_X86)
    for image, c_source in ((first, first_source), (second, second_source)):
        assert (image.text, image.exports) == (text, exports)
        assert c_source == source == generate_c_source(functions,
                                                       LINUX_X86)
    assert (first.soname, first.imports) == ("liblfi_shim1.so",
                                             ("__lfi_eval_1",))
    assert (second.soname, second.imports) == ("liblfi_shim2.so",
                                               ("__lfi_eval_2",))
    assert first is not second
