"""Failure-mode matrix: classification, aggregation, gates, novelty.

The acceptance bar for the observatory is differential: the same
campaign journaled under the serial and process backends — and with
snapshot replay on — must serialize to **bit-identical**
``repro.matrix/1`` JSON.  The end-to-end test here runs all three arms
of a small libc workload whose cases land in four different taxonomy
buckets (detected-error, silent-corruption, survived, not-reached) and
compares the bytes.
"""

from __future__ import annotations

import json

import pytest

from repro.core.campaign import FaultCase, PrefixFactory, run_campaign
from repro.core.results import (FailureMatrix, OUTCOME_CLASSES, ResultStore,
                                classify_record, classify_status,
                                coverage_novelty, diff_matrices,
                                evaluate_gates, fault_class_of,
                                load_gate_spec, matrix_from_store,
                                record_class, record_fault_class,
                                triage_records, validate_gate_spec)
from repro.core.results.matrix import (CLASS_CRASH, CLASS_DETECTED,
                                       CLASS_HANG, CLASS_SILENT,
                                       CLASS_SURVIVED)
from repro.core.scenario import (DelayFault, ErrorCode, PartialWriteFault,
                                 ShortReadFault)
from repro.errors import ResultsError
from repro.kernel import Kernel, O_CREAT, O_RDWR
from repro.platform import LINUX_X86


# -- classifier ---------------------------------------------------------------


class TestClassifier:
    @pytest.mark.parametrize("status,expected", [
        ("SIGSEGV", CLASS_CRASH),
        ("SIGABRT", CLASS_CRASH),
        ("crashed", CLASS_CRASH),
        ("hung", CLASS_HANG),
        ("error-exit", CLASS_DETECTED),
    ])
    def test_status_classes(self, status, expected):
        assert classify_status(status) == expected

    def test_normal_matching_digest_survives(self):
        assert classify_status("normal", fired=True,
                               output="abcd", golden="abcd") \
            == CLASS_SURVIVED

    def test_normal_diverging_digest_is_silent_corruption(self):
        assert classify_status("normal", fired=True,
                               output="abcd", golden="efgh") \
            == CLASS_SILENT

    def test_missing_digest_never_diagnoses_corruption(self):
        # old journals / dead workers have no digest; degrade to
        # survived, never to a false corruption verdict
        assert classify_status("normal", fired=True,
                               output=None, golden="efgh") == CLASS_SURVIVED
        assert classify_status("normal", fired=True,
                               output="abcd", golden=None) == CLASS_SURVIVED

    def test_unfired_case_never_corrupts(self):
        # a fault that never fired cannot have corrupted anything even
        # if the digests differ (that would be a workload bug, not a
        # fault-tolerance verdict)
        assert classify_status("normal", fired=False,
                               output="abcd", golden="efgh") \
            == CLASS_SURVIVED

    def test_record_prefers_journaled_class(self):
        record = {"status": "normal", "fired": True,
                  "outcome_class": CLASS_SILENT}
        assert classify_record(record) == CLASS_SILENT

    def test_legacy_record_classified_from_status(self):
        assert classify_record({"status": "hung"}) == CLASS_HANG
        assert classify_record({"status": "normal", "fired": True}) \
            == CLASS_SURVIVED


class TestFaultClass:
    def test_every_action_kind(self):
        assert fault_class_of(ErrorCode(-1, "EIO")) == "return"
        assert fault_class_of(DelayFault(virtual_ns=1000)) == "delay"
        assert fault_class_of(ShortReadFault(max_bytes=1)) == "short-read"
        assert fault_class_of(PartialWriteFault(fraction=0.5)) \
            == "partial-write"

    def test_legacy_record_parses_action_token(self):
        assert record_fault_class({"action": "delay:1000"}) == "delay"
        assert record_fault_class({"action": "short-read:max=1:arg=3"}) \
            == "short-read"
        assert record_fault_class({}) == "return"

    def test_journaled_fault_class_wins(self):
        assert record_fault_class({"fault_class": "short-read",
                                   "action": "delay:1"}) == "short-read"


class TestTriageVocabulary:
    """Satellite: triage and the matrix share one label vocabulary."""

    def test_every_class_round_trips_through_triage(self):
        from repro.core.results.matrix import FAILURE_CLASSES
        for label in OUTCOME_CLASSES:
            record = {"outcome_class": label, "status": "normal",
                      "fired": True, "case": f"c-{label}",
                      "function": "read"}
            got = record_class(record)
            if label in FAILURE_CLASSES:
                assert got == label
            else:
                assert got is None      # survived is not a failure

    def test_silent_corruption_triages_without_include_errors(self):
        records = [
            {"case": "a", "function": "write", "status": "normal",
             "fired": True, "outcome_class": CLASS_SILENT},
            {"case": "b", "function": "open", "status": "error-exit",
             "fired": True, "outcome_class": CLASS_DETECTED},
        ]
        report = triage_records("deadbeef", records)
        assert [b.outcome_class for b in report.buckets] == [CLASS_SILENT]
        both = triage_records("deadbeef", records, include_errors=True)
        assert sorted(b.outcome_class for b in both.buckets) \
            == [CLASS_DETECTED, CLASS_SILENT]


# -- matrix aggregation -------------------------------------------------------


def _record(case, function, cls, *, fault_class="return", fired=True):
    return {"case": case, "function": function, "fired": fired,
            "status": "normal", "outcome_class": cls,
            "fault_class": fault_class}


class TestMatrix:
    def test_cells_count_fired_cases_only(self):
        matrix = FailureMatrix.from_records([
            _record("a", "read", CLASS_SURVIVED),
            _record("b", "read", CLASS_SILENT),
            _record("c", "read", None, fired=False),
        ])
        assert matrix.cases == 3
        assert matrix.fired == 2
        row = matrix.rows[("read", "return")]
        assert row.not_reached == 1
        assert row.cells[CLASS_SILENT].count == 1

    def test_totals_and_cell_counts(self):
        matrix = FailureMatrix.from_records([
            _record("a", "read", CLASS_SURVIVED),
            _record("b", "write", CLASS_CRASH, fault_class="delay"),
            _record("c", "write", CLASS_CRASH, fault_class="delay"),
        ])
        assert matrix.totals()[CLASS_CRASH] == 2
        assert matrix.cell_counts()[("write", "delay", CLASS_CRASH)] == 2

    def test_json_is_independent_of_record_order(self):
        records = [
            _record("a", "read", CLASS_SURVIVED),
            _record("b", "write", CLASS_SILENT),
            _record("c", "close", CLASS_DETECTED, fault_class="delay"),
        ]
        forward = FailureMatrix.from_records(records).to_json()
        backward = FailureMatrix.from_records(records[::-1]).to_json()
        assert forward == backward

    def test_render_mentions_every_function(self):
        matrix = FailureMatrix.from_records(
            [_record("a", "read", CLASS_SURVIVED),
             _record("b", "write", CLASS_HANG)],
            campaign="deadbeef", app="demo")
        text = matrix.render()
        assert "read" in text and "write" in text
        assert "total" in text and "(demo)" in text

    def test_diff_matrices(self):
        base = FailureMatrix.from_records(
            [_record("a", "read", CLASS_SURVIVED)]).to_dict()
        cur = FailureMatrix.from_records(
            [_record("a", "read", CLASS_SILENT),
             _record("b", "write", CLASS_SURVIVED)]).to_dict()
        diff = diff_matrices(base, cur)
        keys = {(d["function"], d["class"]): (d["baseline"], d["current"])
                for d in diff}
        assert keys[("read", CLASS_SURVIVED)] == (1, 0)
        assert keys[("read", CLASS_SILENT)] == (0, 1)
        assert keys[("write", CLASS_SURVIVED)] == (0, 1)

    def test_diff_identical_matrices_is_empty(self):
        doc = FailureMatrix.from_records(
            [_record("a", "read", CLASS_SURVIVED)]).to_dict()
        assert diff_matrices(doc, doc) == []


class TestCoverageNovelty:
    @staticmethod
    def _cov(*addrs):
        from repro.runtime.blocks import export_coverage
        return export_coverage({a: 1 for a in addrs})

    def test_greedy_marginal_ordering(self):
        records = [
            {"case": "small", "coverage": self._cov(1, 2)},
            {"case": "big", "coverage": self._cov(1, 2, 3, 4)},
            {"case": "novel", "coverage": self._cov(9)},
            {"case": "dup", "coverage": self._cov(3, 4)},
        ]
        ranked = coverage_novelty(records)
        # greedy set cover first; zero-novelty leftovers by descending
        # size then case id ("dup" and "small" tie at 2 blocks)
        assert [r["case"] for r in ranked] == ["big", "novel", "dup",
                                               "small"]
        assert ranked[0]["new_blocks"] == 4
        assert ranked[1]["new_blocks"] == 1
        assert ranked[2]["new_blocks"] == 0

    def test_deterministic_and_tolerant_of_missing_coverage(self):
        records = [
            {"case": "b", "coverage": self._cov(1)},
            {"case": "a", "coverage": self._cov(2)},
            {"case": "legacy"},                  # no coverage journaled
        ]
        first = coverage_novelty(records)
        again = coverage_novelty(records[::-1])
        assert first == again
        # coverage-less records rank last instead of vanishing: a mixed
        # journal still yields one total ranking
        assert [r["case"] for r in first] == ["a", "b", "legacy"]
        assert first[-1] == {"case": "legacy", "new_blocks": 0,
                             "blocks": 0, "digest": ""}

    def test_empty_coverage_ranks_last_with_stable_tie_break(self):
        records = [
            {"case": "z-empty", "coverage": self._cov()},
            {"case": "covered", "coverage": self._cov(1, 2)},
            {"case": "a-empty", "coverage": self._cov()},
        ]
        ranked = coverage_novelty(records)
        assert [r["case"] for r in ranked] == ["covered", "a-empty",
                                               "z-empty"]
        assert all(r["blocks"] == 0 for r in ranked[1:])

    def test_all_records_without_coverage(self):
        ranked = coverage_novelty([{"case": "b"}, {"case": "a"},
                                   {"case": "c", "coverage": None}])
        assert [r["case"] for r in ranked] == ["a", "b", "c"]

    def test_malformed_coverage_never_raises(self):
        records = [
            {"case": "good", "coverage": self._cov(1)},
            {"case": "bad-map", "coverage": {"digest": "d",
                                             "map": {"zz": 1}}},
            {"case": "bad-type", "coverage": "not-a-mapping"},
            {"case": "bad-map2", "coverage": {"map": "nope"}},
        ]
        ranked = coverage_novelty(records)
        assert [r["case"] for r in ranked] == ["good", "bad-map",
                                               "bad-map2", "bad-type"]
        # the malformed record keeps its journaled digest for triage
        assert ranked[1]["digest"] == "d"

    def test_empty_input(self):
        assert coverage_novelty([]) == []


# -- gates --------------------------------------------------------------------


def _matrix_doc():
    return FailureMatrix.from_records([
        _record("open", "open", CLASS_DETECTED),
        _record("write", "write", CLASS_SILENT),
        _record("read", "read", CLASS_SURVIVED, fault_class="short-read"),
        _record("close", "close", CLASS_SURVIVED),
    ], campaign="deadbeef", app="demo").to_dict()


class TestGates:
    def test_require_passes_and_fails(self):
        doc = _matrix_doc()
        spec = {"gates": [{"name": "reads-tolerated",
                           "where": {"function": "read",
                                     "fault_class": "short-read"},
                           "require": ["survived", "detected-error"]}]}
        assert evaluate_gates(doc, spec).ok
        strict = {"gates": [{"name": "all-tolerated",
                             "require": ["survived", "detected-error"]}]}
        report = evaluate_gates(doc, strict)
        assert not report.ok
        v = report.gates[0].violations
        assert [(x.function, x.outcome_class) for x in v] \
            == [("write", CLASS_SILENT)]

    def test_forbid(self):
        doc = _matrix_doc()
        assert evaluate_gates(
            doc, {"gates": [{"forbid": ["crash", "hang"]}]}).ok
        report = evaluate_gates(
            doc, {"gates": [{"forbid": ["silent-corruption"]}]})
        assert not report.ok
        assert report.gates[0].violations[0].cases == ["write"]

    def test_forbid_new_needs_baseline(self):
        doc = _matrix_doc()
        spec = {"gates": [{"baseline": True,
                           "forbid_new": ["silent-corruption"]}]}
        report = evaluate_gates(doc, spec)
        assert not report.ok
        assert "baseline" in report.gates[0].detail

    def test_forbid_new_detects_regression_with_cell_diff(self):
        base = _matrix_doc()
        spec = {"gates": [{"name": "no-new-silent", "baseline": True,
                           "forbid_new": ["silent-corruption"]}]}
        # same matrix as its own baseline: nothing new
        assert evaluate_gates(base, spec, baseline=base).ok
        # seed a regression: a second silent-corruption cell appears
        regressed = FailureMatrix.from_records([
            _record("open", "open", CLASS_DETECTED),
            _record("write", "write", CLASS_SILENT),
            _record("read", "read", CLASS_SILENT, fault_class="short-read"),
            _record("close", "close", CLASS_SURVIVED),
        ], campaign="deadbeef", app="demo").to_dict()
        report = evaluate_gates(regressed, spec, baseline=base)
        assert not report.ok
        violation = report.gates[0].violations[0]
        assert (violation.function, violation.baseline, violation.count) \
            == ("read", 0, 1)
        assert report.diff        # the cell-level diff rides along
        assert any(d["function"] == "read"
                   and d["class"] == CLASS_SILENT for d in report.diff)
        assert "read/short-read/silent-corruption" in report.render()

    def test_validate_rejects_bad_specs(self):
        with pytest.raises(ResultsError):
            validate_gate_spec({"gates": []})
        with pytest.raises(ResultsError):
            validate_gate_spec({"gates": [{"require": ["survived"],
                                           "forbid": ["crash"]}]})
        with pytest.raises(ResultsError):
            validate_gate_spec({"gates": [{"require": ["no-such-class"]}]})
        with pytest.raises(ResultsError):
            validate_gate_spec({"gates": [{"forbid_new": ["crash"]}]})
        with pytest.raises(ResultsError):
            validate_gate_spec({"schema": "repro.matrix/1",
                                "gates": [{"forbid": ["crash"]}]})

    def test_load_spec_json_and_yaml(self, tmp_path):
        spec = {"schema": "repro.gates/1",
                "gates": [{"name": "g", "forbid": ["crash"]}]}
        j = tmp_path / "gates.json"
        j.write_text(json.dumps(spec))
        assert load_gate_spec(j)["gates"][0]["name"] == "g"
        y = tmp_path / "gates.yaml"
        y.write_text("schema: repro.gates/1\n"
                     "gates:\n"
                     "  - name: g\n"
                     "    forbid: [crash]\n")
        pytest.importorskip("yaml")
        assert load_gate_spec(y)["gates"][0]["name"] == "g"

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(ResultsError):
            load_gate_spec(tmp_path / "absent.yaml")


# -- end to end: bit-identical matrices across every execution mode -----------


_E2E_CASES = [
    FaultCase("open", ErrorCode(-1, "EACCES"), 1),    # detected-error
    FaultCase("write", ErrorCode(-1, "ENOSPC"), 1),   # silent-corruption
    FaultCase("close", ErrorCode(-1, "EIO"), 1),      # survived
    FaultCase("read", ErrorCode(-1, "EIO"), 1),       # never called
]


def _observatory_factory(libc_linux) -> PrefixFactory:
    def setup(lfi):
        return lfi.make_process(Kernel(), [libc_linux.image])

    def run(lfi, proc):
        fd = proc.libcall("open", proc.cstr("/f"), O_CREAT | O_RDWR, 0o644)
        if fd < 0:
            return 1                    # fault detected and reported
        buf = proc.scratch_alloc(4)
        proc.mem_write(buf, b"data")
        proc.libcall("write", fd, buf, 4)   # return value ignored (bug)
        proc.libcall("close", fd)
        return 0

    return PrefixFactory(setup, run, workload_id="observatory")


@pytest.fixture(scope="module")
def observatory_runs(libc_linux, libc_profiles_linux, tmp_path_factory):
    """The same campaign journaled under all three execution modes."""
    arms = {
        "serial": dict(jobs=1),
        "process": dict(jobs=2, backend="process"),
        "snapshot": dict(jobs=1, snapshot=True),
    }
    stores = {}
    for label, kw in arms.items():
        store = ResultStore(tmp_path_factory.mktemp(f"obs-{label}"))
        run_campaign("observatory", _observatory_factory(libc_linux),
                     LINUX_X86, libc_profiles_linux, _E2E_CASES,
                     results=store, results_key={"app": "observatory"},
                     **kw)
        stores[label] = store
    return stores


class TestEndToEnd:
    def test_matrix_json_bit_identical_across_modes(self, observatory_runs):
        docs = {label: matrix_from_store(store).to_json()
                for label, store in observatory_runs.items()}
        reference = docs["serial"]
        for label, doc in docs.items():
            assert doc == reference, f"{label} matrix diverges from serial"

    def test_expected_taxonomy_cells(self, observatory_runs):
        matrix = matrix_from_store(observatory_runs["serial"])
        counts = matrix.cell_counts()
        assert counts[("open", "return", CLASS_DETECTED)] == 1
        assert counts[("write", "return", CLASS_SILENT)] == 1
        assert counts[("close", "return", CLASS_SURVIVED)] == 1
        assert matrix.rows[("read", "return")].not_reached == 1
        assert matrix.golden        # the no-fault digest anchors the run

    def test_records_carry_classification_signals(self, observatory_runs):
        store = observatory_runs["serial"]
        journal = store.open_campaign(store.resolve())
        assert journal.meta().get("golden")
        records = journal.finished()
        for record in records.values():
            assert record["fault_class"] == "return"
            assert record["outcome_class"] in OUTCOME_CLASSES
            if record["status"] == "normal":
                assert record["output"]
            if record["fired"]:
                cov = record["coverage"]
                assert cov and cov["blocks"] > 0 and cov["digest"]

    def test_coverage_identical_fresh_vs_snapshot(self, observatory_runs):
        def coverage_by_case(store):
            journal = store.open_campaign(store.resolve())
            return {r["case"]: r.get("coverage")
                    for r in journal.finished().values()}

        fresh = coverage_by_case(observatory_runs["serial"])
        replayed = coverage_by_case(observatory_runs["snapshot"])
        assert fresh == replayed

    def test_gate_over_real_campaign(self, observatory_runs):
        doc = matrix_from_store(observatory_runs["serial"]).to_dict()
        spec = {"gates": [
            {"name": "opens-tolerated", "where": {"function": "open"},
             "require": ["survived", "detected-error"]},
            {"name": "no-silent-writes",
             "forbid": ["silent-corruption"]},
        ]}
        report = evaluate_gates(doc, spec)
        assert report.gates[0].ok          # open faults are detected
        assert not report.gates[1].ok      # the write bug is caught
        assert not report.ok
