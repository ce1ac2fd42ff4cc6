"""The command-line interface: the paper's two-command workflow on disk."""

import json
import os

import pytest

from repro.cli import main
from repro.core.profiles import LibraryProfile
from repro.core.scenario import plan_from_xml


@pytest.fixture(scope="module")
def sysroot(tmp_path_factory):
    root = tmp_path_factory.mktemp("sysroot")
    assert main(["build-corpus", "--out", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def libc_profile_file(sysroot, tmp_path_factory):
    out = tmp_path_factory.mktemp("profiles") / "libc.profile.xml"
    assert main(["profile", str(sysroot / "libc.so.6.self"),
                 "--kernel", str(sysroot / "kernel.self"),
                 "-o", str(out)]) == 0
    return out


class TestBuildCorpus:
    def test_writes_images(self, sysroot):
        names = {p.name for p in sysroot.glob("*.self")}
        assert {"libc.so.6.self", "libapr-1.so.self",
                "libaprutil-1.so.self", "kernel.self"} <= names

    def test_other_platform(self, tmp_path):
        assert main(["build-corpus", "--out", str(tmp_path),
                     "--platform", "solaris-sparc"]) == 0
        assert (tmp_path / "libc.so.6.self").exists()


class TestProfile:
    def test_profile_xml_valid(self, libc_profile_file):
        profile = LibraryProfile.from_xml(libc_profile_file.read_text())
        assert profile.soname == "libc.so.6"
        close = profile.function("close")
        values = {v for se in close.find(-1).side_effects
                  for v in se.values}
        assert values == {-9, -5, -4}

    def test_profile_to_stdout(self, sysroot, capsys):
        assert main(["profile", str(sysroot / "libc.so.6.self")]) == 0
        out = capsys.readouterr().out
        assert "<profile" in out

    def test_missing_file(self, capsys):
        assert main(["profile", "/does/not/exist.self"]) == 2

    def test_with_dependency_libraries(self, sysroot, tmp_path, capsys):
        out = tmp_path / "apr.xml"
        assert main(["profile", str(sysroot / "libapr-1.so.self"),
                     "--with-library", str(sysroot / "libc.so.6.self"),
                     "--kernel", str(sysroot / "kernel.self"),
                     "-o", str(out)]) == 0
        profile = LibraryProfile.from_xml(out.read_text())
        assert -1 in profile.function("apr_file_read").retvals()


class TestGeneratePlan:
    def test_random_plan(self, libc_profile_file, tmp_path):
        out = tmp_path / "plan.xml"
        assert main(["generate-plan", str(libc_profile_file),
                     "--mode", "random", "--probability", "0.2",
                     "--seed", "9", "-o", str(out)]) == 0
        plan = plan_from_xml(out.read_text())
        assert plan.seed == 9
        assert "close" in plan.functions()

    def test_exhaustive_with_function_filter(self, libc_profile_file,
                                             tmp_path):
        out = tmp_path / "plan.xml"
        assert main(["generate-plan", str(libc_profile_file),
                     "--mode", "exhaustive", "--function", "close",
                     "-o", str(out)]) == 0
        plan = plan_from_xml(out.read_text())
        assert plan.functions() == ["close"]

    def test_io_preset(self, libc_profile_file, tmp_path):
        out = tmp_path / "plan.xml"
        assert main(["generate-plan", str(libc_profile_file),
                     "--mode", "io", "--probability", "0.1",
                     "-o", str(out)]) == 0
        plan = plan_from_xml(out.read_text())
        assert "write" in plan.functions()


class TestInspection:
    def test_objdump(self, sysroot, capsys):
        assert main(["objdump", str(sysroot / "libc.so.6.self"),
                     "--function", "close"]) == 0
        out = capsys.readouterr().out
        assert "<close>:" in out and "int 0x80" in out

    def test_nm(self, sysroot, capsys):
        assert main(["nm", str(sysroot / "libc.so.6.self")]) == 0
        assert "T close" in capsys.readouterr().out

    def test_ldd(self, sysroot, capsys):
        assert main(["ldd", str(sysroot / "libaprutil-1.so.self"),
                     "--path", str(sysroot)]) == 0
        out = capsys.readouterr().out
        assert "libapr-1.so" in out and "libc.so.6" in out

    def test_stub_source(self, libc_profile_file, tmp_path, capsys):
        plan = tmp_path / "plan.xml"
        main(["generate-plan", str(libc_profile_file), "--mode",
              "exhaustive", "--function", "close", "-o", str(plan)])
        assert main(["stub-source", str(plan)]) == 0
        out = capsys.readouterr().out
        assert "dlsym(RTLD_NEXT" in out


class TestRunDemo:
    def test_pidgin_demo_crashes_under_io_faults(self, libc_profile_file,
                                                 sysroot, tmp_path,
                                                 capsys):
        plan = tmp_path / "plan.xml"
        main(["generate-plan", str(libc_profile_file), "--mode", "io",
              "--probability", "0.1", "--seed", "3", "-o", str(plan)])
        report = tmp_path / "log.txt"
        replay = tmp_path / "replay.xml"
        code = main(["run-demo", "pidgin", "--plan", str(plan),
                     "--profiles", str(libc_profile_file),
                     "--report", str(report),
                     "--replay-out", str(replay)])
        out = capsys.readouterr().out
        assert "outcome:" in out
        assert report.exists() and replay.exists()
        assert code in (0, 1)
        if code == 1:                       # crashed: replay must parse
            assert plan_from_xml(replay.read_text()).triggers

    def test_miniweb_demo_normal_without_faults(self, libc_profile_file,
                                                tmp_path, capsys):
        plan = tmp_path / "plan.xml"
        main(["generate-plan", str(libc_profile_file), "--mode",
              "random", "--probability", "0.000001", "--seed", "1",
              "-o", str(plan)])
        code = main(["run-demo", "miniweb", "--plan", str(plan)])
        assert code == 0
        assert "outcome: normal" in capsys.readouterr().out

    def test_minidb_demo_runs(self, libc_profile_file, tmp_path, capsys):
        plan = tmp_path / "plan.xml"
        main(["generate-plan", str(libc_profile_file), "--mode",
              "random", "--probability", "0.01", "--seed", "5",
              "--function", "fsync", "-o", str(plan)])
        code = main(["run-demo", "minidb", "--plan", str(plan)])
        assert code in (0, 1)


class TestCampaign:
    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory):
        # shared across the class so only the first test pays for the
        # libc profile; the others exercise the cache-hit path
        return tmp_path_factory.mktemp("campaign-store")

    def test_campaign_with_jobs_and_summary(self, store_dir, tmp_path,
                                            capsys):
        summary_path = tmp_path / "summary.json"
        code = main(["campaign", "minidb",
                     "--function", "open", "--function", "read",
                     "--max-codes", "2", "--jobs", "2",
                     "--timeout", "30",
                     "--store", str(store_dir),
                     "--summary-json", str(summary_path)])
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "systematic campaign for minidb" in out
        assert "cases/sec" in out
        summary = json.loads(summary_path.read_text())
        assert summary["schema"] == "repro.run-summary/1"
        # the pool the campaign ran on: two workers, clamped to the CPUs
        assert summary["jobs"] == min(2, os.cpu_count() or 1)
        assert summary["backend"] == "process"
        assert [s["kind"] for s in summary["stages"]] \
            == ["profile", "campaign"]
        assert summary["stages"][1]["cases"] == 4

    def test_jobs_zero_runs_one_worker_per_cpu(self, store_dir, capsys):
        cpus = os.cpu_count() or 1
        code = main(["campaign", "minidb", "--function", "close",
                     "--max-codes", "1", "--jobs", "0",
                     "--store", str(store_dir)])
        assert code in (0, 1)
        backend = "process" if cpus > 1 else "serial"
        assert f"jobs={cpus}, backend={backend}," \
            in capsys.readouterr().out

    def test_backend_thread_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "minidb", "--backend", "thread"])
        assert excinfo.value.code == 2
        assert "'thread'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--timeout", "5"]])
    def test_serial_backend_refuses_jobs_and_timeout(self, flag, store_dir,
                                                     capsys):
        code = main(["campaign", "minidb", "--function", "close",
                     "--max-codes", "1", "--backend", "serial",
                     "--store", str(store_dir)] + flag)
        assert code == 2
        assert f"'{flag[0][2:]}'" in capsys.readouterr().err

    def test_campaign_json_is_machine_readable(self, store_dir, capsys):
        code = main(["campaign", "minidb", "--function", "close",
                     "--max-codes", "1", "--store", str(store_dir),
                     "--json"])
        assert code in (0, 1)
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "campaign"
        assert report["app"] == "minidb"
        assert len(report["results"]) == 1

    def test_campaign_report_file(self, store_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["campaign", "miniweb", "--function", "close",
                     "--max-codes", "1", "--store", str(store_dir),
                     "--report", str(report_path)])
        assert code in (0, 1)
        report = json.loads(report_path.read_text())
        assert report["app"] == "miniweb"
        assert report["schema"] == "repro.report/1"

    def test_profile_jobs_flag(self, sysroot, tmp_path, capsys):
        """Profiling runs on one thread: ``--jobs`` is a usage error."""
        out = tmp_path / "libc.xml"
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", str(sysroot / "libc.so.6.self"),
                  "--kernel", str(sysroot / "kernel.self"),
                  "--jobs", "2", "-o", str(out)])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_cases_needs_guided(self, store_dir, capsys):
        code = main(["campaign", "minidb", "--function", "close",
                     "--max-codes", "1", "--store", str(store_dir),
                     "--budget-cases", "3"])
        assert code == 2
        assert "budget_cases" in capsys.readouterr().err


class TestResultsAndTriage:
    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("triage-profile-store")

    def _campaign(self, store_dir, results_dir, *extra):
        return ["campaign", "minidb", "--function", "open",
                "--max-codes", "2", "--store", str(store_dir),
                "--results-dir", str(results_dir), *extra]

    def test_campaign_journals_then_resumes(self, store_dir, tmp_path,
                                            capsys):
        results = tmp_path / "results"
        code = main(self._campaign(store_dir, results))
        assert code in (0, 1)
        journals = list(results.glob("*/journal.jsonl"))
        assert len(journals) == 1
        assert len(journals[0].read_text().splitlines()) == 2
        capsys.readouterr()

        code = main(self._campaign(store_dir, results, "--resume"))
        assert code in (0, 1)
        captured = capsys.readouterr()
        assert "resumed: 2 cases from the result journal, 0 (re)run" \
            in captured.err
        # the resumed report is rendered exactly like a fresh one
        assert "systematic campaign for minidb" in captured.out

    def test_triage_list_and_buckets(self, store_dir, tmp_path, capsys):
        results = tmp_path / "results"
        assert main(self._campaign(store_dir, results)) in (0, 1)
        capsys.readouterr()

        assert main(["triage", str(results), "--list"]) == 0
        listing = capsys.readouterr().out
        assert "minidb" in listing and "2 cases" in listing

        # graceful error-exits triage only on request; without them
        # this campaign has nothing to bucket (exit 0)
        assert main(["triage", str(results)]) == 0
        assert "no failures to triage" in capsys.readouterr().out

        replays = tmp_path / "replays"
        code = main(["triage", str(results), "--include-errors",
                     "--json", "--replay-dir", str(replays)])
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.triage/1"
        if report["buckets"]:
            assert code == 1
            written = list(replays.glob("bucket-*.xml"))
            assert len(written) == len(
                [b for b in report["buckets"] if b["replay"]])
            for path in written:
                assert plan_from_xml(path.read_text()).triggers
        else:
            assert code == 0

    def test_triage_missing_store_is_empty(self, tmp_path, capsys):
        assert main(["triage", str(tmp_path / "none"), "--list"]) == 0
        assert capsys.readouterr().out == ""


class TestObservatory:
    """``repro report`` / ``repro gate`` / ``repro watch`` over a real
    journaled campaign."""

    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("observatory-profile-store")

    @pytest.fixture(scope="class")
    def results(self, store_dir, tmp_path_factory):
        results = tmp_path_factory.mktemp("observatory-results")
        code = main(["campaign", "minidb", "--function", "open",
                     "--max-codes", "2", "--store", str(store_dir),
                     "--results-dir", str(results)])
        assert code in (0, 1)
        return results

    def test_report_renders_matrix(self, results, capsys):
        assert main(["report", str(results)]) == 0
        out = capsys.readouterr().out
        assert "failure-mode matrix of campaign" in out
        assert "fault-class" in out and "open" in out

    def test_report_json_and_artifacts(self, results, tmp_path, capsys):
        matrix_out = tmp_path / "matrix.json"
        html_out = tmp_path / "report.html"
        assert main(["report", str(results), "--json",
                     "--out", str(matrix_out),
                     "--html", str(html_out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.matrix/1"
        assert doc["cases"] == 2
        # the --out artifact is the gate baseline: same document
        assert json.loads(matrix_out.read_text()) == doc
        html = html_out.read_text()
        assert html.startswith("<!doctype html>")
        assert "failure-mode matrix" in html
        assert "replay plan" in html

    def test_gate_pass_and_fail(self, results, tmp_path, capsys):
        spec = tmp_path / "gates.json"
        spec.write_text(json.dumps({
            "schema": "repro.gates/1",
            "gates": [{"name": "no-hangs", "forbid": ["hang"]}]}))
        assert main(["gate", str(spec), str(results)]) == 0
        assert "PASS" in capsys.readouterr().out

        # a gate the campaign cannot satisfy: open faults never all
        # survive silently in every class — forbid everything that
        # actually happened
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps({
            "schema": "repro.gates/1",
            "gates": [{"name": "nothing-happened",
                       "where": {"function": "open"},
                       "forbid": ["crash", "hang", "silent-corruption",
                                  "detected-error", "survived"]}]}))
        report_out = tmp_path / "gate-report.json"
        code = main(["gate", str(strict), str(results),
                     "--report", str(report_out)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "nothing-happened" in out
        report = json.loads(report_out.read_text())
        assert report["schema"] == "repro.gate-report/1"
        assert not report["ok"]

    def test_gate_regression_against_doctored_baseline(self, results,
                                                       tmp_path, capsys):
        # CI contract: baseline from yesterday's report, forbid_new
        # flags every cell that appeared or grew since
        baseline_path = tmp_path / "baseline.json"
        assert main(["report", str(results), "--json",
                     "--out", str(baseline_path)]) == 0
        capsys.readouterr()
        baseline = json.loads(baseline_path.read_text())
        baseline["rows"] = []               # yesterday everything was fine
        baseline_path.write_text(json.dumps(baseline))

        spec = tmp_path / "gates.json"
        spec.write_text(json.dumps({
            "schema": "repro.gates/1",
            "gates": [{"name": "no-regressions", "baseline": True,
                       "forbid_new": ["crash", "hang", "silent-corruption",
                                      "detected-error", "survived"]}]}))
        code = main(["gate", str(spec), str(results),
                     "--baseline", str(baseline_path), "--json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["ok"]
        gate = report["gates"][0]
        assert gate["name"] == "no-regressions" and not gate["ok"]
        assert gate["violations"]           # cell-level detail
        assert report["diff"]               # the regressed cells

        # rendered mode shows the diff section for humans
        code = main(["gate", str(spec), str(results),
                     "--baseline", str(baseline_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "cell diff vs baseline:" in out

    def test_watch_once_over_finished_campaign(self, results, capsys):
        assert main(["watch", str(results), "--once"]) == 0
        out = capsys.readouterr().out
        assert "watching campaign" in out
        assert "2/2 cases (100%)" in out
        assert "failure-mode matrix" in out

    def test_stats_latency_and_fault_sections(self, tmp_path, capsys):
        # synthesize the --log-json stream a miniweb load campaign
        # writes: a final metrics.snapshot with the latency histogram,
        # the generalized-fault counters and the code-cache counters
        from repro.obs import EventLog, FileSink, MetricsRegistry

        registry = MetricsRegistry()
        latency = registry.histogram(
            "repro_request_latency_ns", labelnames=("page",),
            buckets=(1e6, 4e6, 16e6, 64e6))
        for ns in (0.5e6, 2e6, 8e6, 32e6):
            latency.observe(ns, page="/index.html")
        registry.counter("repro_virtual_delay_ns_total",
                         labelnames=("function",)).inc(25e6, function="read")
        registry.counter("repro_partial_io_bytes_total",
                         labelnames=("function",)).inc(512, function="write")
        registry.counter("repro_blocks_compiled_total").inc(10)
        registry.counter("repro_block_cache_hits_total").inc(30)
        registry.counter("repro_code_cache_evictions_total").inc(2)

        log = tmp_path / "run.jsonl"
        events = EventLog()
        events.attach(FileSink(log))
        events.emit("metrics.snapshot", metrics=registry.snapshot())
        events.close()

        assert main(["stats", str(log)]) == 0
        out = capsys.readouterr().out
        assert "request latency: 4 requests" in out
        assert "p50=" in out and "p99=" in out
        assert "injected latency: 25.00ms of virtual delay" in out
        assert "partial I/O: 512 bytes trimmed off transfer counts" in out
        assert ("code cache: 30 hits, 10 blocks compiled (75% hit ratio), "
                "2 evicted") in out
