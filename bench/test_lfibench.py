"""Tests of the benchmark itself (not part of the tier-1 suite).

Run by explicit path from the repository root::

    PYTHONPATH=src python -m pytest bench/test_lfibench.py

Every workload runs one small round through ``run.run_all``'s function
arguments, in real child processes, untraced and traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
SEED = workloads.DEFAULT_SEED
SMALL = dict(small=True, rounds=1, setups=1)


def _run_all(names, trace, **options):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc, docs = run.run_all(names, SEED, 1, trace, **dict(SMALL,
                                                              **options))
    return rc, docs, stdout.getvalue().splitlines()


@pytest.fixture(scope="module")
def untraced():
    return _run_all(NAMES, False)


@pytest.fixture(scope="module")
def traced():
    return _run_all(NAMES, True)


def _printed(lines, doc, name, unit):
    return any(line.split()[:1] == [name] and line.split()[-1] == unit
               for line in lines)


def test_every_end_to_end_metric_printed_with_unit(untraced):
    rc, docs, lines = untraced
    assert rc == 0
    assert [d["workload"] for d in docs] == NAMES
    for doc in docs:
        assert doc["correct"] and doc["failed"] == 0
        for metric in SPEC["end_to_end"]:
            assert doc["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert doc["metrics"][metric["name"]]["value"] > 0
            assert _printed(lines, doc, metric["name"], metric["unit"])
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_every_per_layer_metric_printed_with_unit(traced):
    rc, docs, lines = traced
    assert rc == 0
    for doc in docs:
        assert set(doc["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for metric in SPEC["per_layer"]:
            assert _printed(lines, doc, metric["name"], metric["unit"])


def test_layer_self_times_partition_the_traced_wall(traced):
    _, docs, _ = traced
    for doc in docs:
        part = doc["detail"]["partition"]
        assert part["wall_s"] > 0
        assert abs(part["self_sum_s"] - part["wall_s"]) \
            <= 0.01 * part["wall_s"], doc["workload"]


def test_traced_layers_see_their_workloads(traced):
    by_name = {d["workload"]: d["metrics"] for d in traced[1]}
    for name in NAMES:
        assert by_name[name]["runtime.guest_s"]["value"] > 0
        assert by_name[name]["kernel.syscall_calls"]["value"] > 0
    for name in ("oltp-interposed", "web-interposed"):
        # passthrough triggers never go dormant: every call evaluates
        assert by_name[name]["core.controller.dormant_ratio"]["value"] == 0
        assert by_name[name]["core.controller.intercept_calls"]["value"] > 0
    guided = by_name["campaign-web-guided"]
    assert guided["core.exec.snapshot_runner_calls"]["value"] > 0
    assert guided["core.search.schedule_calls"]["value"] > 0
    assert by_name["campaign-minidb"]["core.exec.golden_calls"]["value"] == 1


def test_tampered_reference_exits_nonzero(untraced):
    _, docs, _ = untraced
    good = {"oltp-interposed": {"seed": None, "digest": docs[2]["detail"]
                                ["digest"]}}
    rc, _, _ = _run_all(["oltp-interposed"], False, digests=good)
    assert rc == 0
    bad = {"oltp-interposed": {"seed": None, "digest": "0" * 16}}
    rc, docs, lines = _run_all(["oltp-interposed"], False, digests=bad)
    assert rc != 0
    assert not docs[0]["correct"]
    assert not json.loads(lines[-1])["correct"]


def test_same_seed_same_stream_other_seed_other_order():
    for cls in (workloads.OltpInterposed, workloads.WebInterposed):
        w = cls(SEED, Path("."), small=False)
        first = w.stream(random.Random(SEED))
        assert first == w.stream(random.Random(SEED))
        other = w.stream(random.Random(SEED + 1))
        assert other != first
        assert sorted(k for k, _ in other) == sorted(k for k, _ in first)


def test_campaign_order_is_seeded_and_digest_is_not(tmp_path):
    built = {}
    for seed in (SEED, SEED, SEED + 1):
        w = workloads.CampaignMinidb(seed, tmp_path / str(len(built)),
                                     small=True)
        w.setup()
        built[len(built)] = ([c.case_id() for c in w.cases],
                             w.reference_digest)
    (same, digest), (again, digest2), (other, digest3) = built.values()
    assert same == again and digest == digest2
    assert other != same and sorted(other) == sorted(same)
    assert digest3 == digest


def test_install_is_undone():
    from repro.kernel.kernel import Kernel
    from repro.runtime.cpu import Cpu
    from repro.runtime.snapshot import MachineSnapshot

    originals = (Cpu.__dict__["run"], Kernel.__dict__["dispatch"],
                 MachineSnapshot.__dict__["capture"])
    uninstall = layers.install(layers.Recorder())
    assert Cpu.__dict__["run"] is not originals[0]
    assert isinstance(MachineSnapshot.__dict__["capture"], classmethod)
    uninstall()
    assert (Cpu.__dict__["run"], Kernel.__dict__["dispatch"],
            MachineSnapshot.__dict__["capture"]) == originals


def _doc(workload, seed, value, failed=0):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    return {"workload": workload, "seed": seed, "trace": False,
            "failed": failed, "metrics": metrics}


def _write(directory, docs):
    directory.mkdir()
    for i, doc in enumerate(docs):
        (directory / f"{i}.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("values_b, expected", [
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], "unchanged"),
    # both metrics checked below have bounds under 50%
    ([50, 51, 49, 50, 52, 48, 50, 51, 49, 50], "improved"),
    ([150, 151, 149, 150, 152, 148, 150, 151, 149, 150], "regressed"),
    ([60, 140, 70, 130, 100, 65, 135, 80, 120, 100], "unresolved"),
])
def test_compare_verdicts(tmp_path, values_b, expected):
    a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    _write(tmp_path / "a", [_doc("oltp-interposed", s, v)
                            for s, v in enumerate(a)])
    # op_p50_ms is lower-is-better: smaller B values improve it
    _write(tmp_path / "b", [_doc("oltp-interposed", s, v)
                            for s, v in enumerate(values_b)])
    result = compare.compare(tmp_path / "a", tmp_path / "b")
    verdicts = {r["metric"]: r["verdict"] for r in result["rows"]}
    assert verdicts["op_p50_ms"] == expected
    # the same numbers read the other way for a higher-is-better metric
    mirrored = {"improved": "regressed", "regressed": "improved"}
    assert verdicts["ops_per_s"] == mirrored.get(expected, expected)


def test_compare_counts_more_failures_as_regression(tmp_path):
    _write(tmp_path / "a", [_doc("web-interposed", s, 100)
                            for s in range(3)])
    _write(tmp_path / "b", [_doc("web-interposed", s, 100, failed=1)
                            for s in range(3)])
    result = compare.compare(tmp_path / "a", tmp_path / "b")
    assert not result["ok"]
