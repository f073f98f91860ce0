"""Tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import harness, passes

SPEC = json.loads(harness.BENCHMARK_JSON.read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_layer_fold_on_synthetic_profile():
    def entry(tottime):
        return (1, 1, tottime, tottime, {})

    stats = {
        ("/x/src/repro/sim/engine.py", 10, "run"): entry(2.0),
        ("/x/src/repro/sim/random.py", 5, "draw"): entry(0.5),
        ("/x/src/repro/ni/interface.py", 7, "deliver"): entry(1.0),
        ("~", 0, "<method 'append' of 'list' objects>"): entry(0.25),
        ("/usr/lib/python3.11/heapq.py", 1, "heappush"): entry(0.125),
        # Off packages and look-alike paths fall into the catch-all.
        ("/x/src/repro/obs/__init__.py", 3, "finalize"): entry(4.0),
        ("/home/repro/sim.py", 1, "f"): entry(8.0),
    }
    folded = passes.fold_profile(stats)
    assert set(folded) == set(passes.LAYERS) | {passes.CATCH_ALL}
    assert folded["sim"] == 2.5
    assert folded["ni"] == 1.0
    assert folded["python"] == 0.25 + 0.125 + 4.0 + 8.0
    assert folded["crl"] == 0.0
    assert sum(folded.values()) == sum(e[2] for e in stats.values())


def test_summary_median_and_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    summary = harness.summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary == {"median": 5.5, "q1": q1, "q3": q3, "n": 10}
    assert harness.summarize([2.5]) == {"median": 2.5, "q1": 2.5,
                                        "q3": 2.5, "n": 1}
    assert harness.summarize([])["n"] == 0


def _record(digest: str, error=None) -> dict:
    return {"workload": "paper_apps", "wall_s": 1.0, "setup_s": 0.2,
            "pass_s": 1.0, "peak_rss_mb": 25.0, "host_calib_s": 0.25,
            "per_layer": {},
            "ops": [{"op": "barnes", "ok": error is None, "error": error,
                     "digest": digest}]}


def test_digest_mismatch_counts_as_failed():
    expected = {"barnes": "a" * 64}
    good = harness.workload_summary([_record("a" * 64)] * 3, None,
                                    expected)
    assert (good["attempted"], good["failed"]) == (3, 0)
    assert good["verified"]

    bad = harness.workload_summary([_record("b" * 64)], None, expected)
    assert bad["failed"] == 1
    assert "expected.json" in bad["failures"][0]


def test_unverified_seed_checks_repeats_only():
    same = harness.workload_summary([_record("c" * 64)] * 2, None, None)
    assert not same["verified"] and same["failed"] == 0

    drift = harness.workload_summary(
        [_record("c" * 64), _record("d" * 64), _record("x", "boom")],
        None, None)
    assert drift["failed"] == 2
    assert "between repeats" in drift["failures"][0]


def test_emitted_metrics_match_benchmark_json():
    record = passes.run_pass("paper_apps", 1, time.monotonic(), trace=True)
    assert all(op["ok"] for op in record["ops"]), record["ops"]
    summary = harness.workload_summary([record], record, None)
    declared = harness.load_declared()
    for trace in (False, True):
        kind = "per_layer" if trace else "end_to_end"
        line = harness.result_line({"paper_apps": summary}, trace,
                                   declared)
        assert set(line["metrics"]) == set(declared[kind])
        assert line["correct"] and line["attempted"] == 10
    # Every workload fills the same per-layer table.
    assert set(passes.SHARD_METRICS + passes.REPORT_METRICS) \
        <= set(record["per_layer"])


def test_failed_pass_still_reports(monkeypatch):
    def broken(_pass, _seed):
        raise ValueError("boom")

    monkeypatch.setitem(passes.WORKLOADS, "paper_apps", broken)
    record = passes.run_pass("paper_apps", 1, time.monotonic(), trace=True)
    assert [op["ok"] for op in record["ops"]] == [False]
    assert "boom" in record["ops"][0]["error"]
    summary = harness.workload_summary([record], record, None)
    line = harness.result_line({"paper_apps": summary}, True,
                               harness.load_declared())
    assert not line["correct"] and line["failed"] == 2


def test_result_line_rejects_undeclared_metric():
    summary = harness.workload_summary([_record("e" * 64)], None, None)
    summary["end_to_end"]["bogus_s"] = harness.summarize([1.0])
    with pytest.raises(RuntimeError, match="bogus_s"):
        harness.result_line({"w": summary}, False,
                            harness.load_declared())


def test_benchmark_json_names_and_limits():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert workloads == list(harness.WORKLOADS) == list(passes.WORKLOADS)
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = workloads + [m["name"] for m in SPEC["end_to_end"]
                         + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.BENCHMARK_JSON, tmp_path)
    shutil.copytree(harness.ROOT / "benchmarks" / "e2e",
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload",
         "paper_apps", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
