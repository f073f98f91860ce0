"""End-to-end simulator benchmark: four workloads, per-layer host time.

Run from the repository root::

    python3 -m benchmarks.e2e [--workload NAME ...] [--seed N]
        [--seconds S | --repeats N] [--trace [0|1]] [--out FILE]
        [--stamp]

Each repeat of a workload is one fresh child process
(:mod:`benchmarks.e2e.passes`), so ``setup_s`` includes real imports
and ``peak_rss_mb`` belongs to that workload alone. Repeats go
round-robin across the chosen workloads, so slow drift of the host hits
each of them equally, until ``--seconds`` have passed (at least
``MIN_REPEATS`` rounds) or for exactly ``--repeats`` rounds.

Each pass ends by timing a fixed pure-Python calibration kernel
(``host_calib_s``, see :func:`benchmarks.e2e.passes.host_calibration`),
and ``wall_s`` and ``setup_s`` are reported rescaled to a host that
runs that kernel in ``NOMINAL_CALIB_S``. The host this was built on
changed speed 2x within minutes; raw seconds follow such swings, the
rescaled ones mostly do not. The raw medians stay in the summary line.

Every metric is summarised as median, q1, q3 and n. The last stdout
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` carrying the medians of the end-to-end metrics, or with
``--trace 1`` the per-layer metrics, where one extra child per workload
runs under :mod:`cProfile` for the ``<layer>.self_s`` split and
``trace.overhead_ratio``. The line before it holds the full summary.
Metric names and units come from ``BENCHMARK.json``.

An operation is one simulation run or one golden check. It fails if it
raises, if its ``RunMetrics`` digest differs from ``expected.json`` or
from an earlier repeat of the same seed, if a sharded run differs from
its single-process reference, or if a golden check drifts. Seeds absent
from ``expected.json`` are reported ``verified: false``, not failed;
``--stamp`` records this run's digests there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = Path(__file__).with_name("expected.json")
WORKLOADS = ("paper_apps", "mailbox_1m", "shard_a2a", "report_subset")
DEFAULT_SECONDS = 20
MIN_REPEATS = 3
#: A pass takes 1-4 s; this only stops a wedged child.
CHILD_TIMEOUT_S = 150
#: Host speed ``wall_s`` and ``setup_s`` are reported at: the seconds
#: the calibration kernel takes on that host (about its median on the
#: 2-CPU box the benchmark was defined on).
NOMINAL_CALIB_S = 0.2


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """Median, quartiles (as ``statistics.quantiles(n=4)``) and count."""
    values = list(values)
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def load_declared() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def load_expected() -> dict:
    if EXPECTED_JSON.exists():
        return json.loads(EXPECTED_JSON.read_text(encoding="utf-8"))
    return {}


def spawn_pass(workload: str, seed: int, trace: bool) -> dict:
    """Run one pass in a fresh interpreter and return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.passes", workload,
         str(seed), repr(spawn), "1" if trace else "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return _failed_record(workload, f"pass exceeded {CHILD_TIMEOUT_S}s")
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return _failed_record(workload, f"pass exited {proc.returncode} "
                                        "without a result")


def _failed_record(workload: str, error: str) -> dict:
    return {"workload": workload,
            "ops": [{"op": "pass", "ok": False, "error": error,
                     "digest": None}]}


class Verdict:
    """Operation outcomes of one workload across its repeats."""

    def __init__(self, expected: Optional[dict]) -> None:
        self.expected = expected or {}
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, record: dict) -> None:
        for op in record["ops"]:
            self.attempted += 1
            problem = op["error"]
            found = op.get("digest")
            if problem is None and found is not None:
                want = self.expected.get(op["op"])
                first = self.digests.setdefault(op["op"], found)
                if want is not None and want != found:
                    problem = "RunMetrics digest differs from expected.json"
                elif first != found:
                    problem = "RunMetrics digest differs between repeats"
            if problem is not None:
                self.failures.append(f"{op['op']}: {problem}")


def measure(workloads: List[str], seed: int, seconds: float,
            repeats: Optional[int], trace: bool):
    """Round-robin repeats, then (with ``trace``) one profiled pass each.

    Returns ``(records, traced)``.
    """
    records: Dict[str, List[dict]] = {w: [] for w in workloads}
    start = time.monotonic()
    rounds = 0
    while (rounds < repeats if repeats is not None
           else rounds < MIN_REPEATS
           or time.monotonic() - start < seconds):
        for workload in workloads:
            records[workload].append(spawn_pass(workload, seed, False))
        rounds += 1
    traced = ({w: spawn_pass(w, seed, True) for w in workloads}
              if trace else {})
    return records, traced


def workload_summary(records: List[dict], traced: Optional[dict],
                     expected: Optional[dict]) -> dict:
    """Summaries, per-layer numbers and the verdict of one workload.

    ``wall_s`` and ``setup_s`` are rescaled to a host that runs the
    calibration kernel in ``NOMINAL_CALIB_S``; their raw seconds are
    kept under ``raw``.
    """
    verdict = Verdict(expected)
    for record in records + ([traced] if traced else []):
        verdict.add(record)
    good = [r for r in records if "wall_s" in r]

    def norm(record: dict, key: str) -> float:
        return record[key] * NOMINAL_CALIB_S / record["host_calib_s"]

    end_to_end = {
        "wall_s": summarize(norm(r, "wall_s") for r in good),
        "setup_s": summarize(norm(r, "setup_s") for r in good),
        "peak_rss_mb": summarize(r["peak_rss_mb"] for r in good),
    }
    raw = {key: summarize(r[key] for r in good)
           for key in ("wall_s", "setup_s", "host_calib_s")}
    per_layer = {}
    if good:
        per_layer = {name: summarize(r["per_layer"][name] for r in good)
                     for name in good[0]["per_layer"]}
    if traced and "layers" in traced:
        for layer, self_s in traced["layers"].items():
            per_layer[f"{layer}.self_s"] = summarize([self_s])
        untraced = summarize(norm(r, "pass_s") for r in good)["median"]
        per_layer["trace.overhead_ratio"] = summarize(
            [norm(traced, "pass_s") / untraced if untraced else 0.0])
    return {
        "verified": expected is not None,
        "attempted": verdict.attempted,
        "failed": len(verdict.failures),
        "failures": verdict.failures,
        "end_to_end": end_to_end,
        "raw": raw,
        "per_layer": per_layer,
        "digests": verdict.digests,
    }


def result_line(summaries: Dict[str, dict], trace: bool,
                declared: Dict[str, Dict[str, str]]) -> dict:
    """The last-line result object, checked against BENCHMARK.json."""
    kind = "per_layer" if trace else "end_to_end"
    units = declared[kind]
    metrics = {}
    for workload, summary in summaries.items():
        emitted = summary[kind]
        missing = set(units) - set(emitted)
        # A failed pass leaves holes; a healthy one must match exactly.
        if set(emitted) - set(units) or (missing and not summary["failed"]):
            raise RuntimeError(
                f"{workload} emitted {sorted(set(emitted) ^ set(units))} "
                f"out of step with BENCHMARK.json {kind}")
        prefix = f"{workload}." if len(summaries) > 1 else ""
        for name, unit in units.items():
            value = emitted[name]["median"] if name in emitted else 0.0
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(s["failed"] for s in summaries.values())
    return {"correct": failed == 0,
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": failed,
            "metrics": metrics}


def stamp(summaries: Dict[str, dict], seed: int) -> None:
    """Record this run's digests as the expected ones for ``seed``."""
    expected = load_expected()
    for workload, summary in summaries.items():
        if summary["digests"] and not summary["failed"]:
            expected.setdefault(workload, {})[str(seed)] = \
                summary["digests"]
    EXPECTED_JSON.write_text(json.dumps(expected, indent=2,
                                        sort_keys=True) + "\n",
                             encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e",
        description="End-to-end simulator benchmark.")
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=WORKLOADS,
                        help="workloads to run (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure for this long (default %(default)s)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="run exactly this many rounds instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="report per-layer metrics from an extra "
                             "profiled pass")
    parser.add_argument("--out", default=None,
                        help="also write the full summary JSON here")
    parser.add_argument("--stamp", action="store_true",
                        help="record this run's digests in expected.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not BENCHMARK_JSON.exists():
        print(f"benchmarks.e2e: no src/repro or BENCHMARK.json under "
              f"{ROOT}", file=sys.stderr)
        return 2
    declared = load_declared()
    workloads = list(dict.fromkeys(args.workload or WORKLOADS))
    records, traced = measure(
        workloads, args.seed, args.seconds, args.repeats,
        bool(args.trace))
    expected = load_expected()
    summaries = {
        w: workload_summary(records[w], traced.get(w),
                            expected.get(w, {}).get(str(args.seed)))
        for w in workloads
    }
    line = result_line(summaries, bool(args.trace), declared)
    report = {
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "nominal_calib_s": NOMINAL_CALIB_S,
        "workloads": summaries,
    }
    if args.stamp:
        stamp(summaries, args.seed)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                                  encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps(line))
    return 0 if line["correct"] else 1
