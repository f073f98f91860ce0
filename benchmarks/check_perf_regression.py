"""Gate CI on simulator-throughput drift against the committed baseline.

Compares a freshly written report (produced by
``benchmarks/perf_smoke.py`` earlier in the same job; ``--fresh``,
default the working-tree ``BENCH_runner.json``) against the committed
baseline, always read via ``git show HEAD:BENCH_runner.json`` whatever
``--fresh`` points to. A missing baseline is an error (exit 2), never
a silent pass. The engine figure is
``fastpath.calibrated_events_per_second``: the median over
whole-machine runs (which dispatch through the loop every real run
uses) of events per second, rescaled by the e2e benchmark's host
calibration kernel timed in the same process. The ratchet is
two-sided:

* fail when the fresh figure drops more than ``--threshold`` (default
  20%, but never more than ``ENGINE_THRESHOLD`` on the engine figure)
  below the committed one — a real regression;
* fail when the fresh figure *beats* the committed one by more than
  ``--threshold-up`` (default 20%) — a real improvement that was not
  recorded. Re-run ``perf_smoke.py`` and commit the refreshed
  ``BENCH_runner.json`` so the baseline ratchets forward and the
  regression floor rises with it.

The same two-sided ratchet applies to the sharded all-to-all leg,
in calibrated simulated messages per sharded host second
(``shard.all_to_all.calibrated_messages_per_second``): the median over
repeated sharded runs, each rescaled by the same calibration kernel
run at once on as many CPUs as the leg has shards, timed either side
of it. Messages, not events/s: a change that needs
fewer engine events per message (parked spins elide most of this
leg's compute wakes) would read as a regression there while the run
got faster. Its floor is ``A2A_THRESHOLD`` at most. That comparison is
neutral (skipped, not passed) whenever either side's
``speedup_required`` is False (single-core runner, serial fallback).
Either leg is neutral while a side lacks its figure (a baseline that
predates it): a skipped gate must never masquerade as a green one,
and a figure measured without real parallelism is not a baseline.

The third gate is exact: ``fastpath.calls``, cProfile's total call
count for one whole-machine run, does not depend on the host, so any
difference from the committed count fails, in either direction. A
change that moves it re-stamps ``BENCH_runner.json`` and states the
delta. Counts differ between Python minors (``fastpath.calls_python``),
so a fresh count taken under another minor than the committed one is
"not comparable": neutral, never a pass.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_smoke.py
    python benchmarks/check_perf_regression.py [--fresh PATH] \
        [--threshold 0.2] [--threshold-up 0.2]

Exit status: 0 pass, 1 a gate failed, 2 no committed baseline.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys


#: The committed report every fresh report is compared against.
BASELINE_PATH = "BENCH_runner.json"

#: The engine ratchet figure, under ``fastpath`` (``perf_smoke.py``).
ENGINE_FIGURE = "calibrated_events_per_second"

#: The engine floor's largest tolerated regression. On the 2-CPU box
#: five unchanged-tree runs read -6.1% to +4.3% against the stamp,
#: while a busy-wait of 30% of the dispatch loop's time read -18.1% to
#: -26.2%: a 20% floor would let that slowdown through.
ENGINE_THRESHOLD = 0.12

#: The all-to-all leg's ratchet figure, under ``shard.all_to_all``
#: (``perf_smoke.py``).
A2A_FIGURE = "calibrated_messages_per_second"

#: The all-to-all floor's largest tolerated regression. On the 2-CPU
#: box five unchanged-tree runs read -6.6% to +1.2% against the stamp,
#: while a 30% busy-wait after each window's engine run in the shard
#: worker read -24.3% to -26.2%, and a 30% sleep there -24.8% to
#: -31.6%: each fails 5 of 5.
A2A_THRESHOLD = 0.15


def committed_baseline(path: str = BASELINE_PATH) -> dict | None:
    """The committed copy of ``path``, or None when git cannot show it
    (not a git checkout, or the file is not in ``HEAD``)."""
    try:
        blob = subprocess.run(
            ["git", "show", f"HEAD:{path}"],
            capture_output=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return json.loads(blob)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", default="BENCH_runner.json",
                        help="fresh smoke report (written by perf_smoke.py)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max tolerated throughput regression fraction")
    parser.add_argument("--threshold-up", type=float, default=0.20,
                        help="max unstamped throughput improvement fraction")
    args = parser.parse_args(argv)

    with open(args.fresh, encoding="utf-8") as fh:
        fresh = json.load(fh)
    baseline = committed_baseline()
    if baseline is None:
        print(f"ERROR: no committed baseline: `git show HEAD:"
              f"{BASELINE_PATH}` failed (not a git checkout, or the file "
              "is not committed); cannot run the regression gate")
        return 2

    label = "machine calibrated events/s"
    fresh_eps = fresh.get("fastpath", {}).get(ENGINE_FIGURE)
    base_eps = baseline.get("fastpath", {}).get(ENGINE_FIGURE)
    failed = False
    if not absent(label, fresh_eps, base_eps):
        failed = ratchet(label, fresh_eps, base_eps,
                         min(args.threshold, ENGINE_THRESHOLD),
                         args.threshold_up)

    label = "shard all-to-all calibrated messages/s"
    fresh_leg = fresh.get("shard", {}).get("all_to_all") or {}
    base_leg = baseline.get("shard", {}).get("all_to_all") or {}
    fresh_mps = fresh_leg.get(A2A_FIGURE)
    base_mps = base_leg.get(A2A_FIGURE)
    if not absent(label, fresh_mps, base_mps):
        if not fresh_leg.get("speedup_required"):
            print(f"{label}: fresh gate skipped "
                  f"({fresh_leg.get('speedup_skip_reason')}); neutral")
        elif not base_leg.get("speedup_required"):
            print(f"{label}: committed baseline was "
                  f"measured without a real speedup gate "
                  f"({base_leg.get('speedup_skip_reason')}); neutral")
        else:
            failed = ratchet(label, fresh_mps, base_mps,
                             min(args.threshold, A2A_THRESHOLD),
                             args.threshold_up) or failed

    failed = calls_gate(fresh.get("fastpath", {}),
                        baseline.get("fastpath", {})) or failed

    if failed:
        return 1
    print("OK")
    return 0


def calls_gate(fresh: dict, base: dict) -> bool:
    """Exact call-count check; True when the gate fails."""
    label = "machine calls per run"
    if absent(label, fresh.get("calls"), base.get("calls")):
        return False
    fresh_python = fresh.get("calls_python")
    base_python = base.get("calls_python")
    if fresh_python != base_python:
        print(f"{label}: fresh under Python {fresh_python}, committed "
              f"under {base_python}: not comparable; neutral")
        return False
    delta = fresh["calls"] - base["calls"]
    print(f"{label}: fresh {fresh['calls']:,} vs committed "
          f"{base['calls']:,} ({delta:+,}; Python {fresh_python}, exact)")
    if delta:
        print(f"FAIL: {label} moved; if the change means it, re-stamp "
              "the baseline (run perf_smoke.py and commit the refreshed "
              "BENCH_runner.json) and state the per-function delta")
        return True
    return False


def absent(label: str, fresh_value, base_value) -> bool:
    """Report and return True when either side lacks the figure."""
    if fresh_value is not None and base_value is not None:
        return False
    side = ("both sides" if fresh_value is None and base_value is None
            else ("the fresh side" if fresh_value is None
                  else "the committed side"))
    print(f"{label}: no figure on {side} (schema predates it); skipping")
    return True


def ratchet(label: str, fresh_rate: float, base_rate: float,
            threshold: float, threshold_up: float) -> bool:
    """Two-sided comparison; True when the gate fails."""
    floor = base_rate * (1.0 - threshold)
    ceiling = base_rate * (1.0 + threshold_up)
    change = fresh_rate / base_rate - 1.0
    print(f"{label}: fresh {fresh_rate:,.0f} vs committed "
          f"{base_rate:,.0f} ({change:+.1%}; floor {floor:,.0f} at "
          f"-{threshold:.0%}, ceiling {ceiling:,.0f} at "
          f"+{threshold_up:.0%})")
    if fresh_rate < floor:
        print(f"FAIL: {label} regressed past the threshold")
        return True
    if fresh_rate > ceiling:
        print(f"FAIL: {label} beat the committed baseline by "
              f"more than +{threshold_up:.0%} — re-stamp the "
              "baseline (run perf_smoke.py and commit the refreshed "
              "BENCH_runner.json) so the ratchet records the win")
        return True
    return False


if __name__ == "__main__":
    raise SystemExit(main())
