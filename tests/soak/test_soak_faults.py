"""Seeded fault-injection soak: many random schedules, zero tolerance.

Each soak case derives a :class:`FaultPlan` from a schedule index via a
:class:`DeterministicRng` stream, runs the reliable all-pairs workload
on a four-node machine, and requires a clean invariant check. The fast
subset below runs in tier-1; the full sweep (and the serial-vs-parallel
determinism matrix) is marked ``slow`` and runs in the scheduled CI
soak job (``SOAK_JOBS`` controls its worker count, default 2).
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.faults.plan import FaultPlan
from repro.runner import ResultCache, bind_spec, run_specs
from repro.sim.random import DeterministicRng
from tests.conftest import run_faulted

#: Schedules in the slow sweep; the fast subset takes the first few.
SOAK_SCHEDULES = 24
FAST_SCHEDULES = 4


def soak_plan(index: int) -> FaultPlan:
    """The index-th random-but-reproducible fault schedule."""
    rng = DeterministicRng(1_000 + index, "soak/plan")
    return FaultPlan(
        seed=rng.uniform_int(0, 100_000),
        drop=rng.uniform_int(0, 25) / 100.0,
        duplicate=rng.uniform_int(0, 25) / 100.0,
        reorder=rng.uniform_int(0, 300),
        spike=rng.uniform_int(0, 15) / 100.0,
        spike_cycles=rng.uniform_int(200, 2_000),
        stall=rng.uniform_int(0, 15) / 100.0,
        stall_cycles=rng.uniform_int(100, 600),
        expiries=rng.uniform_int(0, 2),
        expiry_horizon=rng.uniform_int(2_000, 25_000),
        page_fault_rate=rng.uniform_int(0, 8) / 100.0,
    )


def _soak_one(index: int) -> None:
    plan = soak_plan(index)
    metrics, transport, violations, _machine = run_faulted(
        num_nodes=4, messages=6, seed=index + 1,
        faults=plan.describe(), retries=True,
    )
    assert violations == [], (
        f"schedule {index} ({plan.describe()}): "
        + "; ".join(str(v) for v in violations)
    )
    assert metrics.invariant_violations == 0
    assert not transport.gave_up
    total = sum(len(transport.inbox[n]) for n in range(4))
    assert total == 4 * 6  # every message arrived exactly once


@pytest.mark.parametrize("index", range(FAST_SCHEDULES))
def test_soak_fast_subset(index):
    """Tier-1 slice of the soak sweep."""
    _soak_one(index)


@pytest.mark.slow
@pytest.mark.parametrize("index", range(FAST_SCHEDULES, SOAK_SCHEDULES))
def test_soak_full_sweep(index):
    """The remaining schedules (scheduled-CI only)."""
    _soak_one(index)


def _metrics_tuple(result):
    return (dataclasses.astuple(result.require()),
            tuple(sorted((result.extra or {}).items())))


def test_serial_parallel_cache_bit_identical(tmp_path):
    """The same faulted specs give bit-identical metrics serially, in
    parallel workers, and replayed from the persistent cache."""
    jobs = int(os.environ.get("SOAK_JOBS", "2"))
    specs = [
        bind_spec("faulted", num_nodes=4, messages=6, seed=index + 1,
                     faults=soak_plan(index).describe())
        for index in range(3)
    ]
    serial = [_metrics_tuple(r)
              for r in run_specs(specs, jobs=1, cache=None)]
    parallel = [_metrics_tuple(r)
                for r in run_specs(specs, jobs=jobs, cache=None)]
    assert serial == parallel

    cache = ResultCache(tmp_path / "soak_cache")
    first = [_metrics_tuple(r)
             for r in run_specs(specs, jobs=jobs, cache=cache)]
    assert first == serial
    # Second pass must be pure cache replay, still identical.
    replay = [_metrics_tuple(r)
              for r in run_specs(specs, jobs=1, cache=cache)]
    assert replay == serial
    assert len(cache) >= len(specs)
