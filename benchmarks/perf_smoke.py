"""Perf smoke benchmark: seed and track the repo's perf trajectory.

Times six things and writes ``BENCH_runner.json`` plus
``BENCH_obs.json``:

* **engine cancellation** (informational, not gated) — wall-clock of
  a cancellation-heavy schedule (the lazy-deletion/compaction path,
  which the mailbox workload's transport retries reach);
* **runner sweep, serial vs parallel vs auto** — a small fixed
  multiprogrammed sweep through :func:`repro.runner.run_specs` at
  ``jobs=1``, forced ``mode="parallel"`` at ``jobs=N``, and
  ``mode="auto"`` (recording which case auto picked and what dispatch
  cost), verifying the metrics are identical across all of them;
* **cache replay** — the same sweep again from the persistent cache,
  recording hit counts and replay time;
* **two-case fast path** — quiescent whole-machine runs, the first
  with a closure-counting shim over
  ``engine.call_at``/``engine.schedule`` and every ``Deadline.arm``
  (asserting *zero* per-message lambda/closure allocation), the engine/fabric/NI fast-path hit
  counters, and a bit-identity check of the run metrics against the
  same run forced down the general path via ``REPRO_NO_FASTPATH``.
  Each unshimmed run is bracketed by runs of the e2e benchmark's host
  calibration kernel; the median calibrated events/second over them
  (``fastpath.calibrated_events_per_second``) is the engine figure
  ``check_perf_regression.py`` ratchets. One more run, after a warm-up
  run, is profiled: cProfile's total call count for it
  (``fastpath.calls``, with ``calls_per_event`` and the Python minor
  ``calls_python``) does not depend on the host, so the ratchet checks
  it exactly;
* **sharded execution** — two synth workloads, each run
  single-process and through :func:`repro.shard.run_sharded` (one
  worker process per node group): a ``rack_local`` leg whose traffic
  locality lets the shards free-run, and an ``all_to_all`` leg on a
  WAN-latency fabric that exercises the windowed protocol (pickled
  pipe exchange, adaptive lookahead). Both legs assert bit-identical
  :class:`RunMetrics` and record simulated messages per sharded host
  second; the all-to-all leg repeats both its runs, alternating, each
  bracketed by the calibration kernel on as many CPUs as it has
  shards, and the median calibrated sharded figure
  (``shard.all_to_all.calibrated_messages_per_second``) is the one
  ``check_perf_regression.py`` ratchets; the
  aggregate-events/second speedup gate compares the median calibrated
  sharded and single-process events/second, and applies only where
  meaningful, with ``speedup_skip_reason`` recording why it was
  skipped (single-core box, serial fallback) so CI can treat the skip
  as neutral;
* **observability overhead** — one multiprogrammed run with the
  :class:`~repro.obs.Observatory` disabled vs enabled (interleaved
  pairs), asserting the metrics stay bit-identical and failing only
  when the bootstrap 95% lower bound of the events/sec regression
  clears 10% (``BENCH_obs.json``). Per-layer wall-clock attribution
  is ``python3 -m benchmarks.e2e --trace 1``'s job.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/perf_smoke.py [--jobs N] [--out F]
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import multiprocessing
import os
import pstats
import random
import statistics
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from types import FunctionType

from repro.analysis.metrics import collect_metrics
from repro.apps.null_app import NullApplication
from repro.experiments.config import SimulationConfig
from repro.experiments.workloads import make_workload
from repro.machine.machine import Machine
from repro.runner import ResultCache, bind_spec, default_jobs, run_specs
from repro.runner.executor import fork_available
from repro.sim.engine import _NO_ARG, Engine

# The repository root, so the e2e benchmark's calibration kernel is
# importable when this file runs as a script.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from benchmarks.e2e.harness import NOMINAL_CALIB_S  # noqa: E402
from benchmarks.e2e.passes import host_calibration  # noqa: E402

#: Maximum tolerated events/sec regression with observability enabled.
OBS_OVERHEAD_LIMIT = 0.10

#: Interleaved disabled/enabled pairs behind the obs gate.
OBS_PAIRS = 15

#: Bootstrap resamples behind the obs gate's 95% lower bound.
OBS_BOOTSTRAP_RESAMPLES = 2000

#: Unshimmed whole-machine runs behind the calibrated ratchet figure.
CALIBRATED_RUNS = 15

#: Sharded runs behind the calibrated all-to-all ratchet figure.
A2A_RUNS = 9

#: The fixed smoke sweep: 2 workloads x 2 skews x 2 trials, fast scale.
SMOKE_SPECS = [
    bind_spec("multiprog", name=name, skew=skew, seed=seed, scale="fast",
              timeslice=100_000)
    for name in ("barrier", "enum")
    for skew in (0.0, 0.1)
    for seed in (1, 2)
]


def bench_engine_cancellation(total: int = 200_000,
                              keep_every: int = 10) -> dict:
    """Wall-clock of a cancellation-dominated schedule."""
    engine = Engine()
    start = time.perf_counter()
    for i in range(total):
        entry = engine.call_at(i + 1000, lambda: None)
        if i % keep_every != 0:
            entry.cancel()
    engine.run()
    wall = time.perf_counter() - start
    return {
        "scheduled": total,
        "executed": engine.events_executed,
        "wall_seconds": wall,
        "compactions": engine.compactions,
    }


def bench_sweep(jobs: int) -> dict:
    """Serial vs forced-parallel vs auto vs cached smoke-sweep runs."""
    start = time.perf_counter()
    serial = run_specs(SMOKE_SPECS, jobs=1)
    serial_wall = time.perf_counter() - start

    # Forced parallel: measure the pool even where auto mode would
    # decline it (the speedup on a small box records fork overhead).
    parallel_info: dict = {}
    start = time.perf_counter()
    parallel = run_specs(SMOKE_SPECS, jobs=jobs, mode="parallel",
                         info=parallel_info)
    parallel_wall = time.perf_counter() - start

    # Auto: what run_specs actually does for users, and why.
    auto_info: dict = {}
    start = time.perf_counter()
    auto = run_specs(SMOKE_SPECS, jobs=jobs, info=auto_info)
    auto_wall = time.perf_counter() - start

    identical = all(
        asdict(a.require()) == asdict(b.require())
        for a, b in zip(serial, parallel)
    ) and all(
        asdict(a.require()) == asdict(b.require())
        for a, b in zip(serial, auto)
    )

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        run_specs(SMOKE_SPECS, jobs=jobs, cache=cache)
        start = time.perf_counter()
        replay = run_specs(SMOKE_SPECS, jobs=1, cache=cache)
        replay_wall = time.perf_counter() - start
        cache_hits = cache.hits
        replay_identical = identical and all(
            asdict(a.require()) == asdict(b.require())
            for a, b in zip(serial, replay)
        )

    return {
        "runs": len(SMOKE_SPECS),
        "jobs": jobs,
        "serial_wall_seconds": serial_wall,
        "parallel_wall_seconds": parallel_wall,
        "speedup": serial_wall / parallel_wall if parallel_wall else 0.0,
        "parallel_dispatch_seconds": parallel_info.get("dispatch_seconds"),
        "parallel_workers": parallel_info.get("workers"),
        "auto_mode": auto_info.get("mode"),
        "auto_mode_reason": auto_info.get("mode_reason"),
        "auto_wall_seconds": auto_wall,
        "auto_dispatch_seconds": auto_info.get("dispatch_seconds"),
        "cache_hits": cache_hits,
        "cache_replay_wall_seconds": replay_wall,
        "serial_parallel_identical": identical,
        "cache_replay_identical": replay_identical,
    }


def _attach_closure_counter(engine) -> dict:
    """Shadow call_at/schedule/call_soon and each deadline's arm,
    counting lambda/closure callbacks (``call_soon`` appends to the
    run queue itself, so it needs its own shadow).

    Bound methods pass; only plain functions carrying a closure cell
    (or named ``<lambda>``) count — exactly the per-message allocation
    the two-case refactor eliminates.
    """
    counts = {"closures": 0, "scheduled": 0}
    orig_call_at = engine.call_at
    orig_schedule = engine.schedule
    orig_call_soon = engine.call_soon

    def check(fn) -> None:
        counts["scheduled"] += 1
        if isinstance(fn, FunctionType) and (
                fn.__closure__ is not None or fn.__name__ == "<lambda>"):
            counts["closures"] += 1

    def call_at(when, fn, arg=_NO_ARG):
        check(fn)
        return orig_call_at(when, fn, arg)

    def schedule(when, fn, arg=_NO_ARG):
        check(fn)
        return orig_schedule(when, fn, arg)

    def call_soon(fn, arg=_NO_ARG):
        if engine.fastpath:  # else it goes through schedule, counted
            check(fn)
        orig_call_soon(fn, arg)

    def counted_arm(orig_arm):
        def arm(when, fn, arg=_NO_ARG):
            check(fn)
            orig_arm(when, fn, arg)
        return arm

    engine.call_at = call_at
    engine.schedule = schedule
    engine.call_soon = call_soon
    for deadline in engine._deadlines:
        deadline.arm = counted_arm(deadline.arm)
    return counts


def _machine_run(force_general: bool = False,
                 count_closures: bool = False,
                 profiler: cProfile.Profile | None = None):
    """One quiescent multiprogrammed barrier-vs-null run, timed.

    Returns ``(machine, metrics, closure_counts, wall_seconds)``.
    ``force_general`` sets ``REPRO_NO_FASTPATH`` for the machine's
    construction, pushing every layer down the general path.
    ``profiler``, when given, is enabled for the run alone.
    """
    saved = os.environ.pop("REPRO_NO_FASTPATH", None)
    if force_general:
        os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        config = SimulationConfig(num_nodes=8, seed=1, skew_fraction=0.1,
                                  timeslice=100_000)
        machine = Machine(config)
        app = make_workload("barrier", seed=1, num_nodes=8, scale="fast")
        job = machine.add_job(app)
        machine.add_job(NullApplication())
        counts = None
        if count_closures:
            counts = _attach_closure_counter(machine.engine)
        machine.start()
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        machine.run_until_job_done(job, limit=50_000_000_000)
        wall = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
        return machine, collect_metrics(machine, job), counts, wall
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = saved


def count_calls() -> tuple:
    """``(calls, events)`` of one whole-machine run: cProfile's total
    call count and the engine's events.

    A warm-up run goes first, since the first run in a process also
    pays one-off warm-up calls (``dataclasses.fields``). The cyclic
    collector is off for the counted run, so a collection that happens
    to fall inside it (and finalizes suspended generators there) cannot
    move the count with the process's allocation history.
    """
    _machine_run()
    profiler = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        machine, _metrics, _counts, _wall = _machine_run(profiler=profiler)
    finally:
        gc.enable()
    return (pstats.Stats(profiler).total_calls,
            machine.engine.events_executed)


def _kernel_into(queue) -> None:
    queue.put(host_calibration())


def _host_calibration_on(cpus: int) -> float:
    """Mean seconds of the host calibration kernel run at once in
    ``cpus`` forked processes (in this process when ``cpus`` is 1 or
    fork is unavailable). A run that keeps ``cpus`` CPUs busy is slowed
    by contention on all of them, which one kernel alone does not see.
    """
    if cpus == 1 or not fork_available():
        return host_calibration()
    context = multiprocessing.get_context("fork")
    queue = context.SimpleQueue()
    procs = [context.Process(target=_kernel_into, args=(queue,))
             for _ in range(cpus)]
    for proc in procs:
        proc.start()
    seconds = [queue.get() for _ in procs]
    for proc in procs:
        proc.join()
    return statistics.mean(seconds)


def _calibrated_runs(runs: int, one_run, cpus: int = 1):
    """Call ``one_run`` ``runs`` times, each call bracketed by runs of
    the e2e benchmark's host calibration kernel on ``cpus`` CPUs.

    ``one_run()`` returns ``(work, wall_seconds, result)``. Each call's
    work per second is rescaled to a host that runs the kernel in
    ``NOMINAL_CALIB_S``, taking the mean of the kernel times either
    side of it as this host's (0.0 for a call that measured no wall).
    Returns ``(calibrated, kernel_seconds, walls, results)``, one
    calibrated rate, wall and result per call.
    """
    calibs = [_host_calibration_on(cpus)]
    calibrated, walls, results = [], [], []
    for _ in range(runs):
        work, wall, result = one_run()
        calibs.append(_host_calibration_on(cpus))
        host_calib = (calibs[-2] + calibs[-1]) / 2
        calibrated.append(work / (wall * NOMINAL_CALIB_S / host_calib)
                          if wall else 0.0)
        walls.append(wall)
        results.append(result)
    return calibrated, calibs, walls, results


def bench_fastpath(runs: int = CALIBRATED_RUNS) -> dict:
    """Two-case fast-path accounting + zero-closure + identity gates,
    and the calibrated whole-machine throughput the ratchet gates.

    The first run carries the closure-counting shim (the shim itself
    costs time); ``runs`` more time the unshimmed fast path, each
    bracketed in the same process by runs of the e2e benchmark's host
    calibration kernel. Each run's events per second is rescaled to a
    host that runs the kernel in ``NOMINAL_CALIB_S``, taking the mean
    of the kernel times either side of it as this host's;
    ``calibrated_events_per_second`` is the median over the runs, and
    ``events_per_second`` the raw best. ``gate_ok`` requires: no
    lambda/closure scheduled during a quiescent run, bit-identical
    metrics across every fast run *and* the forced-general
    (``REPRO_NO_FASTPATH``) run, the general run using the run queue
    not at all, and the fast run actually exercising every fast path
    it claims to have.
    """
    machine, metrics, counts, _wall = _machine_run(count_closures=True)

    def one_run():
        run_machine, run_metric, _c, wall = _machine_run()
        return run_machine.engine.events_executed, wall, run_metric

    calibrated, calibs, walls, run_metrics = _calibrated_runs(runs,
                                                              one_run)
    general_machine, general_metrics, _, _ = _machine_run(
        force_general=True)
    calls, counted_events = count_calls()

    engine = machine.engine
    fabric = machine.fabric.stats
    ni_fast = sum(n.ni.stats.fast_deliveries for n in machine.nodes)
    ni_general = sum(n.ni.stats.general_deliveries for n in machine.nodes)
    base = asdict(metrics)
    identical = (
        all(asdict(m) == base for m in run_metrics)
        and base == asdict(general_metrics)
    )
    batches = engine.cycle_batches
    return {
        "runs": runs,
        "wall_seconds": min(walls),
        "events_per_second": engine.events_executed / min(walls),
        "host_calib_seconds": calibs,
        "nominal_calib_seconds": NOMINAL_CALIB_S,
        "calibrated_samples": calibrated,
        "calibrated_events_per_second": statistics.median(calibrated),
        "calls": calls,
        "calls_per_event": calls / counted_events,
        "calls_python": python_minor(),
        "closures_scheduled": counts["closures"],
        "callbacks_scheduled": counts["scheduled"],
        "runq_events": engine.runq_events,
        "ring_events": engine.ring_events,
        "overflow_scheduled": engine.overflow_scheduled,
        "cycle_batches": batches,
        "mean_batch_events": (engine.ring_events / batches
                              if batches else 0.0),
        "fabric_fast_sends": fabric.fast_path_sends,
        "fabric_general_sends": fabric.general_path_sends,
        "ni_fast_deliveries": ni_fast,
        "ni_general_deliveries": ni_general,
        "general_runq_events": general_machine.engine.runq_events,
        "metrics_identical_vs_general": identical,
        "gate_ok": (
            counts["closures"] == 0
            and identical
            and general_machine.engine.runq_events == 0
            and engine.runq_events > 0
            and fabric.fast_path_sends > 0
            and ni_fast > 0
        ),
    }


def _shard_leg(leg: str, shards: int, num_nodes: int,
               messages_per_node: int, locality_groups: int,
               net_base_latency: int, expected_mode: str,
               group_size: int = 10, t_betw: int = 275,
               timeslice: int = 500_000,
               fabric_credits: int = 16, seed: int = 1,
               runs: int = 1) -> dict:
    """One serial-vs-sharded comparison on a synth workload.

    The gate requires bit-identical :class:`RunMetrics` always. The
    aggregate-throughput half (sum of per-shard engine events per
    sharded second beating the single-process events per second) is
    demanded only when it is meaningful; otherwise
    ``speedup_required`` is False and ``speedup_skip_reason`` records
    why (single-core box, serial fallback) so the CI ratchet can treat
    the skip as neutral instead of silently passing.

    Both sides run ``runs`` times, alternating, each run bracketed by
    runs of the host calibration kernel (:func:`_calibrated_runs`) on
    ``shards`` CPUs at once, the CPUs the workers occupy. Both sides
    are rescaled by the same kernel, so the calibration corrects only
    for host speed drift between runs and leaves the contention cost
    of sharding in the ratio. The speedup gate compares the median
    calibrated aggregate events/s with the median calibrated
    single-process events/s (``calibrated_speedup``).
    ``calibrated_messages_per_second``
    (the figure ``check_perf_regression.py`` ratchets) is the median
    of the calibrated simulated messages per sharded host second, and
    the raw wall-clock figures use the median walls.
    """
    from repro.apps.synth import SynthApplication
    from repro.experiments.synth_sweeps import SYNTH_SKEW, T_HAND, \
        run_synth

    config = SimulationConfig(num_nodes=num_nodes, seed=seed,
                              skew_fraction=SYNTH_SKEW,
                              timeslice=timeslice,
                              net_base_latency=net_base_latency,
                              fabric_credits=fabric_credits)

    def serial_run():
        app = SynthApplication(group_size=group_size, t_betw=t_betw,
                               t_hand=T_HAND,
                               total_messages_per_node=messages_per_node,
                               num_nodes=num_nodes, seed=seed,
                               locality_groups=locality_groups)
        machine = Machine(config)
        job = machine.add_job(app)
        machine.add_job(NullApplication())
        machine.start()
        start = time.perf_counter()
        machine.run_until_job_done(job, limit=50_000_000_000)
        wall = time.perf_counter() - start
        events = machine.engine.events_executed
        return events, wall, (collect_metrics(machine, job), events)

    def one_run():
        extra: dict = {}
        info: dict = {}
        sharded_metrics = run_synth(
            group_size, t_betw, seed=seed,
            messages_per_node=messages_per_node, timeslice=timeslice,
            shards=shards, locality_groups=locality_groups,
            num_nodes=num_nodes, net_base_latency=net_base_latency,
            fabric_credits=fabric_credits,
            extra_out=extra, info=info)
        # Simulated work per host second: unlike events/s, no change
        # to how many engine events a message costs (parked spins)
        # moves it.
        return (sharded_metrics.messages_sent,
                info.get("wall_seconds", 0.0),
                (sharded_metrics, extra, info))

    # The sides alternate, one run each, so host drift during the leg
    # reaches both alike and every sharded run follows a single-process
    # run. (With the sharded runs back to back, before or after the
    # single-process runs, the ratcheted figure read 6-12% lower in
    # full runs of this script on a 2-CPU box.)
    serial, sharded = ([], [], [], []), ([], [], [], [])
    for _ in range(runs):
        for columns, timed in (
                (serial, _calibrated_runs(1, serial_run, cpus=shards)),
                (sharded, _calibrated_runs(1, one_run, cpus=shards))):
            for column, values in zip(columns, timed):
                column.extend(values)
    serial_calibrated, serial_calibs, serial_walls, serial_results = serial
    calibrated, calibs, walls, results = sharded
    serial_metrics, serial_events = serial_results[0]
    serial_wall = statistics.median(serial_walls)
    serial_eps = serial_events / serial_wall
    messages_sent = serial_metrics.messages_sent
    _metrics, extra, info = results[-1]
    mode = extra.get("shard_mode")
    shard_events = info.get("shard_events", [])
    sharded_wall = statistics.median(walls)
    aggregate_eps = (sum(shard_events) / sharded_wall
                     if sharded_wall else 0.0)
    messages_per_second = (messages_sent / sharded_wall
                           if sharded_wall else 0.0)
    # Each run's calibrated messages/s, scaled to its aggregate events.
    aggregate_calibrated = statistics.median(
        rate * sum(run_info.get("shard_events", [])) / messages_sent
        for rate, (_m, _e, run_info) in zip(calibrated, results))
    serial_eps_calibrated = statistics.median(serial_calibrated)
    identical = all(
        asdict(serial_metrics) == asdict(other)
        for other in [m for m, _e in serial_results]
        + [m for m, _e, _i in results])
    if (os.cpu_count() or 1) < 2:
        speedup_required, skip_reason = False, "single-core box"
    elif mode != expected_mode:
        speedup_required, skip_reason = False, (
            f"shard mode {mode!r} (expected {expected_mode!r})")
    else:
        speedup_required, skip_reason = True, None
    return {
        "leg": leg,
        "shards": shards,
        "num_nodes": num_nodes,
        "messages_per_node": messages_per_node,
        "group_size": group_size,
        "t_betw": t_betw,
        "timeslice": timeslice,
        "net_base_latency": net_base_latency,
        "fabric_credits": fabric_credits,
        "seed": seed,
        "mode": mode,
        "lookahead": extra.get("lookahead"),
        "serial_wall_seconds": serial_wall,
        "serial_events": serial_events,
        "serial_events_per_second": serial_eps,
        "serial_host_calib_seconds": serial_calibs,
        "serial_calibrated_events_per_second": serial_eps_calibrated,
        "sharded_wall_seconds": sharded_wall,
        "shard_events": shard_events,
        "aggregate_events_per_second": aggregate_eps,
        "calibrated_aggregate_events_per_second": aggregate_calibrated,
        "messages_sent": messages_sent,
        "sharded_messages_per_second": messages_per_second,
        "runs": runs,
        "host_calib_seconds": calibs,
        "calibrated_samples": calibrated,
        "calibrated_messages_per_second": statistics.median(calibrated),
        "speedup": aggregate_eps / serial_eps if serial_eps else 0.0,
        "calibrated_speedup": (aggregate_calibrated / serial_eps_calibrated
                               if serial_eps_calibrated else 0.0),
        "epochs": extra.get("shard_epochs"),
        "cross_shard_messages": extra.get("cross_shard_messages"),
        "bytes_exchanged": extra.get("bytes_exchanged"),
        "empty_epochs_coalesced": extra.get("empty_epochs_coalesced"),
        "encode_seconds": info.get("encode_seconds"),
        "serial_fallbacks": extra.get("serial_fallbacks"),
        "metrics_identical": identical,
        "speedup_required": speedup_required,
        "speedup_skip_reason": skip_reason,
        "gate_ok": identical and (
            not speedup_required
            or aggregate_calibrated > serial_eps_calibrated),
    }


def bench_shard(shards: int = 2,
                messages_per_node: int = 2000) -> dict:
    """Sharded vs single-process on two traffic shapes.

    * ``rack_local`` — synth-10 traffic confined to ``shards``
      contiguous node groups, so the shard layer free-runs without
      barriers (the embarrassingly parallel best case);
    * ``all_to_all`` — open-loop synth traffic with *no* locality on a
      WAN-latency fabric (base latency 600k cycles, matching deep
      per-destination credits): every send may cross shards, so the
      run exercises the windowed protocol end to end — the pickled
      pipe exchange, adaptive bounds, barrier accounting. The large
      lookahead is what makes winning possible: each window carries
      hundreds of events per shard, so barrier and exchange costs
      amortize away. The exact shape (sparse sends relative to
      latency, a timeslice longer than the run so quanta never align
      node activity, and this particular seed) is what keeps the run
      free of same-cycle arrival collisions across shards; the
      simulation is deterministic, so a parameter set verified clean
      once stays clean.
    """
    rack_local = _shard_leg(
        "rack_local", shards=shards, num_nodes=2 * shards,
        messages_per_node=messages_per_node, locality_groups=shards,
        net_base_latency=10, expected_mode="free-run")
    all_to_all = _shard_leg(
        "all_to_all", shards=shards, num_nodes=4 * shards,
        messages_per_node=1000, locality_groups=0,
        net_base_latency=600_000, expected_mode="windowed",
        group_size=1000, t_betw=40_000, timeslice=10 ** 9,
        fabric_credits=256, runs=A2A_RUNS)
    return {
        "rack_local": rack_local,
        "all_to_all": all_to_all,
        "gate_ok": rack_local["gate_ok"] and all_to_all["gate_ok"],
    }


def _obs_run(obs_interval=None):
    """One multiprogrammed barrier-vs-null run, timed.

    Returns ``(metrics, events_executed, wall_seconds)``.
    The workload matches the obs e2e tests: 8 nodes, 10% skew, fast
    scale — long enough to time, short enough for CI.
    """
    config = SimulationConfig(num_nodes=8, seed=1, skew_fraction=0.1,
                              timeslice=100_000)
    machine = Machine(config)
    app = make_workload("barrier", seed=1, num_nodes=8, scale="fast")
    job = machine.add_job(app)
    machine.add_job(NullApplication())
    observatory = None
    if obs_interval is not None:
        observatory = machine.enable_observability(obs_interval)
    machine.start()
    start = time.perf_counter()
    machine.run_until_job_done(job, limit=50_000_000_000)
    wall = time.perf_counter() - start
    metrics = collect_metrics(machine, job)
    if observatory is not None:
        observatory.finalize()
    return metrics, machine.engine.events_executed, wall


def overhead_lower_bound(ratios, resamples: int = OBS_BOOTSTRAP_RESAMPLES,
                         seed: int = 0) -> float:
    """Bootstrap 95% lower bound of the overhead ``1 - median(ratios)``.

    Resamples the enabled/disabled pair ratios with replacement
    ``resamples`` times (seeded, so the bound is a pure function of the
    ratios) and returns the 2.5th percentile of the resampled
    overheads: the overhead is above it with ~97.5% confidence.
    """
    rng = random.Random(seed)
    n = len(ratios)
    overheads = sorted(
        1.0 - statistics.median(rng.choices(ratios, k=n))
        for _ in range(resamples))
    return overheads[int(0.025 * resamples)]


def bench_obs(repeats: int = OBS_PAIRS) -> dict:
    """Observability overhead: disabled vs enabled, interleaved pairs.

    The enabled run samples the timeline every 100k cycles and keeps
    every live histogram hook hot. Runs alternate disabled, enabled,
    disabled, ... so host drift hits both sides alike; each pair gives
    one enabled/disabled throughput ratio, and the overhead is one
    minus the *median* ratio. The gate fails (``gate_ok`` False) only
    if the bootstrap 95% lower bound of that overhead
    (:func:`overhead_lower_bound`) exceeds ``OBS_OVERHEAD_LIMIT`` — a
    median that a noisy pair or two pushed past the limit is not a
    verdict — or if observation perturbs the run metrics at all.
    """
    disabled, enabled = [], []
    for _ in range(repeats):
        disabled.append(_obs_run())
        enabled.append(_obs_run(obs_interval=100_000))

    base_metrics = asdict(disabled[0][0])
    metrics_identical = all(
        asdict(m) == base_metrics
        for m, _e, _w in disabled[1:] + enabled
    )

    def eps(run):
        _m, events, wall = run
        return events / wall

    ratios = sorted(eps(on) / eps(off)
                    for off, on in zip(disabled, enabled))
    overhead = 1.0 - statistics.median(ratios)
    lower = overhead_lower_bound(ratios)

    return {
        "repeats": repeats,
        "disabled_events_per_second": statistics.median(
            eps(run) for run in disabled),
        "enabled_events_per_second": statistics.median(
            eps(run) for run in enabled),
        "pair_ratios": ratios,
        "overhead_fraction": overhead,
        "overhead_lower_bound": lower,
        "overhead_limit": OBS_OVERHEAD_LIMIT,
        "metrics_identical": metrics_identical,
        "gate_ok": metrics_identical and lower <= OBS_OVERHEAD_LIMIT,
    }


def python_minor() -> str:
    """This interpreter's ``major.minor``: call counts are comparable
    only under the same one."""
    return "%d.%d" % sys.version_info[:2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker count (default: all CPUs, "
                             "minimum 4 so the fork path is exercised)")
    parser.add_argument("--out", default="BENCH_runner.json",
                        help="output JSON path")
    parser.add_argument("--obs-out", default="BENCH_obs.json",
                        help="observability benchmark output JSON path")
    args = parser.parse_args(argv)
    # Floor of 4: always measure the real fan-out path, even on small
    # boxes (the speedup there simply records the fork overhead).
    jobs = args.jobs or max(4, default_jobs())

    report = {
        "benchmark": "runner+engine perf smoke",
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "engine_cancellation": bench_engine_cancellation(),
        "sweep": bench_sweep(jobs),
        "fastpath": bench_fastpath(),
        "shard": bench_shard(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    obs = bench_obs()
    obs_report = {
        "benchmark": "observability overhead smoke",
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "obs": obs,
    }
    with open(args.obs_out, "w", encoding="utf-8") as fh:
        json.dump(obs_report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    sweep = report["sweep"]
    fastpath = report["fastpath"]
    shard = report["shard"]
    cancellation = report["engine_cancellation"]
    print(f"engine cancellation: {cancellation['scheduled']:,} scheduled, "
          f"{cancellation['compactions']} compactions, "
          f"{cancellation['wall_seconds']:.3f}s (informational)")
    print(f"sweep ({sweep['runs']} runs): serial "
          f"{sweep['serial_wall_seconds']:.2f}s, jobs={sweep['jobs']} "
          f"{sweep['parallel_wall_seconds']:.2f}s "
          f"(speedup {sweep['speedup']:.2f}x), auto={sweep['auto_mode']} "
          f"[{sweep['auto_mode_reason']}] "
          f"{sweep['auto_wall_seconds']:.2f}s, cache replay "
          f"{sweep['cache_replay_wall_seconds']:.3f}s "
          f"({sweep['cache_hits']} hits)")
    print(f"identical: serial/parallel/auto="
          f"{sweep['serial_parallel_identical']} "
          f"cache={sweep['cache_replay_identical']}")
    print(f"fastpath: {fastpath['runq_events']:,} runq events, "
          f"{fastpath['fabric_fast_sends']:,} fast sends, "
          f"{fastpath['ni_fast_deliveries']:,} fast deliveries, "
          f"{fastpath['closures_scheduled']} closures scheduled, "
          f"identical vs general: "
          f"{fastpath['metrics_identical_vs_general']}")
    print(f"machine: {fastpath['calibrated_events_per_second']:,.0f} "
          f"calibrated events/s (median of {fastpath['runs']}; "
          f"raw best {fastpath['events_per_second']:,.0f})")
    print(f"machine: {fastpath['calls']:,} calls "
          f"({fastpath['calls_per_event']:.2f} per event, Python "
          f"{fastpath['calls_python']})")
    for leg in (shard["rack_local"], shard["all_to_all"]):
        required = ("required" if leg["speedup_required"] else
                    f"skipped: {leg['speedup_skip_reason']}")
        print(f"shard/{leg['leg']}: {leg['shards']} shards "
              f"({leg['mode']}), serial "
              f"{leg['serial_events_per_second']:,.0f} events/s, "
              f"aggregate {leg['aggregate_events_per_second']:,.0f} "
              f"events/s (speedup {leg['speedup']:.2f}x, calibrated "
              f"{leg['calibrated_speedup']:.2f}x, {required}), "
              f"{leg['sharded_messages_per_second']:,.0f} messages/s "
              f"({leg['calibrated_messages_per_second']:,.0f} "
              f"calibrated), identical: {leg['metrics_identical']}")
    print(f"obs: disabled {obs['disabled_events_per_second']:,.0f} "
          f"events/s, enabled {obs['enabled_events_per_second']:,.0f} "
          f"events/s (overhead {obs['overhead_fraction']:+.1%}, 95% "
          f"lower bound {obs['overhead_lower_bound']:+.1%}, limit "
          f"{obs['overhead_limit']:.0%}), metrics identical: "
          f"{obs['metrics_identical']}")
    print(f"wrote {args.out} and {args.obs_out}")
    return 0 if (sweep["serial_parallel_identical"]
                 and sweep["cache_replay_identical"]
                 and fastpath["gate_ok"]
                 and shard["gate_ok"]
                 and obs["gate_ok"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
