"""One workload pass, run inside a fresh child process.

The harness (:mod:`benchmarks.e2e.harness`) starts this module once per
repeat::

    python -m benchmarks.e2e.passes WORKLOAD SEED SPAWN_TIME TRACE

and reads the JSON object it prints as its last stdout line. A pass
drives each layer only through public calls (``Machine``, ``add_job``,
``start``, ``run_until_job_done``, ``collect_metrics``, ``run_synth``
with its ``extra_out``/``info`` dicts, ``run_report`` with a
``ResultCache``) and reads its counts from the public stats objects
after each run. Nothing here reaches into the simulator.

Timeline of a pass: ``setup_s`` runs from the harness spawning the
process to the first simulated event (imports, machine and application
construction, ``start()``); ``pass_s`` runs from there to the end of the
pass. With ``TRACE`` set, stdlib :mod:`cProfile` covers exactly the
``pass_s`` window and its self time (``tottime``) is folded into the
``src/repro`` layers by the executing function's file.
"""

from __future__ import annotations

import cProfile
import hashlib
import heapq
import json
import random
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Repository root (this file is ``benchmarks/e2e/passes.py``).
ROOT = Path(__file__).resolve().parents[2]

#: The ``src/repro`` packages that count as layers. ``obs`` and
#: ``faults`` are off in every workload, so they are not listed.
LAYERS = ("sim", "machine", "network", "ni", "glaze", "core", "crl",
          "protocols", "apps", "shard", "runner", "validate", "analysis",
          "experiments")
#: Builtins, the stdlib, and any file outside the listed packages.
CATCH_ALL = "python"

LIMIT = 50_000_000_000
PAPER_APPS = ("barnes", "water", "lu", "barrier", "enum")
#: The WAN all-to-all synth leg: deep credits and a timeslice longer
#: than the run keep node activity unaligned across shards, and 150
#: messages per node keep same-cycle cross-shard arrivals (which force
#: a serial fallback) out of seeds 1-40.
A2A = dict(group_size=1000, t_betw=40_000, messages_per_node=150,
           num_nodes=8, net_base_latency=600_000, fabric_credits=256,
           timeslice=10 ** 9)
#: Artifacts of the ``report_subset`` workload (table6 is left out: its
#: five applications are ``paper_apps``' work, at 5 s a pass).
REPORT_ONLY = ("table4", "table5", "delivery_headtohead")


#: Per-layer metrics only one workload produces; the others report 0.
SHARD_METRICS = (
    "shard.epochs", "shard.cross_shard_messages", "shard.bytes_exchanged",
    "shard.empty_epochs_coalesced", "shard.encode_s",
    "shard.barrier_stalls", "shard.serial_fallbacks",
    "shard.worker_imbalance", "shard.speedup_vs_serial",
)
REPORT_METRICS = (
    "runner.cache_hits", "runner.cache_misses", "runner.warm_replay_s",
    "validate.checks", "validate.failed_checks",
)


def layer_of(filename: str) -> str:
    """The layer a profiled function's ``co_filename`` belongs to."""
    parts = filename.replace("\\", "/").split("/")
    if len(parts) >= 3 and parts[-3] == "repro" and parts[-2] in LAYERS:
        return parts[-2]
    return CATCH_ALL


def fold_profile(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Sum ``tottime`` per layer over a :class:`pstats.Stats` table.

    ``stats`` maps ``(filename, line, function)`` to ``(cc, nc, tottime,
    cumtime, callers)``, the layout of ``cProfile.Profile.stats``.
    Every layer appears in the result, zero when it never ran.
    """
    totals = {layer: 0.0 for layer in LAYERS + (CATCH_ALL,)}
    for (filename, _line, _func), entry in stats.items():
        totals[layer_of(filename)] += entry[2]
    return totals


def digest(metrics) -> str:
    """sha256 of the canonical JSON of a ``RunMetrics``."""
    blob = json.dumps(asdict(metrics), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Pass:
    """What one pass measured: timestamps, spans, counts, outcomes."""

    def __init__(self, profiler: Optional[cProfile.Profile]) -> None:
        self.profiler = profiler
        self.first_event: Optional[float] = None
        #: The workload's ``wall_s`` when it is not the whole pass.
        self.wall: Optional[float] = None
        self.ops: List[dict] = []
        self.per_layer: Dict[str, float] = {}
        self.sums = dict(events=0, runq=0, overflow=0, ring=0, batches=0,
                         sends=0, fast_sends=0, fast_deliveries=0,
                         general_deliveries=0, fast_msgs=0,
                         buffered_msgs=0, messages=0, retries=0,
                         max_pages=0, build_s=0.0, run_s=0.0,
                         collect_s=0.0)

    def mark_first_event(self) -> None:
        if self.first_event is None:
            self.first_event = time.monotonic()
            if self.profiler is not None:
                self.profiler.enable()

    def op(self, name: str, metrics=None,
           error: Optional[str] = None) -> None:
        self.ops.append(dict(op=name, ok=error is None, error=error,
                             digest=None if metrics is None
                             else digest(metrics)))

    def simulate(self, name: str, build: Callable):
        """Build, run and measure one single-process machine.

        ``build`` returns ``(machine, job)`` with the machine started.
        Returns the run's ``RunMetrics``.
        """
        from repro.analysis.metrics import collect_metrics

        sums = self.sums
        t0 = time.perf_counter()
        machine, job = build()
        t1 = time.perf_counter()
        self.mark_first_event()
        machine.run_until_job_done(job, limit=LIMIT)
        t2 = time.perf_counter()
        metrics = collect_metrics(machine, job)
        t3 = time.perf_counter()
        sums["build_s"] += t1 - t0
        sums["run_s"] += t2 - t1
        sums["collect_s"] += t3 - t2

        engine, fabric = machine.engine, machine.fabric.stats
        sums["events"] += engine.events_executed
        sums["runq"] += engine.runq_events
        sums["overflow"] += engine.overflow_scheduled
        sums["ring"] += engine.ring_events
        sums["batches"] += engine.cycle_batches
        sums["sends"] += fabric.messages_sent
        sums["fast_sends"] += fabric.fast_path_sends
        for node in machine.nodes:
            sums["fast_deliveries"] += node.ni.stats.fast_deliveries
            sums["general_deliveries"] += node.ni.stats.general_deliveries
        sums["fast_msgs"] += metrics.fast_messages
        sums["buffered_msgs"] += metrics.buffered_messages
        sums["messages"] += metrics.messages_sent
        sums["retries"] += metrics.retries
        sums["max_pages"] = max(sums["max_pages"], metrics.max_buffer_pages)
        self.op(name, metrics)
        return metrics

    def finish(self, end: float) -> None:
        """Derive the per-layer counts from the run sums."""
        s = self.sums
        deliveries = s["fast_deliveries"] + s["general_deliveries"]
        two_case = s["fast_msgs"] + s["buffered_msgs"]
        self.per_layer.update({
            "sim.events": s["events"],
            "sim.runq_events": s["runq"],
            "sim.overflow_scheduled": s["overflow"],
            "sim.mean_batch_events": _ratio(s["ring"], s["batches"]),
            "sim.events_per_s": _ratio(s["events"], s["run_s"]),
            "network.sends": s["sends"],
            "network.fast_send_ratio": _ratio(s["fast_sends"], s["sends"]),
            "ni.deliveries": deliveries,
            "ni.fast_delivery_ratio": _ratio(s["fast_deliveries"],
                                             deliveries),
            "glaze.buffered_fraction": _ratio(s["buffered_msgs"],
                                              two_case),
            "glaze.max_buffer_pages": s["max_pages"],
            "protocols.retries": s["retries"],
            "protocols.retry_ratio": _ratio(s["retries"], s["messages"]),
            "machine.build_s": s["build_s"],
            "machine.run_s": s["run_s"],
            "analysis.collect_s": s["collect_s"],
        })
        for name in SHARD_METRICS + REPORT_METRICS:
            self.per_layer.setdefault(name, 0.0)
        if self.wall is None:
            self.wall = end - self.first_event


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# The four workloads
# ----------------------------------------------------------------------
def paper_apps(p: Pass, seed: int) -> None:
    """The five Table 6 applications, each gang-scheduled against null."""
    from repro.apps.null_app import NullApplication
    from repro.experiments.config import SimulationConfig
    from repro.experiments.workloads import make_workload
    from repro.machine.machine import Machine

    for name in PAPER_APPS:
        def build(name=name):
            machine = Machine(SimulationConfig(num_nodes=8, seed=seed,
                                               skew_fraction=0.05))
            job = machine.add_job(make_workload(name, seed=seed,
                                                num_nodes=8, scale="fast"))
            machine.add_job(NullApplication())
            machine.start()
            return machine, job

        p.simulate(name, build)


def mailbox_1m(p: Pass, seed: int) -> None:
    """The 1M-client store-and-forward tier, built as ``run_mailbox``
    builds it (at a 2400-cycle mean gap, where the run's event count
    varies ~4% across seeds rather than ~30% at the default 600)."""
    from repro.apps.mailbox import MailboxApplication
    from repro.experiments.config import SimulationConfig
    from repro.experiments.mailbox_sweeps import (
        MAILBOX_NODES_TOTAL, MAILBOX_SERVICE_NODES,
    )
    from repro.machine.machine import Machine

    def build():
        machine = Machine(SimulationConfig(num_nodes=MAILBOX_NODES_TOTAL,
                                           seed=seed))
        job = machine.add_job(MailboxApplication(
            num_nodes=MAILBOX_NODES_TOTAL,
            mailbox_nodes=MAILBOX_SERVICE_NODES, clients=1_000_000,
            recipients=48, messages_per_gateway=400, mean_gap=2400,
            mailbox_capacity=1_024, max_active_flows=512, seed=seed))
        machine.start()
        return machine, job

    p.simulate("mailbox", build)


def shard_a2a(p: Pass, seed: int) -> None:
    """Single-process reference, then ``shards=2`` windowed."""
    from repro.apps.null_app import NullApplication
    from repro.apps.synth import SynthApplication
    from repro.experiments.config import SimulationConfig
    from repro.experiments.synth_sweeps import SYNTH_SKEW, T_HAND, \
        run_synth
    from repro.machine.machine import Machine

    def build():
        machine = Machine(SimulationConfig(
            num_nodes=A2A["num_nodes"], seed=seed,
            skew_fraction=SYNTH_SKEW, timeslice=A2A["timeslice"],
            net_base_latency=A2A["net_base_latency"],
            fabric_credits=A2A["fabric_credits"]))
        job = machine.add_job(SynthApplication(
            group_size=A2A["group_size"], t_betw=A2A["t_betw"],
            t_hand=T_HAND, total_messages_per_node=A2A["messages_per_node"],
            num_nodes=A2A["num_nodes"], seed=seed))
        machine.add_job(NullApplication())
        machine.start()
        return machine, job

    reference = p.simulate("reference", build)
    serial_run_s = p.sums["run_s"]
    extra: dict = {}
    info: dict = {}
    t0 = time.perf_counter()
    sharded = run_synth(A2A["group_size"], A2A["t_betw"], seed=seed,
                        messages_per_node=A2A["messages_per_node"],
                        timeslice=A2A["timeslice"], shards=2,
                        num_nodes=A2A["num_nodes"],
                        net_base_latency=A2A["net_base_latency"],
                        fabric_credits=A2A["fabric_credits"],
                        extra_out=extra, info=info)
    p.wall = time.perf_counter() - t0
    same = asdict(sharded) == asdict(reference)
    p.op("sharded", sharded,
         error=None if same else "sharded RunMetrics differ from the "
                                 "single-process reference")
    events = info.get("shard_events") or [0]
    p.per_layer.update({
        "shard.epochs": extra.get("shard_epochs", 0),
        "shard.cross_shard_messages": extra.get("cross_shard_messages", 0),
        "shard.bytes_exchanged": extra.get("bytes_exchanged", 0),
        "shard.empty_epochs_coalesced":
            extra.get("empty_epochs_coalesced", 0),
        "shard.encode_s": info.get("encode_seconds", 0.0),
        "shard.barrier_stalls": extra.get("barrier_stalls", 0),
        "shard.serial_fallbacks": extra.get("serial_fallbacks", 0),
        "shard.worker_imbalance": _ratio(max(events),
                                         sum(events) / len(events)),
        "shard.speedup_vs_serial": _ratio(serial_run_s, p.wall),
    })


def report_subset(p: Pass, seed: int) -> None:
    """``run_report`` cold into a fresh cache, then the same call warm.

    The inputs are the committed goldens, so ``seed`` changes nothing.
    """
    from repro.runner import ResultCache
    from repro.validate.goldens import default_goldens_path, load_goldens
    from repro.validate.report import run_report

    load_goldens(default_goldens_path())
    tmp_root = ROOT / ".bench_e2e"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        tmp = Path(tmp)
        cache = ResultCache(tmp / "cache")
        p.mark_first_event()
        phases = {}
        checks = failed_checks = 0
        for phase in ("cold", "warm"):
            hits, misses = cache.hits, cache.misses
            out = tmp / phase
            t0 = time.perf_counter()
            code = run_report(only=list(REPORT_ONLY), check=True, jobs=2,
                              cache=cache, out_dir=out,
                              experiments_path=tmp / "EXPERIMENTS.md",
                              echo=lambda _line: None)
            phases[phase] = (time.perf_counter() - t0,
                             cache.hits - hits, cache.misses - misses)
            for artifact in REPORT_ONLY:
                doc = json.loads((out / f"{artifact}.json").read_text())
                for result in doc["results"]:
                    p.op(f"{phase}:{artifact}.{result['quantity']}",
                         error=None if result["ok"] else result["detail"])
                    checks += 1
                    failed_checks += not result["ok"]
            if code != 0:
                p.op(f"{phase}:exit", error=f"run_report returned {code}")
    cold, warm = phases["cold"], phases["warm"]
    if warm[2] or warm[1] != cold[2]:
        p.op("warm:cache", error=f"warm pass hit {warm[1]} and missed "
                                 f"{warm[2]}; cold pass stored {cold[2]}")
    p.wall = cold[0] + warm[0]
    p.per_layer.update({
        "runner.cache_hits": cold[1] + warm[1],
        "runner.cache_misses": cold[2] + warm[2],
        "runner.warm_replay_s": warm[0],
        "validate.checks": checks,
        "validate.failed_checks": failed_checks,
    })


WORKLOADS = {
    "paper_apps": paper_apps,
    "mailbox_1m": mailbox_1m,
    "shard_a2a": shard_a2a,
    "report_subset": report_subset,
}


def host_calibration(objects: int = 30_000, steps: int = 60_000) -> float:
    """Seconds for a fixed pure-Python event loop over small objects.

    Its mix (heap, dicts, lists, generator sends over a few MiB of
    objects) resembles the simulator's, and it shares no code with the
    repository, so no change there can move it. Timed in the pass's own
    process right after the pass, it follows how fast the host ran that
    pass: on a shared 2-CPU host whose speed swung 2x within minutes, a
    pass's time and this kernel's correlated at 0.7-0.8 per sample.
    """
    start = time.perf_counter()
    rng = random.Random(12345)
    nodes = [{"id": i, "count": 0, "peers": None} for i in range(objects)]
    for node in nodes:
        node["peers"] = [nodes[rng.randrange(objects)] for _ in range(4)]
    heap = [(rng.randrange(1000), i) for i in range(4096)]
    heapq.heapify(heap)

    def process():
        total = 0
        while True:
            total += yield

    procs = [process() for _ in range(256)]
    for proc in procs:
        next(proc)
    for _ in range(steps):
        when, i = heapq.heappop(heap)
        node = nodes[i]
        node["count"] += 1
        peer = node["peers"][when & 3]
        procs[i & 255].send(when)
        heapq.heappush(heap, (when + 1 + (peer["id"] & 63), peer["id"]))
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children.

    For this process it reads ``VmHWM``: ``ru_maxrss`` survives
    ``exec`` and so would report the spawning harness's size.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    kib = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_pass(workload: str, seed: int, spawn: float,
             trace: bool) -> dict:
    """Run one pass and return the record the harness reads."""
    profiler = cProfile.Profile() if trace else None
    p = Pass(profiler)
    try:
        WORKLOADS[workload](p, seed)
    except Exception:
        p.op("pass", error=traceback.format_exc())
    end = time.monotonic()
    if profiler is not None:
        profiler.disable()
    if p.first_event is None:
        p.first_event = end
    p.finish(end)
    record = {
        "workload": workload,
        "seed": seed,
        "setup_s": p.first_event - spawn,
        "pass_s": end - p.first_event,
        "wall_s": p.wall,
        "peak_rss_mb": peak_rss_mb(),
        "ops": p.ops,
        "per_layer": p.per_layer,
    }
    if profiler is not None:
        profiler.create_stats()
        record["layers"] = fold_profile(profiler.stats)
    # Two kernel runs: their mean tracked the pass better than one.
    record["host_calib_s"] = (host_calibration() + host_calibration()) / 2
    return record


def main(argv: List[str]) -> int:
    workload, seed, spawn, trace = argv
    record = run_pass(workload, int(seed), float(spawn), trace == "1")
    sys.stdout.write("\n" + json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
