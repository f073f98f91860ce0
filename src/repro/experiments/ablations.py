"""Ablations of the design choices DESIGN.md calls out.

Each study isolates one element of the paper's argument:

* **two-case** (:func:`two_case_specs`) — disable the fast case
  entirely (every message through the software buffer, the
  SUNMOS-style baseline of Section 2) and measure the slowdown two-case
  delivery avoids;
* **timeout** (:func:`timeout_specs`) — sweep the atomicity-timer
  preset ("a free parameter that may be changed without affecting
  correctness"): correctness must hold at every value while the
  revocation count and buffered fraction respond;
* **queue depth** (:func:`queue_depth_specs`) — vary the NI hardware
  input queue depth: a deeper queue absorbs bursts in hardware,
  shifting backpressure out of the network;
* **architecture**, **bulk transfer** and **delivery discipline**
  (:func:`architecture_specs`, :func:`bulk_specs`,
  :func:`delivery_specs`) — the Figure 1 interface architectures,
  fragmented vs DMA CRL transfers, and two-case vs zero-copy rings vs
  DAMQ.

Every ablation point is one independent run, so each study is a list
of :class:`~repro.runner.RunSpec` built by its ``*_specs`` function
(which ``repro report`` also uses to plan its runs); the points of any
mix of studies run in one :func:`repro.runner.run_specs` batch and
cache like any other experiment (:func:`ablation_specs` is the batch
of ``repro ablations`` and its report artifact), and
:func:`ablation_points` folds the results into labelled points per
study. Study-specific side measurements (kernel insert cycles,
network backlog, resident pages, ...) travel in the run's ``extra``
dict so they survive worker-process and cache boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.metrics import RunMetrics
from repro.apps.null_app import NullApplication
from repro.apps.synth import SynthApplication
from repro.experiments.config import SimulationConfig
from repro.experiments.workloads import make_workload, run_jobs
from repro.runner import RunResult, RunSpec, bind_spec


@dataclass
class AblationPoint:
    """One configuration's outcome."""

    label: str
    metrics: RunMetrics
    extra: Dict[str, float]


# ----------------------------------------------------------------------
# Two-case vs always-buffered
# ----------------------------------------------------------------------
def execute_two_case(workload: str = "barrier", num_nodes: int = 8,
                     scale: str = "fast", forced: bool = False):
    """Runner executor (kind ``ablate_two_case``)."""
    config = SimulationConfig(num_nodes=num_nodes,
                              force_buffered=forced)
    app = make_workload(workload, seed=1, num_nodes=num_nodes,
                        scale=scale)
    metrics, _extra, machine, _job = run_jobs(config, [app])
    extra = {"kernel_insert_cycles": sum(
        node.kernel.stats.insert_cycles for node in machine.nodes)}
    return metrics, extra


def two_case_specs() -> List[RunSpec]:
    return [bind_spec("ablate_two_case", forced=forced)
            for forced in (False, True)]


# ----------------------------------------------------------------------
# Atomicity-timeout sweep
# ----------------------------------------------------------------------
def execute_timeout(timeout: int, workload: str = "barnes",
                    num_nodes: int = 8, skew: float = 0.05,
                    scale: str = "fast"):
    """Runner executor (kind ``ablate_timeout``)."""
    config = SimulationConfig(num_nodes=num_nodes, skew_fraction=skew,
                              atomicity_timeout=timeout,
                              timeslice=100_000)
    app = make_workload(workload, seed=1, num_nodes=num_nodes,
                        scale=scale)
    metrics = run_jobs(config, [app, NullApplication()])[0]
    return metrics, {"timeout": timeout}


def timeout_specs() -> List[RunSpec]:
    return [bind_spec("ablate_timeout", timeout=timeout)
            for timeout in (1_000, 5_000, 50_000)]


# ----------------------------------------------------------------------
# Interface architectures: direct two-case vs memory-based (Figure 1)
# ----------------------------------------------------------------------
def execute_architecture(label: str, workload: str = "barrier",
                         num_nodes: int = 8, scale: str = "fast"):
    """Runner executor (kind ``ablate_architecture``)."""
    from repro.core.two_case import DeliveryArchitecture

    if label == "two-case":
        config = SimulationConfig(num_nodes=num_nodes)
    elif label == "memory-based":
        config = SimulationConfig(
            num_nodes=num_nodes,
            architecture=DeliveryArchitecture.MEMORY_BASED)
    elif label == "always-buffered":
        config = SimulationConfig(num_nodes=num_nodes,
                                  force_buffered=True)
    else:
        raise ValueError(f"unknown architecture label {label!r}")
    app = make_workload(workload, seed=1, num_nodes=num_nodes,
                        scale=scale)
    metrics, _extra, machine, job = run_jobs(config, [app], trace=True)
    pinned = sum(
        state.buffer.pages_in_use
        for state in job.node_states.values()
    )
    summary = machine.tracer.summary()
    latency = (summary["mean_latency_fast"]
               if label == "two-case"
               else summary["mean_latency_buffered"])
    extra = {
        "resident_buffer_pages": pinned,
        "mean_message_latency": latency,
    }
    return metrics, extra


#: The Figure 1 architectures, in study order.
ARCHITECTURES = ("two-case", "memory-based", "always-buffered")


def architecture_specs() -> List[RunSpec]:
    """The Figure 1 architectures on one workload: two-case (the
    paper's system, direct delivery dominates), memory-based (every
    message through a pinned memory queue) and always-buffered (the
    software-buffer-only strawman)."""
    return [bind_spec("ablate_architecture", label=label)
            for label in ARCHITECTURES]


# ----------------------------------------------------------------------
# Fragmented vs bulk (DMA) data transfer in CRL
# ----------------------------------------------------------------------
class _BigRegionReaders:
    """A Barnes-tree-like pattern: node 0 republishes a large region
    each round; every other node re-reads it."""

    name = "bigregion"

    def __init__(self, num_nodes: int, region_words: int, rounds: int,
                 bulk_threshold) -> None:
        from repro.apps.base import CollectiveOps
        from repro.crl.api import Crl

        self.num_nodes = num_nodes
        self.region_words = region_words
        self.rounds = rounds
        self.crl = Crl(num_nodes, bulk_threshold=bulk_threshold)
        self.crl.create(0, home=0, size_words=region_words,
                        init=[0] * region_words)
        self.collectives = CollectiveOps(num_nodes)

    def main(self, rt, node_index):
        for round_no in range(self.rounds):
            if node_index == 0:
                yield from self.crl.start_write(rt, 0)
                data = self.crl.data(rt, 0)
                data[0] = round_no
                yield from self.crl.end_write(rt, 0)
            yield from self.collectives.barrier(rt)
            snapshot = yield from self.crl.read_region(rt, 0)
            assert snapshot[0] == round_no
            yield 500
            yield from self.collectives.barrier(rt)


def execute_bulk(threshold: Optional[int], region_words: int = 1500,
                 rounds: int = 6, num_nodes: int = 8):
    """Runner executor (kind ``ablate_bulk``)."""
    config = SimulationConfig(num_nodes=num_nodes)
    app = _BigRegionReaders(num_nodes, region_words, rounds,
                            bulk_threshold=threshold)
    metrics = run_jobs(config, [app])[0]
    stats = app.crl.stats
    extra = {
        "data_fragments": stats["data_fragments"],
        "bulk_transfers": stats["bulk_transfers"],
    }
    return metrics, extra


def bulk_specs() -> List[RunSpec]:
    return [bind_spec("ablate_bulk", threshold=threshold)
            for threshold in (None, 256)]


# ----------------------------------------------------------------------
# NI input-queue depth
# ----------------------------------------------------------------------
def execute_queue_depth(depth: int, num_nodes: int = 4):
    """Runner executor (kind ``ablate_queue_depth``)."""
    config = SimulationConfig(num_nodes=num_nodes,
                              ni_input_queue=depth)
    app = SynthApplication(group_size=100, t_betw=50,
                           total_messages_per_node=800,
                           num_nodes=num_nodes, seed=1)
    metrics, _extra, machine, _job = run_jobs(config, [app])
    max_backlog = max(
        machine.fabric.stats.max_backlog.values(), default=0
    )
    extra = {
        "max_network_backlog": max_backlog,
        "sender_blocks": machine.fabric.stats.sender_blocks,
    }
    return metrics, extra


def queue_depth_specs() -> List[RunSpec]:
    return [bind_spec("ablate_queue_depth", depth=depth)
            for depth in (1, 2, 8)]


# ----------------------------------------------------------------------
# Delivery disciplines: two-case vs zero-copy rings vs DAMQ
# ----------------------------------------------------------------------
def execute_delivery(label: str, num_nodes: int = 4):
    """Runner executor (kind ``ablate_delivery``).

    The same overloading synth workload as the queue-depth study
    (t_betw=50 against a ~290-cycle handler keeps the consumer behind
    the senders), under each delivery discipline. The ring and pool are
    sized small so the pressure paths — zerocopy's protection-fault
    fallback, damq's occupancy eviction — actually fire.
    """
    if label == "twocase":
        config = SimulationConfig(num_nodes=num_nodes)
    elif label == "zerocopy":
        config = SimulationConfig(num_nodes=num_nodes,
                                  delivery="zerocopy",
                                  zerocopy_ring_words=64)
    elif label == "damq":
        config = SimulationConfig(num_nodes=num_nodes,
                                  delivery="damq", damq_capacity=4)
    else:
        raise ValueError(f"unknown delivery label {label!r}")
    app = SynthApplication(group_size=100, t_betw=50,
                           total_messages_per_node=800,
                           num_nodes=num_nodes, seed=1)
    metrics, _extra, machine, _job = run_jobs(config, [app])
    stats = [node.ni.discipline.stats for node in machine.nodes]
    extra = {
        "zerocopy_fallbacks": sum(s.fallbacks for s in stats),
        "damq_share_refusals": sum(s.damq_share_refusals for s in stats),
        "sender_blocks": machine.fabric.stats.sender_blocks,
    }
    return metrics, extra


#: The delivery disciplines of the head-to-head, in study order.
DISCIPLINES = ("twocase", "zerocopy", "damq")


def delivery_specs(num_nodes: int = 4) -> List[RunSpec]:
    return [bind_spec("ablate_delivery", label=label, num_nodes=num_nodes)
            for label in DISCIPLINES]


def ablation_specs() -> List[RunSpec]:
    """The five design-choice studies of ``repro ablations``, in print
    order (the delivery head-to-head is its own artifact)."""
    return (two_case_specs() + timeout_specs() + queue_depth_specs()
            + architecture_specs() + bulk_specs())


#: Each study's point label, by run kind.
_LABELS: Dict[str, Callable[[RunSpec], str]] = {
    "ablate_two_case": lambda spec: ("always-buffered" if spec["forced"]
                                     else "two-case"),
    "ablate_timeout": lambda spec: f"timeout={spec['timeout']}",
    "ablate_queue_depth": lambda spec: f"queue={spec['depth']}",
    "ablate_architecture": lambda spec: spec["label"],
    "ablate_bulk": lambda spec: ("fragments" if spec["threshold"] is None
                                 else "bulk-dma"),
    "ablate_delivery": lambda spec: spec["label"],
}


def ablation_points(results: Sequence[RunResult],
                    ) -> Dict[str, List[AblationPoint]]:
    """Labelled points per study (keyed by run kind, in run order) from
    the results of any mix of the ``*_specs`` above."""
    studies: Dict[str, List[AblationPoint]] = {}
    for result in results:
        kind = result.spec.kind
        studies.setdefault(kind, []).append(AblationPoint(
            label=_LABELS[kind](result.spec), metrics=result.require(),
            extra=result.extra))
    return studies
