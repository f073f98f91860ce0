"""Internet-scale mailbox sweeps: client scaling and delivery head-to-head.

The mailbox workload (:mod:`repro.apps.mailbox`) aggregates its logical
client population into bounded flow objects, so the interesting
experimental question is what *doesn't* change as ``--clients`` grows
by orders of magnitude: resident flow state stays pinned at the LRU
cap, the buffered fraction tracks the diurnal envelope rather than the
population, and run time stays O(messages). The scaling sweep measures
exactly that, from thousands of clients to millions, and the
head-to-head row replays the same workload under each NI delivery
discipline (two-case / zerocopy / DAMQ).

Both sweeps route through :mod:`repro.runner` (one
:class:`~repro.runner.RunSpec` per (x, trial) run, planned by
:func:`scaling_specs` and folded by :func:`scaling_fold`), so they
parallelize and memoize like every other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunMetrics
from repro.apps.mailbox import RETRIEVAL_LATENCY_EDGES, MailboxApplication
from repro.experiments.config import SimulationConfig
from repro.experiments.workloads import run_jobs
from repro.ni.delivery import DELIVERY_KINDS
from repro.runner import RunResult, RunSpec, bind_spec, trial_means

#: The scaling sweep's x axis: logical client populations. Three
#: orders of magnitude; the O(active-flows) aggregation is what keeps
#: the rightmost point as cheap as the leftmost.
CLIENT_SCALES = (1_000, 100_000, 1_000_000)
#: Fixed population for the delivery head-to-head row.
HEAD_TO_HEAD_CLIENTS = 100_000
MAILBOX_NODES_TOTAL = 8
MAILBOX_SERVICE_NODES = 2


def run_mailbox(clients: int = 100_000, recipients: int = 48,
                messages: int = 400, mean_gap: int = 600,
                mailbox_capacity: int = 1_024,
                max_active_flows: int = 512,
                num_nodes: int = MAILBOX_NODES_TOTAL,
                mailbox_nodes: int = MAILBOX_SERVICE_NODES,
                seed: int = 1, *, delivery: str = "twocase",
                faults: str = "", shards: int = 1,
                locality_groups: int = 0,
                info: Optional[Dict[str, Any]] = None,
                ) -> Tuple[RunMetrics, Dict[str, Any]]:
    """Runner executor for one mailbox run (kind ``mailbox``).

    ``extra`` carries the mailbox service's own counter snapshot plus
    the fixed-edge retrieval-latency buckets — all integers, so it
    rides the result cache bit-identically.

    ``shards > 1`` routes through :func:`repro.shard.run_sharded`
    (bit-identical metrics or an automatic serial fallback; ``shards``
    still joins the spec, keeping cache entries honest about
    provenance);
    ``locality_groups`` confines gateway/mailbox traffic to contiguous
    node groups — set it equal to ``shards`` so aligned groups let the
    shards free-run without barriers. ``info`` receives wall-clock
    shard timings (benchmarks only; never cached).
    """
    config = SimulationConfig(num_nodes=num_nodes, seed=seed,
                              delivery=delivery, shards=shards)
    if faults:
        config = config.with_faults(faults)
    app = MailboxApplication(
        num_nodes=num_nodes, mailbox_nodes=mailbox_nodes,
        clients=clients, recipients=recipients,
        messages_per_gateway=messages, mean_gap=mean_gap,
        mailbox_capacity=mailbox_capacity,
        max_active_flows=max_active_flows, seed=seed,
        locality_groups=locality_groups,
    )
    limit = 50_000_000_000
    if shards > 1:
        from repro.shard import run_sharded

        metrics, extra = run_sharded(config, [app], limit=limit,
                                     info=info)
        # Distributed modes merge the per-shard snapshots; the serial
        # modes ran the parent's own app instance, so read it directly.
        extra.setdefault("mailbox", app.stats.snapshot())
        extra.setdefault("queued_at_exit", app.service.queued_total())
        extra["latency_edges"] = list(RETRIEVAL_LATENCY_EDGES)
        return metrics, extra
    metrics = run_jobs(config, [app], limit)[0]
    extra: Dict[str, Any] = {
        "mailbox": app.stats.snapshot(),
        "latency_edges": list(RETRIEVAL_LATENCY_EDGES),
        "queued_at_exit": app.service.queued_total(),
    }
    return metrics, extra


@dataclass
class MailboxSweepResult:
    """Scaling curves plus the delivery head-to-head rows."""

    clients: List[int]
    #: metric name -> one value per client scale.
    curves: Dict[str, List[float]]
    #: delivery kind -> summary metrics at HEAD_TO_HEAD_CLIENTS.
    head_to_head: Dict[str, Dict[str, float]]


#: Curve metrics (RunMetrics field names) reported per client scale.
CURVE_FIELDS = (
    "elapsed_cycles",
    "buffered_fraction", "mailbox_overflow_drops", "max_buffer_pages",
    "mailbox_active_flows_peak", "mailbox_occupancy_peak",
    "mailbox_dup_suppressed", "retrieval_latency_mean",
)


def scaling_specs() -> List[RunSpec]:
    """Client-scaling curves + delivery head-to-head, one fan-out: two
    seeded trials of every client scale, then one run per delivery
    kind."""
    return [
        bind_spec("mailbox", clients=clients, seed=seed)
        for clients in CLIENT_SCALES
        for seed in (1, 2)
    ] + [
        bind_spec("mailbox", clients=HEAD_TO_HEAD_CLIENTS, seed=1,
                  delivery=kind)
        for kind in DELIVERY_KINDS
    ]


def scaling_fold(results: Sequence[RunResult]) -> MailboxSweepResult:
    """:func:`scaling_specs`' results: the curves averaged over trials,
    the head-to-head rows one run each."""
    curve_runs = len(results) - len(DELIVERY_KINDS)
    points = trial_means(results[:curve_runs])
    curves = {name: [getattr(metrics, name) for _spec, metrics in points]
              for name in CURVE_FIELDS}
    head_to_head: Dict[str, Dict[str, float]] = {}
    for kind, result in zip(DELIVERY_KINDS, results[curve_runs:]):
        m = result.require()
        head_to_head[kind] = {
            "buffered_fraction": m.buffered_fraction,
            "elapsed_cycles": m.elapsed_cycles,
            "retrieval_latency_mean": m.retrieval_latency_mean,
            "mailbox_occupancy_peak": m.mailbox_occupancy_peak,
            "damq_evictions": m.damq_evictions,
            "pinned_pages_peak": m.pinned_pages_peak,
        }
    return MailboxSweepResult(
        clients=[spec["clients"] for spec, _metrics in points],
        curves=curves, head_to_head=head_to_head)
