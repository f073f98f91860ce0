"""Metric extraction from completed runs.

The paper's evaluation reports, per application run: total cycles,
message counts, the fraction of messages that took the buffered path,
the high-water physical-page count, and the derived per-node averages
T_betw (cycles between communication events) and T_hand (cycles per
handler). :func:`harvest` folds the stats objects into integers by
their fields' declared rules (:mod:`repro.stats`); :func:`derive` turns
one harvest, or the :func:`merge` of a sharded run's, into them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.glaze.jobs import Job
from repro.machine.machine import Machine, stats_sources
from repro.machine.node import Node
from repro.stats import MAX, Rule, fold, rules

_HARVEST = "harvest"


def _from(key: str) -> Any:
    """A :class:`RunMetrics` field copied from harvest entry ``key``."""
    return field(default=0, metadata={_HARVEST: key})


@dataclass
class RunMetrics:
    """Everything the tables and figures need from one run."""

    name: str = ""
    elapsed_cycles: int = _from("job.elapsed_cycles")
    messages_sent: int = _from("job.messages_sent")
    fast_messages: int = _from("two_case.fast_messages")
    buffered_messages: int = _from("two_case.buffered_messages")
    buffered_fraction: float = 0.0
    max_buffer_pages: int = _from("buffering.max_pages")
    t_betw: float = 0.0
    t_hand: float = 0.0
    handler_invocations: int = _from("job.handler_invocations")
    transitions_to_buffered: int = _from("two_case.transitions_to_buffered")
    transitions_to_fast: int = _from("two_case.transitions_to_fast")
    revocations: int = _from("kernel.revocations")
    page_outs: int = _from("kernel.page_outs")
    overflow_suspensions: int = _from("overflow.suspensions")
    # Fault-injection outcomes (all zero on a reliable fabric); the
    # defaults keep cached results from fault-free runs loadable.
    messages_dropped: int = _from("fabric.messages_dropped")
    messages_duplicated: int = _from("fabric.messages_duplicated")
    retries: int = _from("transport.retransmissions")
    invariant_violations: int = 0
    # Delivery-discipline accounting (all zero under the default
    # two-case discipline; defaults keep cached results loadable).
    pinned_pages_peak: int = _from("delivery.pinned_pages_peak")
    delivery_fault_traps: int = _from("delivery.fault_traps")
    damq_evictions: int = _from("delivery.damq_evictions")
    damq_peak_occupancy: int = _from("delivery.damq_peak_occupancy")
    # Mailbox-workload accounting (see repro.apps.mailbox; all zero
    # for jobs without a registered mailbox service, and the defaults
    # keep cached results from older runs loadable).
    mailbox_enqueued: int = _from("mailbox.enqueued")
    mailbox_retrieved: int = _from("mailbox.retrieved")
    mailbox_overflow_drops: int = _from("mailbox.overflow_drops")
    mailbox_dup_suppressed: int = _from("mailbox.duplicates_suppressed")
    mailbox_occupancy_peak: int = _from("mailbox.occupancy_peak")
    mailbox_active_flows_peak: int = _from("mailbox.active_flows_peak")
    mailbox_replays: int = _from("mailbox.replays")
    mailbox_crash_losses: int = _from("mailbox.crash_losses")
    retrieval_latency_mean: float = 0.0


#: Entries :func:`harvest` computes itself, and their rules.
_UNDECLARED = {"job.elapsed_cycles": Rule(None, shards=MAX),
               "two_case.transitions_to_buffered": Rule(None),
               "transport.retransmissions": Rule(None)}


@lru_cache(maxsize=None)
def _declared() -> Dict[str, Tuple[str, str, Rule]]:
    """``key -> (prefix, field, rule)`` for the other entries: the
    :class:`RunMetrics` sources and the rest :func:`derive` reads."""
    keys = {f.metadata.get(_HARVEST) for f in fields(RunMetrics)}
    keys.update(("job.handler_cycles", "mailbox.latency_count",
                 "mailbox.latency_total"))
    keys -= _UNDECLARED.keys()
    return {f"{prefix}.{name}": (prefix, name, rule)
            for prefix, cls, _ in stats_sources()
            for name, rule in rules(cls) if f"{prefix}.{name}" in keys}


def _rule(key: Optional[str]) -> Rule:
    entry = _declared().get(key)
    return entry[2] if entry else _UNDECLARED.get(key, Rule(None))


def harvest(machine: Machine, job: Job,
            nodes: Sequence[Node]) -> Dict[str, Any]:
    """The integers :func:`derive` reads, for ``nodes``' share of ``job``
    (machine-wide stats are read whole: a shard replica's are local)."""
    objects = {prefix: instances(machine, (job,), nodes)
               for prefix, _, instances in stats_sources()}
    raw = {key: fold(rule.fold, [getattr(obj, name)
                                 for obj in objects[prefix]])
           for key, (prefix, name, rule) in _declared().items()}
    ends = [job.node_states[n.node_id].main_finish_time for n in nodes]
    end = machine.engine.now if None in ends else max(ends)
    raw["job.elapsed_cycles"] = end - (job.start_time or 0)
    raw["two_case.transitions_to_buffered"] = sum(
        job.two_case.transitions_to_buffered.values())
    raw["transport.retransmissions"] = sum(
        t.retransmissions for t in machine.transports)
    return raw


def merge(raws: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-shard harvests, each entry by its shard rule."""
    return {key: fold(_rule(key).shards, [raw[key] for raw in raws])
            for key in raws[0]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(raw: Dict[str, Any], name: str, num_nodes: int) -> RunMetrics:
    """The :class:`RunMetrics` of one harvest."""
    m = RunMetrics(name=name, **{f.name: raw[f.metadata[_HARVEST]]
                                 for f in fields(RunMetrics)
                                 if _HARVEST in f.metadata})
    # "Average cycles between communication events" is a per-node rate:
    # elapsed cycles divided by this node's share of the sends.
    per_node_msgs = m.messages_sent / num_nodes if num_nodes else 0
    m.t_betw = _ratio(m.elapsed_cycles, per_node_msgs)
    m.t_hand = _ratio(raw["job.handler_cycles"], m.handler_invocations)
    m.buffered_fraction = _ratio(m.buffered_messages,
                                 m.fast_messages + m.buffered_messages)
    m.retrieval_latency_mean = _ratio(raw["mailbox.latency_total"],
                                      raw["mailbox.latency_count"])
    return m


def collect_metrics(machine: Machine, job: Job) -> RunMetrics:
    """Derive the paper's metrics from a finished job."""
    return derive(harvest(machine, job, machine.nodes), job.name,
                  machine.config.num_nodes)


def mean(metrics: Iterable[RunMetrics]) -> RunMetrics:
    """Average numeric fields across trials (max for high-water marks)."""
    runs: List[RunMetrics] = list(metrics)
    if not runs:
        raise ValueError("no runs to average")
    out = RunMetrics(name=runs[0].name)
    for f in fields(RunMetrics)[1:]:  # every field but the name
        values = [getattr(run, f.name) for run in runs]
        peak = _rule(f.metadata.get(_HARVEST)).fold == MAX
        combined = max(values) if peak else sum(values) / len(runs)
        setattr(out, f.name, round(combined) if f.type == "int" else combined)
    return out
