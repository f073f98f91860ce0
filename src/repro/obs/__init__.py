"""Unified observability for the simulated machine (``repro.obs``).

One :class:`Observatory` per machine owns:

* a typed :class:`~repro.obs.registry.MetricRegistry` declaring the
  full metric taxonomy up front — counters/gauges/histograms for the
  engine, fabric, NIs, kernel, virtual buffering, overflow control,
  two-case delivery and the reliable transport;
* live histogram hooks in the hot paths (fabric send/deliver, NI
  accept, kernel buffer insert), each guarded by the tracer's
  ``if obs is not None`` contract so disabled runs pay one ``None``
  check;
* a :class:`~repro.obs.snapshots.TimelineSampler` for periodic
  on-timeline state snapshots;
* a bounded event log for rare, discrete occurrences (mode
  transitions, overflow actions);
* an end-of-run :meth:`Observatory.finalize` harvest that copies every
  authoritative ``stats`` object into the registry — the single place
  that touches every declared counter, which is what lets
  ``registry.unwired()`` prove nothing is silently left at zero. The
  stats fields declare their own names and fold rules
  (:mod:`repro.stats`); the taxonomy and the harvest both iterate
  :func:`~repro.machine.machine.stats_sources`.

The whole payload (:meth:`Observatory.payload`) is JSON scalars only,
so it rides ``RunResult.extra`` through the persistent result cache
bit-identically. See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.two_case import TransitionReason
from repro.machine.machine import stats_sources
from repro.obs.export import (render_obs_report, sparkline, write_jsonl,
                              write_validation_jsonl)
from repro.obs.registry import (Counter, DuplicateMetric, Gauge, Histogram,
                                MetricRegistry)
from repro.obs.snapshots import TimelineSampler, take_sample
from repro.stats import SUM, fold, rules

#: Default timeline sampling period, in simulated cycles.
DEFAULT_SAMPLE_INTERVAL = 100_000


class Observatory:
    """All observability state for one :class:`~repro.machine.machine.Machine`."""

    def __init__(self, machine, sample_interval: Optional[int] = None,
                 snapshot_limit: int = 2048,
                 event_limit: int = 10_000) -> None:
        self.machine = machine
        self.registry = MetricRegistry()
        self.sample_interval = sample_interval
        self.sampler: Optional[TimelineSampler] = None
        if sample_interval is not None:
            self.sampler = TimelineSampler(machine, sample_interval,
                                           limit=snapshot_limit)
        self.event_limit = event_limit
        self.events: List[Dict[str, Any]] = []
        self.events_dropped = 0
        self._finalized = False
        self._declare()

    # ------------------------------------------------------------------
    # Metric taxonomy
    # ------------------------------------------------------------------
    def _declare(self) -> None:
        reg = self.registry
        # Live histograms (hot-path hooks; distributions that no stats
        # object retains).
        self.h_message_words = reg.histogram(
            "fabric.message_words", (4, 8, 16, 32, 64, 256, 1024),
            "wire length of launched messages")
        self.h_delivery_latency = reg.histogram(
            "fabric.delivery_latency", (16, 32, 64, 128, 256, 512, 1024,
                                        4096),
            "inject-to-NI latency, cycles")
        self.h_input_queue = reg.histogram(
            "ni.input_queue_depth", (1, 2, 3, 4, 8),
            "input-queue occupancy after each accepted delivery")
        self.h_insert_pages = reg.histogram(
            "kernel.insert_pages", (0, 1, 2, 4, 8),
            "fresh pages mapped per virtual-buffer insert")
        # Counters and gauges, harvested authoritatively in finalize():
        # one per declared field of every stats source, plus the
        # quantities no stats field holds.
        for prefix, cls, _ in stats_sources():
            for _, rule in rules(cls):
                if rule.obs is not None:
                    declare = reg.gauge if rule.kind == "gauge" else \
                        reg.counter
                    declare(f"{prefix}.{rule.obs}")
        for name in (
            "engine.events", "engine.compactions", "engine.runq_events",
            "engine.ring_events", "engine.overflow_scheduled",
            "engine.cycle_batches",
            "transport.sends", "transport.retransmissions",
            "transport.acks_sent", "transport.duplicates_suppressed",
            "transport.gave_up",
        ):
            reg.counter(name)
        for reason in TransitionReason:
            reg.counter(f"two_case.enter.{reason.value}")
        for name in ("engine.pending", "fabric.max_backlog",
                     "fabric.mean_latency", "two_case.buffered_fraction",
                     "shard.encode_seconds"):
            reg.gauge(name)
        from repro.apps.mailbox import RETRIEVAL_LATENCY_EDGES

        self.h_retrieval_latency = reg.histogram(
            "mailbox.retrieval_latency", RETRIEVAL_LATENCY_EDGES,
            "mailbox enqueue-to-gateway-delivery latency, cycles")

    # ------------------------------------------------------------------
    # Event log (rare, discrete occurrences)
    # ------------------------------------------------------------------
    def note_event(self, kind: str, **fields: Any) -> None:
        if len(self.events) >= self.event_limit:
            self.events_dropped += 1
            return
        self.events.append({"t": self.machine.engine.now, "kind": kind,
                            **fields})

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin timeline sampling (called from ``Machine.start``)."""
        if self.sampler is not None:
            self.sampler.start()

    def finalize(self) -> MetricRegistry:
        """Harvest every authoritative stats object into the registry.

        Idempotent (totals overwrite); touches every declared counter
        and gauge, so ``registry.unwired(("counter", "gauge"))`` after
        finalize is the no-silent-zero assertion.
        """
        machine = self.machine
        reg = self.registry

        def total(name: str, value) -> None:
            reg.get(name).set_total(value)

        def gauge(name: str, value) -> None:
            reg.get(name).set(value)

        engine = machine.engine
        total("engine.events", engine.events_executed)
        total("engine.compactions", engine.compactions)
        # Observability itself is a fast-path disturbance (the live
        # histograms re-engage the general paths in fabric and NI), so
        # in observed runs the fabric/NI fast counters read 0 and only
        # the engine run queue stays hot — the counters exist to show
        # exactly that two-case trade-off.
        total("engine.runq_events", engine.runq_events)
        # Heap events, the per-cycle batch count, and the overflow tier
        # counter the one-heap engine keeps at 0 (see OBSERVABILITY.md).
        total("engine.ring_events", engine.ring_events)
        total("engine.overflow_scheduled", engine.overflow_scheduled)
        total("engine.cycle_batches", engine.cycle_batches)
        gauge("engine.pending", engine.pending)

        # Every declared stats field, folded over the machine's
        # instances. A source the machine lacks (mailbox services, shard
        # stats) folds to an authoritative zero: the workload not
        # running, unlike a harvest that forgot it. A certified sharded
        # run has no single machine to observe, so only the shard
        # coordinator's serial-fallback machine carries shard stats.
        for prefix, cls, instances in stats_sources():
            objs = instances(machine, machine.jobs, machine.nodes)
            for name, rule in rules(cls):
                if rule.obs is not None:
                    put = gauge if rule.kind == "gauge" else total
                    put(f"{prefix}.{rule.obs}",
                        fold(rule.fold, [getattr(o, name) for o in objs]))

        fab = machine.fabric.stats
        gauge("fabric.max_backlog",
              max(fab.max_backlog.values()) if fab.max_backlog else 0)
        gauge("fabric.mean_latency", fab.mean_latency)

        for reason in TransitionReason:
            total(f"two_case.enter.{reason.value}",
                  sum(job.two_case.transitions_to_buffered.get(reason, 0)
                      for job in machine.jobs))
        fast = reg.get("two_case.fast_messages").value
        buffered = reg.get("two_case.buffered_messages").value
        gauge("two_case.buffered_fraction",
              buffered / (fast + buffered) if fast + buffered else 0.0)

        transports = machine.transports
        total("transport.sends", sum(t.sends for t in transports))
        total("transport.retransmissions",
              sum(t.retransmissions for t in transports))
        total("transport.acks_sent",
              sum(t.acks_sent for t in transports))
        total("transport.duplicates_suppressed",
              sum(t.duplicates_suppressed for t in transports))
        total("transport.gave_up",
              sum(len(t.gave_up) for t in transports))

        mb = [service.stats for service in machine.mailboxes]
        if mb:
            self.h_retrieval_latency.load(
                fold(SUM, [s.latency_counts for s in mb]),
                sum(s.latency_total for s in mb))
        # Wall-clock, not simulated time: nondeterministic by nature,
        # which is why it lives here and never in cacheable extras.
        shard = machine.shard_stats
        gauge("shard.encode_seconds",
              shard.encode_seconds if shard else 0.0)

        if self.sampler is not None and not self._finalized:
            self.sampler.final_sample()
        self._finalized = True
        return reg

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        """The cache-safe JSON view (metrics + snapshots + events)."""
        out: Dict[str, Any] = {
            "metrics": self.registry.snapshot(),
            "events": list(self.events),
            "events_dropped": self.events_dropped,
        }
        if self.sampler is not None:
            out["interval"] = self.sampler.interval
            out["snapshots"] = list(self.sampler.samples)
            out["snapshots_truncated"] = self.sampler.truncated
        return out


__all__ = [
    "Observatory", "MetricRegistry", "Counter", "Gauge", "Histogram",
    "DuplicateMetric", "TimelineSampler", "take_sample",
    "render_obs_report", "write_jsonl", "write_validation_jsonl",
    "sparkline",
    "DEFAULT_SAMPLE_INTERVAL",
]
