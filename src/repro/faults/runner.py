"""Faulted-run executor: reliable messaging demo under fault injection.

The run kind ``faulted`` drives :class:`ReliableAllPairs` — every node
sends a fixed budget of reliable messages round-robin to its peers over
a (possibly faulty) fabric — with the
:class:`~repro.faults.DeliveryInvariantChecker` always on. Its metrics
add the fault/recovery counters (drops, duplicates, retries,
violations) to the standard set.

Determinism: the spec fully determines the metrics. All fault decisions
come from the plan's seeded streams, consumed in simulation order, and
neither the metrics nor the ``extra`` dict include simulation-local
identifiers (``msg_id`` counters differ between worker processes), so
serial, parallel and cached executions are bit-identical.

With ``retries=False`` the same workload becomes the negative control:
planned drops are *observed* as ``transport-loss`` violations instead
of being repaired, proving the checker actually measures something.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.analysis.metrics import RunMetrics, collect_metrics
from repro.apps.base import Application
from repro.core.udm import UdmRuntime
from repro.experiments.config import SimulationConfig
from repro.machine.machine import Machine
from repro.protocols.reliable import ReliableTransport


class ReliableAllPairs(Application):
    """All-pairs exchange over a :class:`ReliableTransport`.

    Each node sends ``messages`` payloads round-robin to its peers,
    then polls (boundedly) for its expected arrivals. The poll budget —
    not an unconditional wait — is what lets the lossy,
    retries-disabled negative control terminate.
    """

    name = "reliable-all-pairs"

    def __init__(self, num_nodes: int, messages: int = 8,
                 transport: Optional[ReliableTransport] = None,
                 send_gap: int = 200, poll_gap: int = 400,
                 max_polls: int = 5_000) -> None:
        self.num_nodes = num_nodes
        self.messages = messages
        self.transport = transport or ReliableTransport(num_nodes)
        self.send_gap = send_gap
        self.poll_gap = poll_gap
        self.max_polls = max_polls
        #: Arrivals each node waits for, from the round-robin schedule.
        self.expected = [0] * num_nodes
        for src in range(num_nodes):
            peers = [n for n in range(num_nodes) if n != src]
            if not peers:
                continue
            for i in range(messages):
                self.expected[peers[i % len(peers)]] += 1

    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        peers = [n for n in range(self.num_nodes) if n != node_index]
        if not peers:
            return
        for i in range(self.messages):
            dst = peers[i % len(peers)]
            yield from self.transport.send(rt, dst, (node_index, i))
            yield self.send_gap
        inbox = self.transport.inbox[node_index]
        for _ in range(self.max_polls):
            if len(inbox) >= self.expected[node_index]:
                return
            yield self.poll_gap

    def describe(self) -> str:
        return (
            f"reliable all-pairs: {self.num_nodes} nodes x "
            f"{self.messages} msgs"
        )


def execute_faulted(num_nodes: int = 4, messages: int = 8, seed: int = 7,
                    faults: str = "", retries: bool = True,
                    retry_timeout: int = 4_000, max_retries: int = 20, *,
                    delivery: str = "twocase",
                    ledgers: Optional[Dict[str, Any]] = None,
                    ) -> Tuple[RunMetrics, Dict[str, Any]]:
    """Runner executor for one faulted run (kind ``faulted``), with
    the delivery invariants checked.

    The fault plan always joins the spec, so two runs differing only in
    faults hash to different cache keys. ``ledgers``, when given,
    receives the run's ``transport``, ``violations`` and ``machine``
    (tests dig into them; they never reach the cache).
    """
    config = SimulationConfig(num_nodes=num_nodes, seed=seed,
                              delivery=delivery).with_faults(faults or None)
    machine = Machine(config)
    transport = ReliableTransport(num_nodes, retry_timeout=retry_timeout,
                                  max_retries=max_retries,
                                  retries=retries)
    app = ReliableAllPairs(num_nodes, messages=messages,
                           transport=transport)
    job = machine.add_job(app)
    checker = machine.enable_invariant_checker()
    machine.start()
    machine.run_until_job_done(job, limit=2_000_000_000)
    violations = checker.check(transports=[transport])
    # collect_metrics sums retries over machine.transports, where the
    # transport registered itself at first send.
    metrics = collect_metrics(machine, job)
    metrics.invariant_violations = len(violations)
    if ledgers is not None:
        ledgers.update(transport=transport, violations=violations,
                       machine=machine)
    # ``extra`` must be cross-process deterministic: violation *codes*
    # always are; full details are included only for transport-level
    # findings (keyed by sequence numbers, not simulation msg_ids).
    extra = {
        "acks_sent": transport.acks_sent,
        "duplicates_suppressed": transport.duplicates_suppressed,
        "gave_up": len(transport.gave_up),
        "violation_codes": ",".join(
            sorted(v.code for v in violations)
        ),
        "transport_violations": " | ".join(
            str(v) for v in violations if v.code.startswith("transport-")
        ),
    }
    return metrics, extra


__all__ = ["ReliableAllPairs", "execute_faulted"]
