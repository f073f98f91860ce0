"""ReliableTransport over a faulty fabric.

The transport is driven directly (``bind`` a delivery callback, then
``send``) over a fabric that drops, duplicates or reorders messages:
it must deliver every message exactly once, in per-pair send order,
and the invariant checker must come back clean.
"""

from __future__ import annotations

from repro.experiments.config import SimulationConfig
from repro.machine.machine import Machine
from repro.protocols.reliable import ReliableTransport

from tests.conftest import ScriptedApplication, collect_deliveries


def _faulty_machine(num_nodes: int, faults: str, seed: int = 1) -> Machine:
    config = SimulationConfig(num_nodes=num_nodes,
                              seed=seed).with_faults(faults)
    return Machine(config)


def _run(machine, app, transport, limit=2_000_000_000):
    job = machine.add_job(app)
    checker = machine.enable_invariant_checker()
    machine.start()
    machine.run_until_job_done(job, limit=limit)
    violations = checker.check(transports=[transport])
    assert violations == [], [str(v) for v in violations]


def test_transport_exactly_once_over_lossy_fabric():
    machine = _faulty_machine(3, "drop=0.1,duplicate=0.1,seed=5")
    transport = ReliableTransport(3)
    received, complete = collect_deliveries(transport,
                                            {n: 3 for n in range(3)})

    def script(app, rt, idx):
        for seq in range(3):
            yield from transport.send(rt, (idx + 1) % 3, (idx, seq))
            yield 100
        if len(received[idx]) < 3:
            yield complete[idx]

    _run(machine, ScriptedApplication(script), transport)
    for node, msgs in received.items():
        sender = (node - 1) % 3
        assert msgs == [(sender, (sender, seq)) for seq in range(3)]
    assert transport.retransmissions > 0 or \
        transport.duplicates_suppressed > 0


def test_transport_resequences_over_reordering_fabric():
    machine = _faulty_machine(2, "drop=0.1,reorder=50,seed=2")
    transport = ReliableTransport(2)
    received, complete = collect_deliveries(transport, {0: 0, 1: 10})

    def script(app, rt, idx):
        if idx == 0:
            for i in range(10):
                yield from transport.send(rt, 1, (i,))
        elif len(received[1]) < 10:
            yield complete[1]

    _run(machine, ScriptedApplication(script), transport)
    assert received[1] == [(0, (i,)) for i in range(10)]  # in order, once


def test_transport_gives_up_when_budget_exhausted():
    """A 100% drop rate with a tiny retry budget exhausts cleanly: the
    sender's ledger records the giving-up, nothing hangs."""
    machine = _faulty_machine(2, "drop=1.0,seed=1")
    transport = ReliableTransport(2, retry_timeout=500, max_retries=2)

    def script(app, rt, idx):
        if idx == 0:
            yield from transport.send(rt, 1, ("doomed",))
        # Bounded wait: past the full backoff schedule.
        for _ in range(40):
            yield 500

    job = machine.add_job(ScriptedApplication(script))
    machine.start()
    machine.run_until_job_done(job, limit=2_000_000_000)
    assert len(transport.gave_up) == 1
    assert transport.inbox[1] == []
    assert transport.retransmissions == 2
