"""Adversarial "hog" workload: a receiver that will not extract.

The two-case argument (paper Sections 2 and 4.4) is that a process
which refuses to service its messages must not be able to wedge the
network or starve other jobs: the atomicity timer revokes its direct
delivery, arrivals divert into *its own* virtual buffer, and overflow
control eventually suspends the offender. :class:`HogApplication`
manufactures exactly that pathology so tests can watch the defences
fire:

* the victim node grabs an atomic section and sits on it, so queued
  arrivals trip the atomicity timer (``ATOMICITY_TIMEOUT`` transition);
* once revoked into buffered mode, its drain thread services messages
  pathologically slowly (each handler disposes, then burns
  ``service_cycles``), so the buffer only ever grows;
* every other node floods the victim for its whole send budget.

Run it for a fixed horizon with ``machine.run(until=...)`` — the point
is the steady state under attack, not completion::

    machine = Machine(SimulationConfig(num_nodes=4))
    hog = HogApplication(num_nodes=4)
    job = machine.add_job(hog)
    checker = machine.enable_invariant_checker()
    machine.run(until=2_000_000)
    assert job.two_case.transitions_to_buffered   # defences fired
    assert not checker.check()                    # nothing lost

Arrivals still resident in the victim's buffer at the horizon are
*resident*, not lost — the invariant checker accounts for them.
"""

from __future__ import annotations

from typing import Generator

from repro.apps.base import Application
from repro.core.udm import UdmRuntime


class HogApplication(Application):
    """Flood one node whose handlers effectively never finish."""

    name = "hog"

    def __init__(self, num_nodes: int, victim: int = 0,
                 flood_messages: int = 16, payload_words: int = 1024,
                 hold_cycles: int = 40_000,
                 service_cycles: int = 5_000_000,
                 send_gap: int = 50) -> None:
        if not 0 <= victim < num_nodes:
            raise ValueError("victim must be a valid node index")
        if payload_words < 1:
            raise ValueError("flood messages need at least one word")
        self.num_nodes = num_nodes
        self.victim = victim
        self.flood_messages = flood_messages
        self.payload_words = payload_words
        #: How long the victim squats in its atomic section — long
        #: enough to outlive any sane atomicity-timer preset.
        self.hold_cycles = hold_cycles
        #: Per-message handler burn; set far beyond the run horizon so
        #: extraction never keeps up with arrival.
        self.service_cycles = service_cycles
        self.send_gap = send_gap
        self.received = 0

    def _h_swallow(self, rt: UdmRuntime, msg) -> Generator:
        # Dispose first (the UDM discipline), then stall: the *next*
        # buffered message waits behind this handler indefinitely.
        yield from rt.dispose_current()
        self.received += 1
        yield self.service_cycles

    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        if node_index == self.victim:
            # Hold the atomic section while the flood arrives; the
            # timer revokes it and flips this node to buffered mode.
            yield from rt.beginatom()
            yield self.hold_cycles
            yield from rt.endatom()
            return
        payload = tuple(range(self.payload_words - 1))
        # Page-sized floods ride the bulk (DMA) path; small ones fit a
        # direct message. Either way they pile into the victim's buffer.
        bulk = self.payload_words > 14
        for i in range(self.flood_messages):
            if bulk:
                yield from rt.bulk_inject(self.victim, self._h_swallow,
                                          (i, *payload))
            else:
                yield from rt.inject(self.victim, self._h_swallow,
                                     (i, *payload))
            yield self.send_gap

    def describe(self) -> str:
        return (
            f"hog: {self.num_nodes - 1} nodes x {self.flood_messages} "
            f"msgs -> node {self.victim} (never extracts)"
        )


__all__ = ["HogApplication"]
