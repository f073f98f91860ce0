#!/usr/bin/env python3
"""Quickstart: user-level messaging with UDM on a two-node machine.

Builds a simulated two-node FUGU machine, defines a message handler,
and bounces a counter between the nodes — the minimal use of the
public API: ``Machine``, ``Application``, ``rt.inject`` and handlers
that ``dispose_current`` (the UDM discipline).

Run:  python examples/quickstart.py
"""

from repro import Machine, SimulationConfig
from repro.apps.base import Application


class PingPong(Application):
    """Two nodes pass a token back and forth ROUNDS times."""

    name = "quickstart"
    ROUNDS = 10

    def __init__(self):
        self.trace = []

    def handle_token(self, rt, msg):
        """A UDM message handler: runs atomically at user level.

        Every handler must free its message with ``dispose_current``
        before returning (the hardware enforces this: forgetting it
        raises the dispose-failure trap).
        """
        (count,) = msg.payload
        yield from rt.dispose_current()
        self.trace.append((rt.engine.now, rt.node_index, count))
        if count < self.ROUNDS:
            peer = 1 - rt.node_index
            yield from rt.inject(peer, self.handle_token, (count + 1,))

    def main(self, rt, node_index):
        """The per-node main thread (a generator coroutine)."""
        if node_index == 0:
            print(f"[{rt.engine.now:>6}] node 0 serves the token")
            yield from rt.inject(1, self.handle_token, (1,))
        # Compute while handlers do the real work via interrupts: a
        # frame yields an int of cycles to spend them.
        while len(self.trace) < self.ROUNDS:
            yield 1_000


def main():
    machine = Machine(SimulationConfig(num_nodes=2))
    app = PingPong()
    job = machine.add_job(app)
    machine.start()
    machine.run_until_job_done(job)

    print(f"\ntoken path ({len(app.trace)} hops):")
    for when, node, count in app.trace:
        print(f"  cycle {when:>6}: node {node} received count={count}")

    print(f"\nmessages sent:        {job.stats.messages_sent}")
    print(f"fast-path deliveries: {job.two_case.fast_messages}")
    print(f"buffered deliveries:  {job.two_case.buffered_messages}")
    per_leg = (app.trace[-1][0] - app.trace[0][0]) / (len(app.trace) - 1)
    print(f"cycles per one-way message (incl. wire): {per_leg:.0f}")


if __name__ == "__main__":
    main()
