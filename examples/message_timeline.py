#!/usr/bin/env python3
"""Message timelines: watch the two delivery cases, event by event.

Enables the machine's tracer and shows one message delivered on each
path — the live-data versions of the paper's Figure 2 (interrupt
delivery on the fast path) and Figure 5 (the buffered path, with its
kernel buffer-insertion stage) — plus the latency gap between the two
cases and a bulk-DMA transfer for comparison.

Run:  python examples/message_timeline.py
"""

from repro import Machine, SimulationConfig
from repro.apps.base import Application


class TimelineDemo(Application):
    name = "timeline"

    def __init__(self):
        self.handled = []
        self.msg_ids = {}

    def _h_record(self, rt, msg):
        yield from rt.dispose_current()
        yield 4  # frames yield an int of cycles: 4 cycles of work
        self.handled.append(msg.msg_id)

    def main(self, rt, node_index):
        if node_index == 1:
            # Phase 2 flips the receiver into buffered mode.
            while len(self.handled) < 1:
                yield 200
            yield from rt.force_buffered_mode()
            while len(self.handled) < 3:
                yield 200
            return
        # Node 0: one fast message, one buffered one, one bulk one.
        yield from rt.inject(1, self._h_record, ("fast",))
        while len(self.handled) < 1:
            yield 200
        yield 2_000  # give node 1 time to enter buffered mode
        yield from rt.inject(1, self._h_record, ("buffered",))
        while len(self.handled) < 2:
            yield 200
        yield from rt.bulk_inject(1, self._h_record,
                                  tuple(range(600)))
        while len(self.handled) < 3:
            yield 200


def main():
    machine = Machine(SimulationConfig(num_nodes=2))
    tracer = machine.enable_tracing()
    app = TimelineDemo()
    job = machine.add_job(app)
    machine.start()
    machine.run_until_job_done(job)

    labels = ["fast path (Figure 2)", "buffered path (Figure 5)",
              "bulk DMA transfer"]
    for label, msg_id in zip(labels, app.handled):
        print(f"--- {label} ---")
        print(tracer.render_timeline(msg_id))
        trace = tracer.trace_of(msg_id)
        print(f"  end-to-end: {trace.end_to_end} cycles "
              f"({'buffered' if trace.was_buffered else 'direct'})\n")

    summary = tracer.summary()
    print("tracer summary:")
    for key, value in summary.items():
        print(f"  {key}: {value:.0f}" if isinstance(value, float)
              else f"  {key}: {value}")


if __name__ == "__main__":
    main()
