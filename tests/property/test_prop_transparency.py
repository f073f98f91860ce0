"""THE two-case delivery property: transparent access.

For any message stream and any adversarial mode-flipping schedule on
the receiver, the application must observe exactly the stream that was
sent, in order — the delivery case is invisible except in cost.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import Application

from tests.conftest import make_machine


class FlippingReceiver(Application):
    """Node 0 sends a numbered stream; node 1 flips into buffered mode
    at arbitrary points while handlers record what they see."""

    name = "flipping"

    def __init__(self, gaps, flip_points):
        self.gaps = gaps  # cycles between sends
        self.flip_points = flip_points  # receiver times to force buffering
        self.seen = []

    def _h_record(self, rt, msg):
        yield from rt.dispose_current()
        yield 3
        self.seen.append((msg.payload[0], msg.buffered))

    def main(self, rt, idx):
        if idx == 0:
            for i, gap in enumerate(self.gaps):
                yield gap
                yield from rt.inject(1, self._h_record, (i,))
            while len(self.seen) < len(self.gaps):
                yield 500
        else:
            last = 0
            for point in sorted(self.flip_points):
                delta = point - last
                if delta > 0:
                    yield delta
                last = point
                yield from rt.force_buffered_mode()
            while len(self.seen) < len(self.gaps):
                yield 500


@given(
    gaps=st.lists(st.integers(min_value=0, max_value=400),
                  min_size=1, max_size=25),
    flip_points=st.lists(st.integers(min_value=0, max_value=8_000),
                         max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_transparent_access_for_any_flip_schedule(gaps, flip_points):
    machine = make_machine(num_nodes=2, atomicity_timeout=100_000)
    app = FlippingReceiver(gaps, flip_points)
    job = machine.add_job(app)
    machine.start()
    machine.run_until_job_done(job, limit=100_000_000)
    # Every message seen exactly once, in send order.
    assert [seq for seq, _b in app.seen] == list(range(len(gaps)))
    # Counters agree with observations.
    buffered_seen = sum(1 for _s, b in app.seen if b)
    assert job.two_case.buffered_messages == buffered_seen
    assert job.two_case.fast_messages == len(gaps) - buffered_seen
    # The machine always recovers to fast mode with empty buffers.
    state = job.node_states[1]
    assert state.buffer.empty
