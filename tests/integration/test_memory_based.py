"""The memory-based NI baseline (Figure 1b): pinned queues, hardware
demultiplexing, and its trade-offs against the direct interface."""

import pytest

from repro.core.two_case import DeliveryArchitecture, DeliveryMode
from repro.glaze.buffering import BufferFull, PinnedQueue
from repro.glaze.vm import AddressSpace, PageFramePool
from repro.network.message import Message

from tests.conftest import ScriptedApplication, SinkApplication, run_app


class TestPinnedQueueUnit:
    def make(self, pages=2, page_words=32):
        pool = PageFramePool(0, 16)
        space = AddressSpace(pool, page_size_words=page_words)
        return PinnedQueue(space, pages), pool

    def test_pages_pinned_up_front(self):
        queue, pool = self.make(pages=3)
        assert pool.frames_in_use == 3
        assert queue.pages_in_use == 3

    def test_fifo_and_word_accounting(self):
        queue, _pool = self.make()
        msgs = [Message(dst=0, handler=i, gid=1, payload=(i,))
                for i in range(4)]
        for m in msgs:
            queue.insert(m)
            queue.audit()
        assert [queue.pop() for _ in range(4)] == msgs
        assert queue.words_in_use == 0

    def test_capacity_enforced(self):
        queue, _pool = self.make(pages=1, page_words=32)
        for _ in range(10):  # 10 x 3 words = 30 <= 32
            queue.insert(Message(dst=0, handler="h", gid=1, payload=(0,)))
        with pytest.raises(BufferFull):
            queue.insert(Message(dst=0, handler="h", gid=1, payload=(0,)))

    def test_never_demand_allocates(self):
        queue, pool = self.make(pages=2)
        assert queue.pages_needed(
            Message(dst=0, handler="h", gid=1)) == 0
        queue.insert(Message(dst=0, handler="h", gid=1))
        assert pool.frames_in_use == 2  # unchanged

    def test_oversize_message_rejected_outright(self):
        queue, _pool = self.make(pages=1, page_words=32)
        with pytest.raises(ValueError):
            queue.insert(Message(dst=0, handler="h", gid=1, bulk=True,
                                 payload=tuple(range(60))))


class TestMemoryBasedDelivery:
    def test_stream_delivered_through_pinned_queue(self):
        app = SinkApplication(count=25, payload_words=2)
        machine, job = run_app(
            app, limit=50_000_000,
            architecture=DeliveryArchitecture.MEMORY_BASED,
        )
        assert len(app.received) == 25
        assert [p[0] for p in app.received] == list(range(25))
        # Everything went through memory; there is no fast case.
        assert job.two_case.fast_messages == 0
        assert job.two_case.buffered_messages == 25
        for state in job.node_states.values():
            assert state.mode is DeliveryMode.BUFFERED

    def test_pinned_memory_cost_is_constant(self):
        """The baseline's memory bill: pages pinned per job per node,
        busy or idle — what virtual buffering exists to avoid."""
        app = SinkApplication(count=5)
        machine, job = run_app(
            app, limit=50_000_000,
            architecture=DeliveryArchitecture.MEMORY_BASED,
            pinned_pages_per_job=4,
        )
        for state in job.node_states.values():
            assert state.buffer.pages_in_use == 4
        # Versus: the two-case machine pins nothing for this traffic.
        app2 = SinkApplication(count=5)
        machine2, job2 = run_app(app2, limit=50_000_000)
        assert all(s.buffer.pages_in_use == 0
                   for s in job2.node_states.values())

    def test_full_pinned_queue_backpressures_into_network(self):
        """A slow consumer fills the pinned queue; the hardware holds
        messages in the network and retries — nothing is dropped."""
        got = []

        def handler(rt, msg):
            yield from rt.dispose_current()
            yield 5
            got.append(msg.payload[0])

        def script(app, rt, idx):
            if idx == 1:
                yield 80_000  # sleep while the queue fills
                while len(got) < 60:
                    yield 200
            else:
                for i in range(60):
                    yield 20
                    yield from rt.inject(1, handler, (i,))
                while len(got) < 60:
                    yield 1_000

        machine, job = run_app(
            ScriptedApplication(script), limit=100_000_000,
            architecture=DeliveryArchitecture.MEMORY_BASED,
            pinned_pages_per_job=1, page_size_words=64,
        )
        assert got == list(range(60))
        # Backpressure was exercised: the fabric saw blocked messages.
        assert machine.fabric.stats.max_backlog.get(1, 0) > 0

    def test_two_case_latency_beats_memory_based(self):
        """The Section 2 claim: direct interfaces win on latency when
        the application is ready to receive."""
        def run(arch):
            app = SinkApplication(count=30, gap=2_000)
            machine = None
            machine, job = run_app(app, limit=100_000_000,
                                   architecture=arch)
            tracer = None
            return machine, job

        machine_direct, job_direct = run(DeliveryArchitecture.TWO_CASE)
        machine_mem, job_mem = run(DeliveryArchitecture.MEMORY_BASED)
        # The direct machine finishes the same paced stream sooner.
        assert (job_direct.elapsed_cycles
                <= job_mem.elapsed_cycles)
