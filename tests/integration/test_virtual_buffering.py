"""Virtual buffering: demand paging, page release, the guaranteed
(second-network) path, and overflow control."""

from typing import Generator

import pytest

from repro.apps.base import Application
from repro.core.two_case import DeliveryMode
from repro.glaze.overflow import OverflowPolicy

from tests.conftest import ScriptedApplication, make_machine, run_app


class StreamToBuffered(Application):
    """Node 0 streams; node 1 sits in buffered mode absorbing, and
    only starts draining after ``hold_cycles``."""

    name = "stream"

    def __init__(self, count=100, payload_words=10, hold_cycles=200_000,
                 gap=100):
        self.count = count
        self.payload_words = payload_words
        self.hold_cycles = hold_cycles
        self.gap = gap
        self.handled = 0

    def _h_sink(self, rt, msg):
        yield from rt.dispose_current()
        yield 4
        self.handled += 1

    def main(self, rt, idx):
        if idx == 0:
            payload = tuple(range(self.payload_words))
            for _ in range(self.count):
                yield self.gap
                yield from rt.inject(1, self._h_sink, payload)
            while self.handled < self.count:
                yield 1_000
        else:
            yield from rt.force_buffered_mode()
            # Hold atomicity so the drain thread cannot start, forcing
            # messages to pile up in the virtual buffer.
            yield from rt.beginatom()
            yield self.hold_cycles
            yield from rt.endatom()
            while self.handled < self.count:
                yield 1_000


class TestDemandPaging:
    def test_pages_allocated_on_demand_and_released(self):
        app = StreamToBuffered(count=100, payload_words=10)
        machine, job = run_app(app, limit=100_000_000,
                               atomicity_timeout=1_000_000,
                               page_size_words=128)
        state = job.node_states[1]
        # 12-word messages, 128-word pages: 10 per page, 100 messages
        # held at once -> ten pages at the high-water mark.
        assert state.buffer.stats.max_pages >= 8
        # After draining, every page frame went back to the pool.
        assert state.buffer.pages_in_use == 0
        assert machine.nodes[1].frame_pool.frames_in_use == 0
        assert job.two_case.buffered_messages == 100

    def test_vmalloc_cost_charged_per_new_page(self):
        app = StreamToBuffered(count=60, payload_words=10)
        machine, job = run_app(app, limit=100_000_000,
                               atomicity_timeout=1_000_000,
                               page_size_words=128)
        stats = machine.nodes[1].kernel.stats
        assert stats.vmalloc_inserts == job.node_states[1].buffer.stats.pages_allocated


class TestGuaranteedDelivery:
    def test_frame_exhaustion_takes_page_out_path(self):
        """With a tiny frame pool the insert path must page out over
        the second network instead of dropping or deadlocking."""
        app = StreamToBuffered(count=80, payload_words=10,
                               hold_cycles=400_000)
        machine, job = run_app(
            app, limit=200_000_000,
            atomicity_timeout=1_000_000,
            page_size_words=128, frames_per_node=3,
            overflow=OverflowPolicy(advise_pages=2, suspend_pages=100,
                                    suspend_duration=10_000),
        )
        kernel = machine.nodes[1].kernel
        assert kernel.stats.page_outs > 0
        assert machine.second_network.stats.messages_sent > 0
        assert app.handled == 80  # nothing lost

    def test_no_messages_dropped_under_pressure(self):
        app = StreamToBuffered(count=150, payload_words=12, gap=30)
        machine, job = run_app(app, limit=200_000_000,
                               atomicity_timeout=1_000_000,
                               page_size_words=128, frames_per_node=4)
        assert app.handled == 150


class TestOverflowControl:
    def test_buffer_hog_gets_suspended_and_advised(self):
        app = StreamToBuffered(count=120, payload_words=10,
                               hold_cycles=500_000)
        machine, job = run_app(
            app, limit=300_000_000,
            atomicity_timeout=1_000_000,
            page_size_words=128,
            overflow=OverflowPolicy(advise_pages=2, suspend_pages=5,
                                    suspend_duration=20_000),
        )
        assert machine.overflow.stats.suspensions >= 1
        assert job.needs_gang_advice
        assert app.handled == 120  # recovers after suspension

    def test_well_behaved_app_never_suspended(self):
        app = StreamToBuffered(count=30, payload_words=0,
                               hold_cycles=10_000)
        machine, job = run_app(app, limit=100_000_000,
                               atomicity_timeout=1_000_000)
        assert machine.overflow.stats.suspensions == 0
        assert not job.needs_gang_advice
