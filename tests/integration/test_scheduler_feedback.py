"""Scheduler feedback: the gang-scheduling advisory resynchronizes
clocks so buffering applications recover (Section 4.2)."""

from repro.apps.base import Application
from repro.glaze.overflow import OverflowPolicy

from tests.conftest import make_machine


class SpreadSender(Application):
    """All nodes stream to node 0 across many timeslices — under heavy
    skew the stream keeps landing in skew windows and buffering."""

    name = "spread"

    def __init__(self, count=500, gap=300, num_nodes=4):
        self.count = count
        self.gap = gap
        self.num_nodes = num_nodes
        self.received = 0

    def _h_sink(self, rt, msg):
        yield from rt.dispose_current()
        yield 10
        self.received += 1

    def main(self, rt, idx):
        if idx != 0:
            for _ in range(self.count):
                yield self.gap
                yield from rt.inject(0, self._h_sink, (idx,))
        expected = (self.num_nodes - 1) * self.count
        while self.received < expected:
            yield 2_000


class TestGangAdvisory:
    def _run(self, advise_pages):
        machine = make_machine(
            num_nodes=4, timeslice=40_000, skew_fraction=0.5,
            page_size_words=64,
            overflow=OverflowPolicy(advise_pages=advise_pages,
                                    suspend_pages=1_000,
                                    suspend_duration=10_000),
        )
        from repro.apps.null_app import NullApplication

        app = SpreadSender(num_nodes=4)
        job = machine.add_job(app)
        machine.add_job(NullApplication())
        machine.start()
        machine.run_until_job_done(job, limit=500_000_000)
        return machine, job

    def test_advisory_triggers_resync(self):
        machine, job = self._run(advise_pages=2)
        assert machine.scheduler.stats.gang_advisories >= 1
        assert machine.scheduler.stats.resynced_ticks > 0
        assert job.needs_gang_advice

    def test_without_pressure_no_advisory(self):
        machine, job = self._run(advise_pages=1_000)
        assert machine.scheduler.stats.gang_advisories == 0
        assert machine.scheduler.stats.resynced_ticks == 0

    def test_advised_job_recovers_to_fast_mode(self):
        """The advisory's purpose: a well-behaved application recovers
        from buffering once gang scheduled — by completion, every node
        drained its buffer and returned to the fast case."""
        from repro.core.two_case import DeliveryMode

        machine, job = self._run(advise_pages=2)
        assert machine.scheduler.stats.gang_advisories >= 1
        for state in job.node_states.values():
            assert state.buffer.empty
            assert state.mode is DeliveryMode.FAST
        assert (job.two_case.transitions_to_fast
                == sum(job.two_case.transitions_to_buffered.values()))
