"""Integration tests for two-case delivery: the paper's core mechanism.

Covers every Section 4.3 transition into buffered mode (GID mismatch /
descheduled target, quantum start, atomicity-timeout revocation, page
fault in a handler), the drain thread, the exit back to fast mode, and
— most importantly — *transparent access*: the application observes the
same messages in the same order regardless of the delivery case.
"""

from typing import Generator

import pytest

from repro.apps.base import Application
from repro.apps.null_app import NullApplication
from repro.core.atomicity import INTERRUPT_DISABLE
from repro.core.two_case import DeliveryMode, TransitionReason

from tests.conftest import ScriptedApplication, make_machine, run_app


def _recording_handler(log):
    def handler(rt, msg):
        yield from rt.dispose_current()
        yield 4
        log.append((msg.payload[0], msg.buffered))
    return handler


class TestExplicitBuffering:
    def test_forced_buffered_mode_diverts_and_drains(self):
        log = []
        handler = _recording_handler(log)

        def script(app, rt, idx):
            if idx == 1:
                yield from rt.force_buffered_mode()
                while len(log) < 10:
                    yield 200
                # drain thread must have exited buffered mode by the end
                while rt.state.mode is not DeliveryMode.FAST:
                    yield 200
            else:
                for i in range(10):
                    yield 50
                    yield from rt.inject(1, handler, (i,))

        machine, job = run_app(ScriptedApplication(script),
                               limit=10_000_000)
        assert [seq for seq, _b in log] == list(range(10))
        assert all(buffered for _seq, buffered in log)
        assert job.two_case.buffered_messages == 10
        assert job.two_case.transitions_to_fast >= 1

    def test_transparency_same_order_across_mode_flip(self):
        """Messages before, during and after buffered mode arrive in
        exactly the injection order."""
        log = []
        handler = _recording_handler(log)

        def script(app, rt, idx):
            if idx == 1:
                yield 2_000  # let a few arrive fast
                yield from rt.force_buffered_mode()
                yield 3_000  # a few arrive buffered
                while len(log) < 30:
                    yield 500
            else:
                for i in range(30):
                    yield 150
                    yield from rt.inject(1, handler, (i,))

        machine, job = run_app(ScriptedApplication(script),
                               limit=20_000_000)
        assert [seq for seq, _b in log] == list(range(30))
        # Both paths were actually exercised.
        assert job.two_case.fast_messages > 0
        assert job.two_case.buffered_messages > 0


class TestRevocation:
    def test_atomicity_timeout_revokes_and_buffers(self):
        """A user hogging atomicity has its interrupt-disable revoked:
        messages divert to the buffer and the drain thread runs them
        after the atomic section ends."""
        log = []
        handler = _recording_handler(log)
        revoke_seen = []

        def script(app, rt, idx):
            if idx == 1:
                yield from rt.beginatom(INTERRUPT_DISABLE)
                yield 50_000  # much longer than the timeout
                revoke_seen.append(rt.state.mode)
                yield from rt.endatom(INTERRUPT_DISABLE)
                while len(log) < 5:
                    yield 500
            else:
                yield 1_000
                for i in range(5):
                    yield 50
                    yield from rt.inject(1, handler, (i,))

        machine, job = run_app(ScriptedApplication(script),
                               limit=20_000_000, atomicity_timeout=2_000)
        assert revoke_seen == [DeliveryMode.BUFFERED]
        assert job.two_case.transitions_to_buffered.get(
            TransitionReason.ATOMICITY_TIMEOUT) == 1
        assert [seq for seq, _b in log] == list(range(5))
        assert all(buffered for _seq, buffered in log)
        assert machine.nodes[1].kernel.stats.revocations >= 1

    def test_no_revocation_when_draining_promptly(self):
        """Polling inside an atomic section restarts the timer on every
        dispose, so a responsive application is never revoked."""
        got = []

        def script(app, rt, idx):
            if idx == 1:
                yield from rt.beginatom(INTERRUPT_DISABLE)
                while len(got) < 20:
                    msg = yield from rt.poll_extract()
                    if msg is not None:
                        got.append(msg.payload[0])
                yield from rt.endatom(INTERRUPT_DISABLE)
            else:
                for i in range(20):
                    yield 300
                    yield from rt.inject(1, "polled", (i,))

        machine, job = run_app(ScriptedApplication(script),
                               limit=20_000_000, atomicity_timeout=2_000)
        assert got == list(range(20))
        assert machine.nodes[1].kernel.stats.revocations == 0
        assert job.two_case.buffered_messages == 0

    def test_revoked_poller_reads_from_buffer_transparently(self):
        """A poller that stalls long enough to be revoked still sees
        every message, in order, through the virtualized extract."""
        got = []

        def script(app, rt, idx):
            if idx == 1:
                yield from rt.beginatom(INTERRUPT_DISABLE)
                yield 30_000  # stall -> revocation
                while len(got) < 10:
                    msg = yield from rt.poll_extract()
                    if msg is not None:
                        got.append((msg.payload[0], msg.buffered))
                yield from rt.endatom(INTERRUPT_DISABLE)
            else:
                yield 500
                for i in range(10):
                    yield 100
                    yield from rt.inject(1, "polled", (i,))

        machine, job = run_app(ScriptedApplication(script),
                               limit=20_000_000, atomicity_timeout=2_000)
        assert [seq for seq, _b in got] == list(range(10))
        assert any(buffered for _seq, buffered in got)
        # The poller drained its own buffer and returned to fast mode.
        assert job.two_case.transitions_to_fast >= 1


class TestPageFault:
    def test_page_fault_in_handler_enters_buffered_mode(self):
        log = []

        def faulting_handler(rt, msg):
            yield from rt.dispose_current()
            yield from rt.page_fault()
            yield 10
            log.append(msg.payload[0])

        def script(app, rt, idx):
            if idx == 1:
                while len(log) < 4:
                    yield 500
            else:
                for i in range(4):
                    yield 50
                    yield from rt.inject(1, faulting_handler, (i,))

        machine, job = run_app(ScriptedApplication(script),
                               limit=20_000_000)
        assert log == [0, 1, 2, 3]
        assert job.two_case.transitions_to_buffered.get(
            TransitionReason.PAGE_FAULT, 0) >= 1
        assert machine.nodes[1].kernel.stats.page_faults >= 1


class TestMultiprogrammedTransitions:
    def test_descheduled_job_messages_buffer_and_replay(self):
        """Messages for a descheduled job divert (GID mismatch), then
        the job starts its next quantum in buffered mode and drains."""
        log = []
        handler = _recording_handler(log)

        class CrossJob(Application):
            name = "crossjob"

            def main(self, rt, idx):
                if idx == 0:
                    # Spread sends over several timeslices.
                    for i in range(40):
                        yield 5_000
                        yield from rt.inject(1, handler, (i,))
                while len(log) < 40:
                    yield 1_000

        machine = make_machine(num_nodes=2, timeslice=50_000,
                               skew_fraction=0.3)
        job = machine.add_job(CrossJob())
        machine.add_job(NullApplication())
        machine.start()
        machine.run_until_job_done(job, limit=100_000_000)
        assert [seq for seq, _b in log] == list(range(40))
        stats = job.two_case
        assert stats.buffered_messages > 0
        assert stats.fast_messages > 0
        reasons = set(stats.transitions_to_buffered)
        assert TransitionReason.GID_MISMATCH in reasons \
            or TransitionReason.QUANTUM_START in reasons

    def test_gang_rotation_runs_both_jobs(self):
        progress = {"a": 0, "b": 0}

        class Worker(Application):
            def __init__(self, key):
                self.key = key
                self.name = f"worker-{key}"

            def main(self, rt, idx):
                for _ in range(30):
                    yield 10_000
                    progress[self.key] += 1

        machine = make_machine(num_nodes=1, timeslice=40_000)
        job_a = machine.add_job(Worker("a"))
        job_b = machine.add_job(Worker("b"))
        machine.start()
        machine.run_until_job_done(job_a, limit=50_000_000)
        assert progress["a"] == 30
        assert progress["b"] > 0  # interleaved, not starved
