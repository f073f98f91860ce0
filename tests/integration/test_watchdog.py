"""The optional Polling-Watchdog timeout policy (Section 2 extension).

Under ``TimeoutPolicy.WATCHDOG`` a sluggish poller's pending message is
delivered by interrupt despite the interrupt-disable — the Polling
Watchdog model — instead of being diverted to the software buffer.
"""

from repro.core.atomicity import INTERRUPT_DISABLE, TimeoutPolicy

from tests.conftest import ScriptedApplication, make_machine


def _run_sluggish_poller(policy):
    """Node 1 claims atomicity then computes far past the timeout;
    node 0 sends it one message during the stall."""
    log = []

    def handler(rt, msg):
        yield from rt.dispose_current()
        log.append(("handler", rt.engine.now, msg.buffered))

    def script(app, rt, idx):
        if idx == 1:
            yield from rt.beginatom(INTERRUPT_DISABLE)
            yield 40_000  # way past the 2k timeout
            log.append(("stall-over", rt.engine.now))
            yield from rt.endatom(INTERRUPT_DISABLE)
            while not any(e[0] == "handler" for e in log):
                yield 500
        else:
            yield 1_000
            yield from rt.inject(1, handler, ())
            yield 60_000

    machine = make_machine(num_nodes=2, atomicity_timeout=2_000,
                           timeout_policy=policy)
    app = ScriptedApplication(script)
    job = machine.add_job(app)
    machine.start()
    machine.run_until_job_done(job, limit=10_000_000)
    return machine, job, log


class TestWatchdogPolicy:
    def test_revoke_policy_buffers_and_defers(self):
        machine, job, log = _run_sluggish_poller(TimeoutPolicy.REVOKE)
        handler_events = [e for e in log if e[0] == "handler"]
        stall_over = next(e for e in log if e[0] == "stall-over")
        # Handler ran only after the atomic section ended, from buffer.
        assert handler_events[0][1] > stall_over[1]
        assert handler_events[0][2] is True  # buffered delivery
        assert machine.nodes[1].kernel.stats.revocations >= 1
        assert machine.nodes[1].kernel.stats.watchdog_fires == 0

    def test_watchdog_policy_fires_interrupt_through_atomicity(self):
        machine, job, log = _run_sluggish_poller(TimeoutPolicy.WATCHDOG)
        handler_events = [e for e in log if e[0] == "handler"]
        stall_over = next(e for e in log if e[0] == "stall-over")
        # The handler preempted the stalled atomic section (before its
        # end) and the message came straight from the hardware.
        assert handler_events[0][1] < stall_over[1]
        assert handler_events[0][2] is False  # fast-path delivery
        assert machine.nodes[1].kernel.stats.watchdog_fires >= 1
        assert machine.nodes[1].kernel.stats.revocations == 0
        assert job.two_case.buffered_messages == 0

    def test_watchdog_latency_beats_revocation(self):
        """The watchdog's purpose: message handling is accelerated when
        polling proves sluggish."""
        _m1, _j1, revoke_log = _run_sluggish_poller(TimeoutPolicy.REVOKE)
        _m2, _j2, watchdog_log = _run_sluggish_poller(
            TimeoutPolicy.WATCHDOG)
        revoke_time = next(e[1] for e in revoke_log if e[0] == "handler")
        watchdog_time = next(e[1] for e in watchdog_log
                             if e[0] == "handler")
        assert watchdog_time < revoke_time
