"""Protection: GID isolation between jobs and kernel-register guards."""

from typing import Generator

import pytest

from repro.apps.base import Application
from repro.ni.traps import Trap, TrapSignal

from tests.conftest import make_machine


class ChattyApp(Application):
    """Every node streams messages to node 0; the app records which
    job's handler saw which message."""

    def __init__(self, name, count=30, gap=1_000):
        self.name = name
        self.count = count
        self.gap = gap
        self.seen = []

    def _h_recv(self, rt, msg):
        yield from rt.dispose_current()
        yield 4
        self.seen.append((msg.gid, msg.payload[0]))

    def main(self, rt, idx):
        if idx != 0:
            for i in range(self.count):
                yield self.gap
                yield from rt.inject(0, self._h_recv, (self.name,))
        else:
            expected = (rt.num_nodes - 1) * self.count
            while len(self.seen) < expected:
                yield 1_000


class TestGidIsolation:
    def test_two_jobs_never_cross_deliver(self):
        """Two multiprogrammed chatty jobs: every handler invocation
        must see only its own job's GID, with heavy skew forcing both
        fast and buffered deliveries."""
        machine = make_machine(num_nodes=4, timeslice=30_000,
                               skew_fraction=0.4)
        app_a = ChattyApp("job-a")
        app_b = ChattyApp("job-b")
        job_a = machine.add_job(app_a)
        job_b = machine.add_job(app_b)
        machine.start()
        machine.run_until_job_done(job_a, limit=500_000_000)
        machine.run_until_job_done(job_b, limit=500_000_000)
        assert app_a.seen and app_b.seen
        assert {gid for gid, _ in app_a.seen} == {job_a.gid}
        assert {gid for gid, _ in app_b.seen} == {job_b.gid}
        assert all(tag == "job-a" for _, tag in app_a.seen)
        assert all(tag == "job-b" for _, tag in app_b.seen)

    def test_messages_stamped_with_sender_gid(self):
        machine = make_machine(num_nodes=2)
        app = ChattyApp("solo", count=5, gap=100)
        job = machine.add_job(app)
        machine.start()
        machine.run_until_job_done(job, limit=10_000_000)
        assert {gid for gid, _ in app.seen} == {job.gid}


class TestKernelRegisterProtection:
    def test_user_cannot_write_divert_mode(self):
        machine = make_machine(num_nodes=1)
        ni = machine.nodes[0].ni
        with pytest.raises(TrapSignal) as exc:
            ni.set_divert_mode(True, privileged=False)
        assert exc.value.trap is Trap.PROTECTION_VIOLATION

    def test_user_cannot_write_current_gid(self):
        machine = make_machine(num_nodes=1)
        ni = machine.nodes[0].ni
        with pytest.raises(TrapSignal) as exc:
            ni.set_current_gid(5, privileged=False)
        assert exc.value.trap is Trap.PROTECTION_VIOLATION

    def test_user_kernel_message_launch_is_violation(self):
        """Launching a message with the kernel bit from user code is the
        Table 1 protection-violation case and kills the job."""
        from repro.glaze.kernel import ApplicationProtocolError

        class EvilApp(Application):
            name = "evil"

            def main(self, rt, idx):
                yield 10
                rt.ni.describe(0, "kernel-service", (), kernel_bit=True)
                try:
                    rt.ni.launch(privileged=False)
                except TrapSignal as signal:
                    yield from rt.kernel.service_trap(signal, rt.state)

        machine = make_machine(num_nodes=1)
        job = machine.add_job(EvilApp())
        machine.start()
        with pytest.raises(ApplicationProtocolError):
            machine.run_until_job_done(job, limit=1_000_000)
