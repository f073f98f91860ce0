"""Integration tests for the UDM runtime on a live machine."""

from typing import Generator

import pytest

from repro.core.atomicity import INTERRUPT_DISABLE
from repro.core.udm import UdmRuntime

from tests.conftest import ScriptedApplication, SinkApplication, run_app


class TestInjectExtract:
    def test_messages_arrive_in_order_with_payload(self):
        app = SinkApplication(count=20, payload_words=3)
        run_app(app)
        assert len(app.received) == 20
        assert [p[0] for p in app.received] == list(range(20))

    def test_injectc_succeeds_with_credit(self):
        results = []

        def script(app, rt, idx):
            if idx == 0:
                ok = yield from rt.injectc(1, _h_noop, (1,))
                results.append(ok)
            yield 1000

        app = ScriptedApplication(script)
        run_app(app, limit=1_000_000)
        assert results == [True]

    def test_injectc_fails_when_network_full(self):
        results = []

        def script(app, rt, idx):
            if idx == 0:
                # Saturate credits toward node 1 (nobody drains: node 1
                # computes in an atomic section).
                sent = 0
                while rt.machine.fabric.has_credit(1):
                    ok = yield from rt.injectc(1, _h_noop, ())
                    if not ok:
                        break
                    sent += 1
                ok = yield from rt.injectc(1, _h_noop, ())
                results.append((sent, ok))
            else:
                yield from rt.beginatom(INTERRUPT_DISABLE)
                yield 500_000

        app = ScriptedApplication(script)
        # ni queue small so the network genuinely fills
        machine, job = run_app(app, limit=10_000_000,
                               fabric_credits=4, ni_input_queue=1,
                               atomicity_timeout=1_000_000)
        sent, ok = results[0]
        assert ok is False
        assert sent > 0


def _h_noop(rt: UdmRuntime, msg) -> Generator:
    yield from rt.dispose_current()


def _h_record(rt: UdmRuntime, msg) -> Generator:
    yield from rt.dispose_current()
    yield 4
    msg_store = getattr(rt, "_test_store", None)
    if msg_store is not None:
        msg_store.append(msg.payload)


class TestPolling:
    def test_poll_extract_receives_in_atomic_section(self):
        got = []

        def script(app, rt, idx):
            if idx == 1:
                yield from rt.beginatom(INTERRUPT_DISABLE)
                while len(got) < 5:
                    msg = yield from rt.poll_extract()
                    if msg is not None:
                        got.append(msg.payload[0])
                yield from rt.endatom(INTERRUPT_DISABLE)
            else:
                for i in range(5):
                    yield 100
                    yield from rt.inject(1, "polled", (i,))

        run_app(ScriptedApplication(script), limit=5_000_000)
        assert got == [0, 1, 2, 3, 4]

    def test_wait_message_blocks_until_arrival(self):
        got = []

        def script(app, rt, idx):
            if idx == 1:
                yield from rt.beginatom(INTERRUPT_DISABLE)
                msg = yield from rt.wait_message()
                got.append((rt.engine.now, msg.payload))
                yield from rt.dispose_current()
                yield from rt.endatom(INTERRUPT_DISABLE)
            else:
                yield 2000
                yield from rt.inject(1, "w", ("hello",))

        run_app(ScriptedApplication(script), limit=5_000_000)
        assert got and got[0][0] >= 2000
        assert got[0][1] == ("hello",)


class TestAtomicity:
    def test_atomic_section_defers_handler(self):
        order = []

        def handler(rt, msg):
            yield from rt.dispose_current()
            order.append(("handler", rt.engine.now))

        def script(app, rt, idx):
            if idx == 1:
                yield from rt.beginatom(INTERRUPT_DISABLE)
                yield 3000
                order.append(("atomic-end", rt.engine.now))
                yield from rt.endatom(INTERRUPT_DISABLE)
                yield 500
            else:
                yield 100
                yield from rt.inject(1, handler, ())
                yield 5000

        run_app(ScriptedApplication(script), limit=5_000_000,
                atomicity_timeout=1_000_000)
        assert order[0][0] == "atomic-end"
        assert order[1][0] == "handler"

    def test_handler_runs_atomically(self):
        """A handler must not be preempted by another upcall."""
        active = []
        overlaps = []

        def handler(rt, msg):
            active.append(1)
            if len(active) > 1:
                overlaps.append(True)
            yield from rt.dispose_current()
            yield 300
            active.pop()

        def script(app, rt, idx):
            if idx == 0:
                for _ in range(10):
                    yield 20
                    yield from rt.inject(1, handler, ())
                yield 50_000
            else:
                yield 60_000

        run_app(ScriptedApplication(script), limit=10_000_000)
        assert not overlaps

    def test_handler_must_dispose(self):
        """Violating the dispose discipline raises dispose-failure."""
        from repro.glaze.kernel import ApplicationProtocolError

        def bad_handler(rt, msg):
            yield 5  # never disposes

        def script(app, rt, idx):
            if idx == 0:
                yield from rt.inject(1, bad_handler, ())
            yield 100_000

        with pytest.raises(ApplicationProtocolError):
            run_app(ScriptedApplication(script), limit=1_000_000)
