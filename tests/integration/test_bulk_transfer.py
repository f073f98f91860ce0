"""Bulk (user-level DMA) transfers: the large-message companion path.

The paper handles bulk data "by a separate direct memory access (DMA)
mechanism"; these tests cover its behavioural model: oversize payloads,
protection (GID stamping), interaction with two-case delivery (bulk
messages buffer into multi-page virtual-buffer entries), and the CRL
integration that replaces fragment streams with single transfers.
"""

import pytest

from repro.apps.base import Application
from repro.crl.api import Crl
from repro.network.message import MAX_BULK_WORDS, Message

from tests.conftest import ScriptedApplication, make_machine, run_app


class TestBulkInject:
    def test_large_payload_delivered_intact(self):
        got = []
        payload = tuple(range(500))

        def handler(rt, msg):
            yield from rt.dispose_current()
            got.append(msg.payload)

        def script(app, rt, idx):
            if idx == 0:
                yield from rt.bulk_inject(1, handler, payload)
            while not got:
                yield 500

        run_app(ScriptedApplication(script), limit=10_000_000)
        assert got == [payload]

    def test_direct_inject_rejects_oversize(self):
        def script(app, rt, idx):
            if idx == 0:
                yield from rt.inject(1, "h", tuple(range(100)))
            yield 10

        with pytest.raises(ValueError):
            run_app(ScriptedApplication(script), limit=1_000_000)

    def test_bulk_respects_descriptor_limit(self):
        msg = Message(dst=0, handler="h", bulk=True,
                      payload=tuple(range(MAX_BULK_WORDS)))
        with pytest.raises(ValueError):
            msg.validate()

    def test_bulk_stamped_with_sender_gid(self):
        seen = []

        def handler(rt, msg):
            yield from rt.dispose_current()
            seen.append(msg.gid)

        def script(app, rt, idx):
            if idx == 0:
                yield from rt.bulk_inject(1, handler, tuple(range(64)))
            while not seen:
                yield 500

        machine, job = run_app(ScriptedApplication(script),
                               limit=10_000_000)
        assert seen == [job.gid]

    def test_source_dma_serializes_transfers(self):
        """Two back-to-back bulk sends share one DMA engine: the second
        starts only after the first's engine occupancy ends."""
        arrivals = []

        def handler(rt, msg):
            yield from rt.dispose_current()
            arrivals.append((msg.payload[0], rt.engine.now))

        def script(app, rt, idx):
            if idx == 0:
                yield from rt.bulk_inject(1, handler,
                                          (0,) + (0,) * 400)
                yield from rt.bulk_inject(1, handler,
                                          (1,) + (0,) * 400)
            while len(arrivals) < 2:
                yield 500

        machine, job = run_app(ScriptedApplication(script),
                               limit=10_000_000)
        assert [a[0] for a in arrivals] == [0, 1]
        gap = arrivals[1][1] - arrivals[0][1]
        # At least the second transfer's DMA + wire serialization.
        assert gap >= 400


class TestBulkBuffering:
    def test_bulk_message_buffers_across_pages(self):
        """A diverted bulk message spans several virtual-buffer pages
        and still replays transparently."""
        got = []
        payload = tuple(range(900))  # > 2 pages of 400 words

        def handler(rt, msg):
            yield from rt.dispose_current()
            got.append((msg.payload, msg.buffered))

        def script(app, rt, idx):
            if idx == 1:
                yield from rt.force_buffered_mode()
                while not got:
                    yield 500
            else:
                yield 100
                yield from rt.bulk_inject(1, handler, payload)
                while not got:
                    yield 500

        machine, job = run_app(ScriptedApplication(script),
                               limit=20_000_000, page_size_words=400)
        assert got[0][0] == payload
        assert got[0][1] is True
        state = job.node_states[1]
        # The 902-word message needed three 400-word pages at peak.
        assert state.buffer.stats.max_pages >= 3
        assert state.buffer.pages_in_use == 0  # all released after drain


class TestCrlBulkMode:
    def _run_reader(self, bulk_threshold):
        crl = Crl(2, bulk_threshold=bulk_threshold)
        size = 300
        crl.create(0, home=0, size_words=size, init=list(range(size)))
        result = {}

        def script(app, rt, idx):
            if idx == 1:
                snap = yield from crl.read_region(rt, 0)
                result["data"] = snap
            else:
                yield 10

        machine, job = run_app(ScriptedApplication(script),
                               limit=20_000_000)
        return crl, result, job

    def test_bulk_mode_replaces_fragments(self):
        crl, result, job = self._run_reader(bulk_threshold=100)
        assert result["data"] == list(range(300))
        assert crl.protocol.bulk_transfers == 1
        assert crl.protocol.data_fragments == 0

    def test_fragment_mode_unchanged_below_threshold(self):
        crl, result, job = self._run_reader(bulk_threshold=None)
        assert result["data"] == list(range(300))
        assert crl.protocol.bulk_transfers == 0
        assert crl.protocol.data_fragments == 30  # 300 words / 10

    def test_bulk_mode_uses_fewer_messages(self):
        _crl_a, _res_a, job_frag = self._run_reader(bulk_threshold=None)
        _crl_b, _res_b, job_bulk = self._run_reader(bulk_threshold=100)
        assert job_bulk.stats.messages_sent < job_frag.stats.messages_sent
