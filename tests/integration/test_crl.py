"""Integration tests for the CRL software DSM protocol."""

from typing import Generator, List

import pytest

from repro.apps.base import Application, CollectiveOps
from repro.crl.api import Crl
from repro.crl.region import HomeState, RegionState

from tests.conftest import make_machine


class CrlScript(Application):
    """Run per-node CRL scripts over a shared Crl instance."""

    name = "crltest"

    def __init__(self, crl: Crl, scripts):
        self.crl = crl
        self.scripts = scripts
        self.results = {}

    def main(self, rt, idx):
        script = self.scripts.get(idx)
        if script is None:
            yield 1
            return
        result = yield from script(self.crl, rt)
        self.results[idx] = result


def run_crl(num_nodes, crl, scripts, limit=100_000_000):
    machine = make_machine(num_nodes=num_nodes)
    app = CrlScript(crl, scripts)
    job = machine.add_job(app)
    machine.start()
    machine.run_until_job_done(job, limit=limit)
    return machine, app


class TestBasicCoherence:
    def test_remote_read_fetches_home_data(self):
        crl = Crl(2)
        crl.create(0, home=0, size_words=25, init=list(range(25)))

        def reader(crl, rt):
            data = yield from crl.read_region(rt, 0)
            return data

        _machine, app = run_crl(2, crl, {1: reader})
        assert app.results[1] == list(range(25))

    def test_remote_write_propagates_home(self):
        crl = Crl(2)
        crl.create(0, home=0, size_words=4)

        def writer(crl, rt):
            yield from crl.write_region(rt, 0, [9, 8, 7, 6])
            return True

        def check_after(crl, rt):
            yield 50_000  # let the writer go first
            data = yield from crl.read_region(rt, 0)
            return data

        crl2 = crl
        _machine, app = run_crl(2, crl2, {1: writer, 0: check_after})
        assert app.results[0] == [9, 8, 7, 6]

    def test_shared_copy_hit_is_local(self):
        crl = Crl(2)
        crl.create(0, home=0, size_words=4, init=[1, 2, 3, 4])

        def reader(crl, rt):
            yield from crl.read_region(rt, 0)
            before = crl.protocol.remote_misses
            yield from crl.read_region(rt, 0)  # second read: cached
            return crl.protocol.remote_misses - before

        _machine, app = run_crl(2, crl, {1: reader})
        assert app.results[1] == 0

    def test_write_invalidates_readers(self):
        crl = Crl(3)
        crl.create(0, home=0, size_words=2, init=[0, 0])
        order = []

        def reader(crl, rt):
            snap1 = yield from crl.read_region(rt, 0)
            order.append(("read1", snap1[0]))
            yield 80_000
            snap2 = yield from crl.read_region(rt, 0)
            order.append(("read2", snap2[0]))
            return snap2

        def writer(crl, rt):
            yield 20_000  # after the reader's first read
            yield from crl.write_region(rt, 0, [42, 42])
            return True

        _machine, app = run_crl(3, crl, {1: reader, 2: writer})
        assert app.results[1] == [42, 42]
        ns = crl.protocol.node_state(1, 0)
        # The second read refetched after invalidation.
        assert ("read2", 42) in order

    def test_exclusive_flushed_back_for_reader(self):
        crl = Crl(3)
        crl.create(0, home=0, size_words=2, init=[0, 0])

        def writer(crl, rt):
            yield from crl.start_write(rt, 0)
            crl.data(rt, 0)[0] = 77
            yield from crl.end_write(rt, 0)
            yield 100_000
            return True

        def late_reader(crl, rt):
            yield 30_000
            snap = yield from crl.read_region(rt, 0)
            return snap

        _machine, app = run_crl(3, crl, {1: writer, 2: late_reader})
        assert app.results[2][0] == 77


class TestContention:
    def test_concurrent_writers_serialize(self):
        """N nodes increment a shared counter region; the MSI protocol
        must serialize writes so no increment is lost."""
        nodes = 4
        per_node = 10
        crl = Crl(nodes)
        crl.create(0, home=0, size_words=1, init=[0])

        def incrementer(crl, rt):
            for _ in range(per_node):
                yield from crl.start_write(rt, 0)
                data = crl.data(rt, 0)
                data[0] = data[0] + 1
                yield from crl.end_write(rt, 0)
                yield 100
            return True

        scripts = {n: incrementer for n in range(nodes)}
        _machine, app = run_crl(nodes, crl, scripts, limit=500_000_000)
        assert crl.protocol.authoritative_data(0)[0] == nodes * per_node

    def test_readers_share_while_no_writer(self):
        nodes = 4
        crl = Crl(nodes)
        crl.create(0, home=0, size_words=8, init=[5] * 8)
        coll = CollectiveOps(nodes)

        def reader(crl, rt):
            yield from crl.start_read(rt, 0)
            snap = list(crl.data(rt, 0))
            yield from coll.barrier(rt)
            yield from crl.end_read(rt, 0)
            return snap

        scripts = {n: reader for n in range(nodes)}
        _machine, app = run_crl(nodes, crl, scripts, limit=500_000_000)
        assert all(app.results[n] == [5] * 8 for n in range(nodes))
        directory = crl.protocol.directory[0]
        # Every remote reader ended up a sharer; nobody took exclusive.
        assert directory.state is HomeState.SHARED
        assert directory.sharers == set(range(1, nodes))

    def test_deferred_invalidation_waits_for_end_read(self):
        """An invalidation against an in-use region must not take
        effect until the reader's end_read."""
        crl = Crl(3)
        crl.create(0, home=0, size_words=2, init=[1, 1])
        observed = []

        def holder(crl, rt):
            yield from crl.start_read(rt, 0)
            snap_before = list(crl.data(rt, 0))
            yield 60_000  # writer tries to invalidate meanwhile
            snap_after = list(crl.data(rt, 0))
            yield from crl.end_read(rt, 0)
            observed.append((snap_before, snap_after))
            return True

        def writer(crl, rt):
            yield 10_000
            yield from crl.write_region(rt, 0, [2, 2])
            return True

        _machine, app = run_crl(3, crl, {1: holder, 2: writer},
                                limit=500_000_000)
        before, after = observed[0]
        assert before == after == [1, 1]  # stable throughout the read
        assert crl.protocol.authoritative_data(0) == [2, 2]

    def test_home_in_use_defers_remote_write(self):
        crl = Crl(2)
        crl.create(0, home=0, size_words=2, init=[3, 3])
        observed = []

        def home_reader(crl, rt):
            yield from crl.start_read(rt, 0)
            yield 50_000
            observed.append(list(crl.data(rt, 0)))
            yield from crl.end_read(rt, 0)
            return True

        def remote_writer(crl, rt):
            yield 5_000
            yield from crl.write_region(rt, 0, [4, 4])
            return True

        _machine, app = run_crl(2, crl, {0: home_reader, 1: remote_writer},
                                limit=500_000_000)
        assert observed[0] == [3, 3]
        assert crl.protocol.node_state(1, 0).state is RegionState.EXCLUSIVE


class TestFragmentation:
    def test_large_region_transfers_in_fragments(self):
        crl = Crl(2)
        size = 105
        crl.create(0, home=0, size_words=size, init=list(range(size)))

        def reader(crl, rt):
            snap = yield from crl.read_region(rt, 0)
            return snap

        _machine, app = run_crl(2, crl, {1: reader})
        assert app.results[1] == list(range(size))
        # 105 words at 10 words/fragment -> 11 fragments.
        assert crl.protocol.data_fragments == 11
