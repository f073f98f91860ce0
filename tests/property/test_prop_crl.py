"""Property tests: CRL coherence under randomized access schedules.

Random per-node scripts of read/write/compute steps against shared
regions must preserve: (a) serializability of the counter increments,
(b) single-writer/multi-reader states, and (c) data stability inside a
read bracket.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.base import Application
from repro.crl.api import Crl
from repro.crl.region import HomeState, RegionState

from tests.conftest import make_machine

NODES = 3
REGIONS = 2

#: Per-node schedule: (region, is_write, pre-delay, hold-cycles) steps.
step = st.tuples(
    st.integers(min_value=0, max_value=REGIONS - 1),
    st.booleans(),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=300),
)
schedule = st.lists(step, max_size=8)


class RandomCrlApp(Application):
    name = "randcrl"

    def __init__(self, schedules):
        self.schedules = schedules
        self.crl = Crl(NODES)
        for rid in range(REGIONS):
            self.crl.create(rid, home=rid % NODES, size_words=4,
                            init=[0, 0, 0, 0])
        self.read_violations = []
        self.increments = 0

    def main(self, rt, idx):
        crl = self.crl
        for rid, is_write, pre, hold in self.schedules[idx]:
            if pre:
                yield pre
            if is_write:
                yield from crl.start_write(rt, rid)
                data = crl.data(rt, rid)
                data[0] = data[0] + 1
                self.increments += 1
                if hold:
                    yield hold
                data[1] = data[0]  # must still be our value
                yield from crl.end_write(rt, rid)
            else:
                yield from crl.start_read(rt, rid)
                snap = list(crl.data(rt, rid))
                if hold:
                    yield hold
                after = list(crl.data(rt, rid))
                if snap != after:
                    self.read_violations.append((snap, after))
                yield from crl.end_read(rt, rid)


@given(schedules=st.lists(schedule, min_size=NODES, max_size=NODES))
@example(schedules=[
    # A home read ends while a remote write's invalidation ack is still
    # in flight: the write must not be granted until the ack arrives.
    [(0, False, 0, 0), (1, False, 0, 0)],
    [(1, False, 30, 0), (1, False, 66, 0), (1, True, 0, 0)],
    [(1, True, 0, 0), (1, True, 11, 0), (0, False, 0, 0), (1, True, 0, 0)],
])
@settings(max_examples=60, deadline=None)
def test_random_schedules_stay_coherent(schedules):
    machine = make_machine(num_nodes=NODES)
    app = RandomCrlApp(schedules)
    job = machine.add_job(app)
    machine.start()
    machine.run_until_job_done(job, limit=500_000_000)

    # (a) no increment lost: the counter equals total writes performed.
    for rid in range(REGIONS):
        writes = sum(
            1 for sched in schedules for (r, w, _p, _h) in sched
            if w and r == rid
        )
        assert app.crl.protocol.authoritative_data(rid)[0] == writes

    # (b) directory final states are self-consistent.
    for rid in range(REGIONS):
        directory = app.crl.protocol.directory[rid]
        assert not directory.busy
        if directory.state is HomeState.EXCLUSIVE:
            owner = directory.owner
            others = [
                app.crl.protocol.node_state(n, rid).state
                for n in range(NODES)
                if n != owner and n != app.crl.region(rid).home
            ]
            assert all(s is not RegionState.EXCLUSIVE for s in others)

    # (c) reads were stable inside their brackets.
    assert app.read_violations == []
