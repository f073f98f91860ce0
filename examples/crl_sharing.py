#!/usr/bin/env python3
"""Software shared memory over UDM: the CRL region library.

Four nodes cooperatively build a shared histogram: each node owns one
region (its histogram shard, homed locally) and updates both its own
shard (local hits) and its neighbours' (remote coherence misses). The
demo prints the final histogram plus the protocol traffic CRL generated
— the "many low-latency request-reply packets mixed with fewer larger
data packets" workload the paper characterizes.

Run:  python examples/crl_sharing.py
"""

from repro import Machine, SimulationConfig
from repro.apps.base import Application, CollectiveOps
from repro.crl.api import Crl
from repro.sim.random import DeterministicRng

NODES = 4
BINS_PER_NODE = 8
SAMPLES_PER_NODE = 60


class SharedHistogram(Application):
    name = "histogram"

    def __init__(self):
        self.crl = Crl(NODES)
        self.collectives = CollectiveOps(NODES)
        for node in range(NODES):
            self.crl.create(node, home=node, size_words=BINS_PER_NODE,
                            init=[0] * BINS_PER_NODE)

    def main(self, rt, node_index):
        crl = self.crl
        rng = DeterministicRng(42, f"hist/{node_index}")
        for _ in range(SAMPLES_PER_NODE):
            # Frames yield an int of cycles: 50-200 to produce a sample.
            yield rng.uniform_int(50, 200)
            value = rng.uniform_int(0, NODES * BINS_PER_NODE - 1)
            owner, bin_index = divmod(value, BINS_PER_NODE)
            # start_write acquires the region exclusively: a local hit
            # when we own it, an invalidate/fetch when a peer does.
            yield from crl.start_write(rt, owner)
            shard = crl.data(rt, owner)
            shard[bin_index] += 1
            yield from crl.end_write(rt, owner)
        yield from self.collectives.barrier(rt)

    def histogram(self):
        bins = []
        for node in range(NODES):
            bins.extend(self.crl.protocol.authoritative_data(node))
        return bins


def main():
    machine = Machine(SimulationConfig(num_nodes=NODES))
    app = SharedHistogram()
    job = machine.add_job(app)
    machine.start()
    machine.run_until_job_done(job)

    bins = app.histogram()
    total = sum(bins)
    print(f"shared histogram after {machine.engine.now:,} cycles "
          f"({total} samples):\n")
    for node in range(NODES):
        shard = bins[node * BINS_PER_NODE:(node + 1) * BINS_PER_NODE]
        bars = "  ".join(f"{v:>2}" for v in shard)
        print(f"  node {node} shard: {bars}")
    assert total == NODES * SAMPLES_PER_NODE

    stats = app.crl.stats
    print(f"\nCRL protocol traffic:")
    print(f"  local hits (owned or cached):  {stats['local_hits']}")
    print(f"  remote misses:                 {stats['remote_misses']}")
    print(f"  control messages:              {stats['protocol_messages']}")
    print(f"  data fragments moved:          {stats['data_fragments']}")
    print(f"\nUDM messages total: {job.stats.messages_sent:,} "
          f"(all coherence traffic rides the same user-level messages)")


if __name__ == "__main__":
    main()
