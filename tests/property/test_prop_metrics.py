"""Property tests for the metric merge algebra (``repro.analysis.metrics``).

A sharded run reports the :class:`~repro.analysis.metrics.RunMetrics`
of one monolithic run by harvesting each shard's nodes, merging the
harvests by the rules the stats fields declare and deriving once. That
is bit-identical only if the algebra holds for any split of the nodes:

* per-node stats: folding all nodes equals folding each group and then
  folding the groups by the shard rule;
* machine-wide stats: each shard's replica holds its share, and the
  monolithic value is the shard rule applied to the shares;
* derivation: every float is one expression over merged integers.

Random per-node and per-shard values drive lightweight machine stand-ins
through :func:`harvest`; ``derive(merge(per-group harvests))`` must
equal ``derive(harvest(all nodes))`` field for field, and ``mean`` of
one run must be that run.
"""

from dataclasses import asdict
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import derive, harvest, mean, merge
from repro.apps.mailbox import MailboxStats
from repro.core.two_case import TransitionReason, TwoCaseStats
from repro.glaze.buffering import BufferStats
from repro.glaze.jobs import JobStats
from repro.glaze.kernel import KernelStats
from repro.glaze.overflow import OverflowStats
from repro.network.fabric import FabricStats
from repro.ni.delivery import DeliveryStats
from repro.ni.interface import NiStats
from repro.stats import fold, rules

counts = st.integers(min_value=0, max_value=10 ** 6)


def stats_of(cls):
    """``cls`` with every integer field drawn at random."""
    ints = {name: counts for name, _ in rules(cls)
            if type(getattr(cls(), name)) is int}
    if cls is MailboxStats:
        ints["latency_counts"] = st.lists(counts, min_size=7, max_size=7)
    if cls is TwoCaseStats:
        ints["transitions_to_buffered"] = st.dictionaries(
            st.sampled_from(list(TransitionReason)), counts)
    return st.builds(cls, **ints)


#: Per-machine (per-shard) stats: one object each, or one per service.
shares = st.fixed_dictionaries({
    "fabric": stats_of(FabricStats),
    "overflow": stats_of(OverflowStats),
    "two_case": stats_of(TwoCaseStats),
    "job": stats_of(JobStats),
    "mailbox": stats_of(MailboxStats),
    "retries": st.lists(counts, max_size=3),
})


def _node(node_id, ni, delivery, kernel):
    return SimpleNamespace(
        node_id=node_id, kernel=SimpleNamespace(stats=kernel),
        ni=SimpleNamespace(stats=ni,
                           discipline=SimpleNamespace(stats=delivery)))


def _machine(share, node_states, mailbox, now):
    job = SimpleNamespace(node_states=node_states, start_time=0,
                          two_case=share["two_case"], stats=share["job"])
    machine = SimpleNamespace(
        fabric=SimpleNamespace(stats=share["fabric"]),
        overflow=SimpleNamespace(stats=share["overflow"]),
        mailboxes=([SimpleNamespace(stats=share["mailbox"])]
                   if mailbox else []),
        transports=[SimpleNamespace(retransmissions=r)
                    for r in share["retries"]],
        shard_stats=None, engine=SimpleNamespace(now=now))
    return machine, job


def _combined(values):
    """The monolithic machine's stats object from per-shard shares:
    each field is the shard rule over the shares."""
    cls = type(values[0])
    out = cls()
    for name, rule in rules(cls):
        column = [getattr(v, name) for v in values]
        if isinstance(column[0], dict):
            merged = {}
            for d in column:
                for k, c in d.items():
                    merged[k] = merged.get(k, 0) + c
            setattr(out, name, merged)
        elif isinstance(column[0], (int, list)):
            setattr(out, name, fold(rule.shards, column))
    return out


@st.composite
def split_machines(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=8))
    groups = draw(st.integers(min_value=2, max_value=min(4, num_nodes)))
    order = draw(st.permutations(range(num_nodes)))
    cuts = sorted(draw(st.lists(st.integers(1, num_nodes - 1),
                                min_size=groups - 1, max_size=groups - 1,
                                unique=True)))
    bounds = [0] + cuts + [num_nodes]
    owned = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    nodes = [_node(i, draw(stats_of(NiStats)), draw(stats_of(DeliveryStats)),
                   draw(stats_of(KernelStats))) for i in range(num_nodes)]
    node_states = {
        i: SimpleNamespace(buffer=SimpleNamespace(
            stats=draw(stats_of(BufferStats))),
            main_finish_time=draw(st.integers(1, 10 ** 7)))
        for i in range(num_nodes)}
    mailbox = draw(st.booleans())
    now = 10 ** 7
    group_shares = [draw(shares) for _ in owned]
    parts = []
    for ids, share in zip(owned, group_shares):
        machine, job = _machine(share, node_states, mailbox, now)
        parts.append((machine, job, [nodes[i] for i in sorted(ids)]))
    whole = {key: _combined([s[key] for s in group_shares])
             for key in ("fabric", "overflow", "two_case", "job",
                         "mailbox")}
    whole["retries"] = [r for s in group_shares for r in s["retries"]]
    machine, job = _machine(whole, node_states, mailbox, now)
    return num_nodes, parts, (machine, job, nodes)


@settings(max_examples=150, deadline=None)
@given(split_machines())
def test_merged_shard_harvests_derive_the_monolithic_metrics(case):
    num_nodes, parts, (machine, job, nodes) = case
    monolithic = derive(harvest(machine, job, nodes), "run", num_nodes)
    sharded = derive(merge([harvest(m, j, local) for m, j, local in parts]),
                     "run", num_nodes)
    assert asdict(sharded) == asdict(monolithic)
    assert asdict(mean([monolithic])) == asdict(monolithic)
