"""Property tests for sharded execution: bit-identical RunMetrics.

The defining contract of :mod:`repro.shard` is that distributing the
machine over worker processes is *invisible* in the results: for any
synth workload, :func:`~repro.shard.run_sharded` returns the same
:class:`~repro.analysis.metrics.RunMetrics` — field for field, float
for float — as the monolithic single-process engine. Coupling flags may
legitimately reroute an example through the serial fallback; identity
must hold either way, so every random example is a valid one.

Two families: the **windowed** protocol (all-to-all traffic, barriers
every conservative lookahead window) and **free-run** (rack-local
traffic aligned with the partition, no barriers at all).

Template: ``test_prop_delivery.py``.
"""

import pickle
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synth import SynthApplication
from repro.experiments.synth_sweeps import run_synth
from repro.shard import decode_message


def _pair(group_size, t_betw, seed, shards, locality_groups=0):
    """(serial, sharded, extra) metrics for one synth workload."""
    kwargs = dict(seed=seed, messages_per_node=25, num_nodes=4,
                  locality_groups=locality_groups)
    serial = run_synth(group_size, t_betw, **kwargs)
    extra: dict = {}
    sharded = run_synth(group_size, t_betw, shards=shards,
                        extra_out=extra, **kwargs)
    return serial, sharded, extra


@given(group_size=st.integers(min_value=2, max_value=8),
       t_betw=st.integers(min_value=30, max_value=1_500),
       seed=st.integers(min_value=1, max_value=100),
       shards=st.sampled_from((2, 4)))
@settings(max_examples=4, deadline=None)
def test_windowed_identity(group_size, t_betw, seed, shards):
    """All-to-all synth traffic through the time-window protocol (or
    its certified serial fallback) matches the monolithic engine."""
    serial, sharded, extra = _pair(group_size, t_betw, seed, shards)
    assert asdict(sharded) == asdict(serial), extra


@given(group_size=st.integers(min_value=2, max_value=8),
       t_betw=st.integers(min_value=30, max_value=1_500),
       seed=st.integers(min_value=1, max_value=100))
@settings(max_examples=3, deadline=None)
def test_free_run_identity(group_size, t_betw, seed):
    """Rack-local traffic aligned with the partition free-runs without
    barriers — and still matches the monolithic engine."""
    serial, sharded, extra = _pair(group_size, t_betw, seed, shards=2,
                                   locality_groups=2)
    assert asdict(sharded) == asdict(serial), extra
    assert extra["shard_mode"] in ("free-run", "serial", "serial-fallback")


_REPLICA = SynthApplication(num_nodes=4)

#: Payload values: in-range and oversized ints, bools, floats, strings.
_value = st.one_of(
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.integers(min_value=1 << 63, max_value=1 << 70),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)

_wire = st.tuples(
    st.integers(min_value=0, max_value=3),          # src
    st.integers(min_value=0, max_value=3),          # dst
    st.just(5),                                     # gid
    st.sampled_from(["_h_request", "_h_reply", "definitely_not"]),
    st.lists(_value, max_size=12).map(tuple),
    st.booleans(),                                  # bulk
    st.integers(min_value=0, max_value=1 << 40),    # inject_time
    st.integers(min_value=0, max_value=1 << 40),    # arrival
)


def _fields(decoded):
    if decoded is None:
        return None
    message, arrival = decoded
    return (message.src, message.dst, message.gid, message.handler,
            message.payload, [type(v) for v in message.payload],
            message.bulk, message.inject_time, arrival)


@given(outbox=st.lists(_wire, max_size=16),
       origin=st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_pickled_barrier_batch_round_trips_and_decodes_alike(outbox,
                                                             origin):
    """The pickled pipe is transparent: a barrier report of
    ``(wire, origin)`` entries comes back in order, and each entry
    decodes to exactly what the unpickled wire decodes to (or is
    unresolvable on both sides)."""
    batch = [(wire, origin) for wire in outbox]
    carried = pickle.loads(pickle.dumps(batch))
    assert carried == batch
    for (wire, _), (sent, _) in zip(carried, batch):
        assert _fields(decode_message(wire, {5: _REPLICA})) == \
            _fields(decode_message(sent, {5: _REPLICA}))


@given(seed=st.integers(min_value=1, max_value=100))
@settings(max_examples=2, deadline=None)
def test_windowed_counters_account_for_traffic(seed):
    """When the windowed path completes, its counters are coherent:
    epochs ran, and every cross-shard request/reply was ferried."""
    serial, sharded, extra = _pair(5, 200, seed, shards=2)
    assert asdict(sharded) == asdict(serial)
    if extra["shard_mode"] == "windowed":
        assert extra["shard_epochs"] > 0
        assert extra["cross_shard_messages"] > 0
        assert extra["lookahead"] > 0
