"""Unit tests for sharded execution (``repro.shard``).

Covers the pure pieces (partitioning, lookahead derivation, the wire
codec), the cross-shard FIFO-preservation regression, and the serial
fallbacks of :func:`repro.shard.run_sharded` (single shard, fault
plans, fork unavailable, coupling flags). The whole-run bit-identity
properties live in ``tests/property/test_prop_shard.py``.
"""

import pickle
from dataclasses import asdict

import pytest

import repro.shard.coordinator as coordinator
from repro.analysis.metrics import collect_metrics
from repro.apps.null_app import NullApplication
from repro.apps.synth import SynthApplication
from repro.experiments.config import SimulationConfig
from repro.machine.machine import Machine
from repro.network.message import Message
from repro.network.topology import MeshTopology
from repro.shard import (
    MIN_MESSAGE_WORDS, ShardMachine, decode_message, encode_message,
    lookahead_for, min_cross_shard_latency, next_window_bound, owner_of,
    partition_nodes, run_sharded, windows_coalesced,
)
from repro.shard.coordinator import _occupancy_exceeded


class TestPartition:
    def test_even_split_is_contiguous(self):
        assert partition_nodes(8, 2) == [(0, 1, 2, 3), (4, 5, 6, 7)]

    def test_remainder_goes_to_earlier_groups(self):
        assert partition_nodes(4, 3) == [(0, 1), (2,), (3,)]
        assert partition_nodes(10, 4) == \
            [(0, 1, 2), (3, 4, 5), (6, 7), (8, 9)]

    def test_single_shard_owns_everything(self):
        assert partition_nodes(5, 1) == [(0, 1, 2, 3, 4)]

    def test_more_shards_than_nodes_clamps(self):
        # A shard with zero nodes would be a worker with nothing to do.
        assert partition_nodes(4, 8) == [(0,), (1,), (2,), (3,)]

    def test_degenerate_counts_rejected(self):
        with pytest.raises(ValueError):
            partition_nodes(0, 1)
        with pytest.raises(ValueError):
            partition_nodes(4, 0)

    def test_owner_of_round_trips(self):
        groups = partition_nodes(8, 3)
        for node in range(8):
            assert node in groups[owner_of(groups, node)]
        with pytest.raises(ValueError):
            owner_of(groups, 99)


class TestLookahead:
    def test_single_group_means_unbounded(self):
        topology = MeshTopology(4)
        assert min_cross_shard_latency(topology, [(0, 1, 2, 3)]) is None
        config = SimulationConfig(num_nodes=4)
        assert lookahead_for(config, partition_nodes(4, 1)) is None

    def test_matches_brute_force_minimum(self):
        config = SimulationConfig(num_nodes=8)
        groups = partition_nodes(8, 3)
        topology = MeshTopology(
            8, base_latency=config.net_base_latency,
            per_hop_latency=config.net_per_hop_latency,
            per_word_latency=config.net_per_word_latency,
        )
        owner = {n: owner_of(groups, n) for n in range(8)}
        expected = min(
            topology.latency(src, dst, MIN_MESSAGE_WORDS)
            for src in range(8) for dst in range(8)
            if owner[src] != owner[dst]
        )
        assert lookahead_for(config, groups) == expected
        assert expected > 0

    def test_singleton_groups_still_derive(self):
        # shards > nodes clamps to one node per shard upstream; the
        # lookahead must still be the nearest cross-pair latency.
        config = SimulationConfig(num_nodes=4)
        groups = partition_nodes(4, 8)
        lookahead = lookahead_for(config, groups)
        topology = MeshTopology(
            4, base_latency=config.net_base_latency,
            per_hop_latency=config.net_per_hop_latency,
            per_word_latency=config.net_per_word_latency,
        )
        assert lookahead == topology.latency(0, 1, MIN_MESSAGE_WORDS)


def _through_pipe(app, replica, payload, bulk=False):
    """Encode one message, pickle it as the worker pipe does, decode it
    against ``replica`` and check every field came back exactly."""
    message = Message(dst=2, handler=app._h_request, payload=payload,
                      src=0, gid=5, bulk=bulk)
    message.inject_time = 123
    wire = encode_message(message, 456, {5: app})
    assert wire is not None
    wire = pickle.loads(pickle.dumps(wire))
    decoded = decode_message(wire, {5: replica})
    assert decoded is not None
    rebuilt, arrival = decoded
    assert arrival == 456
    assert rebuilt.inject_time == 123
    assert (rebuilt.src, rebuilt.dst, rebuilt.gid) == (0, 2, 5)
    assert rebuilt.payload == payload
    assert [type(v) for v in rebuilt.payload] == \
        [type(v) for v in payload]
    assert rebuilt.bulk is bulk
    return rebuilt


class TestChannel:
    def _apps(self):
        app = SynthApplication(num_nodes=4)
        replica = SynthApplication(num_nodes=4)
        return app, replica

    def test_round_trip_rebinds_against_replica(self):
        app, replica = self._apps()
        shapes = [
            ((0, 17), False),
            ((), False),
            ((True, False, 1), False),      # bools stay bools
            ((1.5, "gateway"), False),      # a float and a string
            ((1 << 63, -(1 << 70)), False),  # ints beyond 64 bits
            (tuple(range(40)), True),       # a bulk body
        ]
        for payload, bulk in shapes:
            rebuilt = _through_pipe(app, replica, payload, bulk)
            # The handler is the *replica's* bound method, not the
            # source's.
            assert rebuilt.handler.__self__ is replica
            assert rebuilt.handler.__func__ is app._h_request.__func__

    def test_unregistered_gid_is_unresolvable(self):
        app, _ = self._apps()
        message = Message(dst=1, handler=app._h_request, payload=(),
                          src=0, gid=5)
        assert encode_message(message, 10, {6: app}) is None

    def test_foreign_bound_method_is_unresolvable(self):
        # Handler bound to a different instance than the registered app
        # (e.g. a kernel service): shipping the name would rebind it to
        # the wrong object, so the codec must refuse.
        app, replica = self._apps()
        message = Message(dst=1, handler=replica._h_request, payload=(),
                          src=0, gid=5)
        assert encode_message(message, 10, {5: app}) is None

    def test_plain_function_is_unresolvable(self):
        app, _ = self._apps()
        message = Message(dst=1, handler=lambda rt, msg: None,
                          payload=(), src=0, gid=5)
        assert encode_message(message, 10, {5: app}) is None


class TestStructCodec:
    """The payload shapes the fixed-width struct records once carried,
    and the ones they refused. The exchange now has one pickled case,
    so every shape must come through it unchanged."""

    def _apps(self):
        return SynthApplication(num_nodes=4), SynthApplication(num_nodes=4)

    def test_round_trip(self):
        # A barrier report is one list of (wire, origin) in send order;
        # the pipe must hand it over entry for entry.
        app, replica = self._apps()
        batch = []
        for origin, payload in enumerate([(0, 17), (1, 2), (3,)]):
            message = Message(dst=2, handler=app._h_request,
                              payload=payload, src=0, gid=5)
            message.inject_time = 100 + origin
            batch.append((encode_message(message, 456 + origin,
                                         {5: app}), origin))
        carried = pickle.loads(pickle.dumps(batch))
        assert carried == batch
        for (wire, origin), (sent, _) in zip(carried, batch):
            rebuilt, arrival = decode_message(wire, {5: replica})
            assert arrival == 456 + origin
            assert rebuilt.inject_time == 100 + origin
            assert rebuilt.payload == sent[4]

    def test_empty_and_full_payloads(self):
        app, replica = self._apps()
        for payload in ((), tuple(range(1000))):
            _through_pipe(app, replica, payload)

    def test_int64_extremes_round_trip(self):
        app, replica = self._apps()
        _through_pipe(app, replica, (-(1 << 63), (1 << 63) - 1))
        _through_pipe(app, replica, (-(1 << 63) - 1, 1 << 63, 1 << 200))

    def test_fallback_shapes_refuse_the_fast_case(self):
        # No fast case is left to refuse them: each shape rides the one
        # pickled case with its type intact.
        app, replica = self._apps()
        for payload, bulk in [
            ((True,), False),          # bool stays bool, not int
            ((1.5,), False),           # float
            (("gateway",), False),     # string
            ((1 << 63,), False),       # past int64
            ((7, 8, 9), True),         # bulk body
        ]:
            _through_pipe(app, replica, payload, bulk)
        # A handler the replica does not have is still refused.
        wire = (0, 2, 5, "not_a_handler", (), False, 123, 456)
        assert decode_message(pickle.loads(pickle.dumps(wire)),
                              {5: replica}) is None


class TestAdaptiveLookahead:
    def test_dense_traffic_advances_one_window(self):
        # Next event right at the old bound: the classic fixed window.
        assert next_window_bound(99, [100, 250], [], 100) == 199

    def test_idle_gap_jumps_the_bound(self):
        # Nothing pending until cycle 5000: one barrier covers the gap
        # instead of 49 empty fixed windows.
        bound = next_window_bound(99, [5000, None], [], 100)
        assert bound == 5099
        assert windows_coalesced(99, bound, 100) == 49

    def test_inbound_arrivals_anchor_the_bound(self):
        # A message routed this barrier arrives before any local event;
        # the window must not run past it without a barrier.
        assert next_window_bound(99, [5000], [300], 100) == 399

    def test_never_regresses(self):
        # An arrival at/below the previous bound (already injected,
        # about to execute) must still move the clock forward.
        assert next_window_bound(500, [400], [], 100) == 501

    def test_all_idle_is_none(self):
        assert next_window_bound(99, [None, None], [], 100) is None

    def test_coalesced_counts_skipped_static_windows(self):
        assert windows_coalesced(0, 100, 100) == 0
        assert windows_coalesced(0, 199, 100) == 0
        assert windows_coalesced(0, 200, 100) == 1
        assert windows_coalesced(0, 1000, 100) == 9


class TestCrossShardFifo:
    def test_same_pair_arrivals_match_monolithic_floor(self):
        """Back-to-back sends on one cross-shard pair must arrive in
        send order at the exact cycles the monolithic fabric computes
        (latency plus the per-pair FIFO floor), not merely latency."""
        config = SimulationConfig(num_nodes=4, seed=1)
        groups = partition_nodes(4, 2)
        shard = ShardMachine(config, groups, 0)
        mono = Machine(config)
        app = SynthApplication(num_nodes=4)

        def send_burst(fabric):
            for payload in ((0,), (1,), (2,)):
                fabric.send(Message(dst=2, handler=app._h_request,
                                    payload=payload, src=0, gid=1))

        send_burst(shard.fabric)   # dst 2 is on shard 1: outbox path
        send_burst(mono.fabric)    # same sends, monolithic delivery
        outbox = shard.fabric.take_outbox()
        arrivals = [arrival for arrival, _message in outbox]
        assert [m.payload for _a, m in outbox] == [(0,), (1,), (2,)]
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) == 3  # FIFO floor separates them
        assert arrivals[-1] == mono.fabric._last_arrival[(0, 2)]
        assert shard.fabric.take_outbox() == []  # drained

    def test_local_sends_stay_off_the_outbox(self):
        config = SimulationConfig(num_nodes=4, seed=1)
        shard = ShardMachine(config, partition_nodes(4, 2), 0)
        app = SynthApplication(num_nodes=4)
        shard.fabric.send(Message(dst=1, handler=app._h_request,
                                  payload=(), src=0, gid=1))
        assert shard.fabric.take_outbox() == []
        assert shard.fabric.cross_shard_sends == 0


class TestCrossShardFerry:
    """One window's outbox carried from shard 0 to shard 1 the way the
    worker and coordinator carry it (encode, pickle, decode, inject),
    without processes: every delivery cycle must match the monolithic
    machine's."""

    #: (src, dst, payload) on 4 nodes split (0, 1) | (2, 3): a
    #: long-then-short burst on 0 -> 2 that only the FIFO floor keeps
    #: in order, then a burst from both shard-0 nodes into node 3 whose
    #: last two messages arrive in the same cycle behind one already
    #: queued, so send order alone decides which of them blocks.
    SENDS = ((0, 2, tuple(range(10))), (0, 2, ()), (0, 2, (1,)),
             (1, 3, ()), (0, 3, ()), (1, 3, (1, 2)))

    def _deliveries(self, messages):
        return {(m.src, m.dst, m.payload): m.deliver_time
                for m in messages}

    def _send_all(self, machine):
        app = SynthApplication(num_nodes=4)
        gid = machine.add_job(app).gid
        sent = []
        for src, dst, payload in self.SENDS:
            message = Message(dst=dst, handler=app._h_request,
                              payload=payload, src=src, gid=gid)
            machine.fabric.send(message)
            sent.append(message)
        return sent

    def _monolithic(self):
        machine = Machine(SimulationConfig(num_nodes=4, seed=1))
        sent = self._send_all(machine)
        machine.engine.run()
        return self._deliveries(sent)

    def _ferried(self, reverse=False):
        config = SimulationConfig(num_nodes=4, seed=1)
        groups = partition_nodes(4, 2)
        source = ShardMachine(config, groups, 0)
        owner = ShardMachine(config, groups, 1)
        self._send_all(source)
        owner.add_job(SynthApplication(num_nodes=4))
        outbound = [(encode_message(message, arrival, source.apps_by_gid), 0)
                    for arrival, message in source.fabric.take_outbox()]
        batch = pickle.loads(pickle.dumps(outbound))
        if reverse:
            batch.reverse()
        ferried = []
        for wire, origin in batch:
            message, arrival = decode_message(wire, owner.apps_by_gid)
            owner.fabric.inject_remote(message, arrival, origin)
            ferried.append(message)
        owner.engine.run()
        assert not owner.fabric.flags
        return self._deliveries(ferried)

    def test_ferried_deliveries_match_monolithic(self):
        expected = self._monolithic()
        assert None not in expected.values()
        assert self._ferried() == expected

    def test_reversed_batch_breaks_identity(self):
        # Send order is the whole contract: the same entries injected
        # in reverse order deliver at different cycles.
        assert self._ferried(reverse=True) != self._monolithic()


def _synth_apps(**kwargs):
    defaults = dict(group_size=5, t_betw=100, total_messages_per_node=30,
                    num_nodes=4, seed=1)
    defaults.update(kwargs)
    return [SynthApplication(**defaults), NullApplication()]


def _serial_metrics(config, apps):
    machine = Machine(config)
    jobs = [machine.add_job(app) for app in apps]
    machine.run_until_job_done(jobs[0], limit=50_000_000_000)
    return collect_metrics(machine, jobs[0])


class TestRunShardedFallbacks:
    def test_single_shard_runs_serial(self):
        config = SimulationConfig(num_nodes=4, shards=1)
        metrics, extra = run_sharded(config, _synth_apps())
        assert extra["shard_mode"] == "serial"
        assert extra["serial_fallbacks"] == 0
        expected = _serial_metrics(config, _synth_apps())
        assert asdict(metrics) == asdict(expected)

    def test_fault_plan_runs_serial(self):
        # A non-lossy plan (latency spikes): the run completes without
        # retransmission, but the injector's global seeded schedule
        # still couples shards, so the coordinator must not distribute.
        config = SimulationConfig(num_nodes=4, shards=2).with_faults(
            "spike=0.2,spike_cycles=500,seed=3")
        metrics, extra = run_sharded(config, _synth_apps())
        assert extra["shard_mode"] == "serial"
        expected = _serial_metrics(config, _synth_apps())
        assert asdict(metrics) == asdict(expected)

    def test_fork_unavailable_runs_serial(self, monkeypatch, capsys):
        monkeypatch.setattr(coordinator, "fork_available", lambda: False)
        config = SimulationConfig(num_nodes=4, shards=2)
        metrics, extra = run_sharded(config, _synth_apps())
        assert extra["shard_mode"] == "serial"
        assert "single-process" in capsys.readouterr().err
        expected = _serial_metrics(config, _synth_apps())
        assert asdict(metrics) == asdict(expected)

    def test_coupling_flags_trigger_identical_fallback(self, capsys):
        # Tiny send intervals with a huge outstanding window drive the
        # fabric into sender blocking — timing the sharded run cannot
        # reproduce — so it must discard its result and re-run serially
        # on the parent's pristine app instances.
        kwargs = dict(group_size=200, t_betw=2,
                      total_messages_per_node=200)
        config = SimulationConfig(num_nodes=4, shards=2)
        metrics, extra = run_sharded(config, _synth_apps(**kwargs))
        assert extra["shard_mode"] == "serial-fallback"
        assert extra["serial_fallbacks"] == 1
        assert extra["shard_flags"]
        assert "re-running single-process" in capsys.readouterr().err
        expected = _serial_metrics(config, _synth_apps(**kwargs))
        assert asdict(metrics) == asdict(expected)


class TestOccupancySweep:
    def test_interleaved_logs_stay_under_limit(self):
        partials = [
            {"occ_injects": {2: [10, 20]}, "occ_releases": {2: [15]}},
            {"occ_injects": {2: [12]}, "occ_releases": {2: [25, 30]}},
        ]
        # Pre-inject occupancy peaks at 1 (t=12, before the t=15
        # release): the limit bites at credits=1, not credits=2.
        assert not _occupancy_exceeded(partials, credits=2)
        assert _occupancy_exceeded(partials, credits=1)

    def test_inject_before_release_at_equal_cycle(self):
        # The conservative tie-break: an inject at the same cycle as a
        # release counts against the *pre-release* occupancy.
        partials = [
            {"occ_injects": {0: [5, 9]}, "occ_releases": {0: [9]}},
        ]
        assert _occupancy_exceeded(partials, credits=1)
        assert not _occupancy_exceeded(partials, credits=2)
