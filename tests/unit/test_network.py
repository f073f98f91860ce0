"""Unit tests for messages, topology and the network fabrics."""

import pytest

from repro.network.fabric import NetworkFabric
from repro.network.message import KERNEL_GID, MAX_MESSAGE_WORDS, Message
from repro.network.second_network import SecondNetwork
from repro.network.topology import MeshTopology
from repro.sim.engine import Engine


class RecordingPort:
    """A fake NI input queue with a configurable capacity."""

    def __init__(self, capacity: int = 100):
        self.capacity = capacity
        self.queue = []
        self.received = []  # cumulative delivery record

    def network_deliver(self, message):
        if len(self.queue) >= self.capacity:
            return False
        self.queue.append(message)
        self.received.append(message)
        return True

    def pop(self, fabric, node_id):
        self.queue.pop(0)
        fabric.input_space_freed(node_id)


class TestMessage:
    def test_length_counts_header_and_handler(self):
        msg = Message(dst=1, handler="h", payload=(1, 2, 3))
        assert msg.length_words == 5
        assert msg.payload_words == 3

    def test_oversized_message_rejected(self):
        msg = Message(dst=0, handler="h",
                      payload=tuple(range(MAX_MESSAGE_WORDS)))
        with pytest.raises(ValueError):
            msg.validate()

    def test_kernel_gid_detection(self):
        assert Message(dst=0, handler="h").is_kernel
        assert not Message(dst=0, handler="h", gid=3).is_kernel

    def test_message_ids_unique(self):
        a = Message(dst=0, handler="h")
        b = Message(dst=0, handler="h")
        assert a.msg_id != b.msg_id


class TestTopology:
    def test_hops_dimension_order(self):
        mesh = MeshTopology(16)  # 4x4
        assert mesh.hops(0, 0) == 0
        assert mesh.hops(0, 3) == 3
        assert mesh.hops(0, 15) == 6  # 3 in x + 3 in y

    def test_latency_grows_with_distance_and_size(self):
        mesh = MeshTopology(16)
        near = mesh.latency(0, 1, 2)
        far = mesh.latency(0, 15, 2)
        big = mesh.latency(0, 1, 10)
        assert far > near
        assert big > near

    def test_loopback_has_base_latency(self):
        mesh = MeshTopology(4)
        assert mesh.latency(2, 2, 5) == mesh.base_latency

    def test_bad_node_rejected(self):
        mesh = MeshTopology(4)
        with pytest.raises(ValueError):
            mesh.hops(0, 7)
        with pytest.raises(ValueError, match="node -1 out of range"):
            mesh.hops(-1, 0)
        with pytest.raises(ValueError, match="node 4 out of range"):
            mesh.hops(4, 9)


def build_fabric(num_nodes=2, capacity=100, credits=16):
    engine = Engine()
    fabric = NetworkFabric(engine, MeshTopology(num_nodes),
                           credits_per_destination=credits)
    ports = []
    for node in range(num_nodes):
        port = RecordingPort(capacity)
        fabric.attach(node, port)
        ports.append(port)
    return engine, fabric, ports


class TestFabric:
    def test_delivery(self):
        engine, fabric, ports = build_fabric()
        fabric.send(Message(dst=1, handler="h", src=0, gid=1))
        engine.run()
        assert len(ports[1].received) == 1
        assert fabric.stats.messages_delivered == 1

    def test_in_order_per_pair_with_mixed_sizes(self):
        engine, fabric, ports = build_fabric()
        # A long message then a short one: naive latency would reorder.
        fabric.send(Message(dst=1, handler="big", src=0, gid=1,
                            payload=tuple(range(12))))
        fabric.send(Message(dst=1, handler="small", src=0, gid=1))
        engine.run()
        handlers = [m.handler for m in ports[1].received]
        assert handlers == ["big", "small"]

    def test_backpressure_blocks_in_network(self):
        engine, fabric, ports = build_fabric(capacity=1)
        for i in range(3):
            fabric.send(Message(dst=1, handler=i, src=0, gid=1))
        engine.run()
        assert len(ports[1].received) == 1
        assert fabric.blocked_count(1) == 2
        # Freeing space drains the backlog in order.
        ports[1].pop(fabric, 1)
        ports[1].pop(fabric, 1)
        assert [m.handler for m in ports[1].received] == [0, 1, 2]

    def test_credits_exhaust_and_recover(self):
        engine, fabric, ports = build_fabric(capacity=1, credits=2)
        fabric.send(Message(dst=1, handler=0, src=0, gid=1))
        fabric.send(Message(dst=1, handler=1, src=0, gid=1))
        assert not fabric.has_credit(1)
        with pytest.raises(RuntimeError):
            fabric.send(Message(dst=1, handler=2, src=0, gid=1))
        engine.run()
        # One message delivered, one blocked: one credit back.
        assert fabric.has_credit(1)

    def test_credit_event_fires_on_release(self):
        engine, fabric, ports = build_fabric(credits=1)
        fabric.send(Message(dst=1, handler=0, src=0, gid=1))
        woke = []
        fabric.credit_event(1).subscribe(lambda _v: woke.append(engine.now))
        engine.run()
        assert woke  # fired when the in-flight message was delivered

    def test_unattached_destination_rejected(self):
        engine, fabric, ports = build_fabric()
        with pytest.raises(ValueError):
            fabric.send(Message(dst=9, handler="h", src=0, gid=1))

    def test_double_attach_rejected(self):
        engine, fabric, ports = build_fabric()
        with pytest.raises(ValueError):
            fabric.attach(0, RecordingPort())

    def test_mean_latency_stat(self):
        engine, fabric, ports = build_fabric()
        fabric.send(Message(dst=1, handler="h", src=0, gid=1))
        engine.run()
        assert fabric.stats.mean_latency > 0


class TestSecondNetwork:
    def test_delivery_with_latency(self):
        engine = Engine()
        net = SecondNetwork(engine, per_word_latency=32, base_latency=100)
        got = []
        net.attach(0, lambda src, kind, payload: got.append(
            (engine.now, src, kind, payload)))
        net.send(1, 0, "page-out", {"gid": 3}, words=4)
        engine.run()
        assert got == [(100 + 32 * 4, 1, "page-out", {"gid": 3})]

    def test_send_to_unattached_raises(self):
        net = SecondNetwork(Engine())
        with pytest.raises(ValueError):
            net.send(0, 5, "x")
