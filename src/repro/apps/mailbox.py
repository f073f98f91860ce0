"""Internet-scale mailbox service workload (the petmail scenario).

The paper's two-case machinery was built for *tightly coupled* jobs,
but the same fast-path/buffered split shows up in a very different
regime: an always-on mailbox service absorbing open-loop traffic from
millions of mostly-offline senders. Mail arrives whether or not the
recipient is connected; the service tier must absorb bursts (buffered
case), suppress client retransmission duplicates, and survive node
crashes by letting senders replay.

Topology: nodes ``[0, mailbox_nodes)`` host the mailbox service; the
remaining nodes are *gateways*, each aggregating a disjoint shard of
the logical client population. A gateway's open-loop send process
draws the sending client from an integer log-uniform (Zipf-like)
distribution and the recipient likewise, modulates its send gap with
an integer triangle-wave diurnal envelope, and occasionally submits
the same message twice (impatient clients double-send). Client state
lives in a bounded LRU *flow table*, so ``clients`` can be millions of
logical senders while resident state stays O(active flows).

All traffic — submission, retrieval, delivery, epoch announcements —
rides one :class:`~repro.protocols.reliable.ReliableTransport`, so the
workload composes with fault plans: drops are repaired by retries, and
``mailbox_crashes=`` faults wipe a seeded mailbox node (queued mail +
dedup state), bump its epoch, and reconnecting gateways answer with a
replay of their bounded submission logs.

Everything is integer arithmetic on named
:class:`~repro.sim.random.DeterministicRng` streams: no wall clock, no
floating trig, so metrics are bit-identical across serial, parallel
and cache-replay execution.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import (
    Any, Callable, Deque, Dict, Generator, List, Optional, Tuple,
)

from repro.apps.base import Application
from repro.core.udm import UdmRuntime
from repro.protocols.reliable import ReliableTransport
from repro.sim.random import DeterministicRng
from repro.stats import MAX, SUM, metric

#: Upper bucket edges (cycles) for the retrieval-latency histogram:
#: time from enqueue at the mailbox to delivery at the gateway. Shared
#: with the observatory declaration so snapshots stay comparable.
RETRIEVAL_LATENCY_EDGES: Tuple[int, ...] = (
    2_000, 10_000, 50_000, 200_000, 1_000_000, 5_000_000,
)


def heavy_tail_rank(rng: DeterministicRng, n: int) -> int:
    """A rank in ``[0, n)`` with log-uniform (Zipf-like) mass.

    Picks an octave ``[2^k, 2^(k+1))`` uniformly, then a rank uniformly
    inside it — equal probability mass per octave, so rank 0 is drawn
    ~``bit_length(n)`` times more often than a uniform draw would.
    Integer-only: platform-deterministic, and O(1) regardless of ``n``,
    which is what lets ``clients`` scale to millions.
    """
    if n <= 1:
        return 0
    k = rng.uniform_int(0, n.bit_length() - 1)
    lo = min(1 << k, n)
    hi = min(n, (1 << (k + 1)) - 1)
    return rng.uniform_int(lo, hi) - 1


@dataclass(slots=True)
class MailboxStats:
    """Workload-global counters; the metric-collection ground truth."""

    submitted: int = 0            # transport sends of "submit"
    absorbed: int = 0             # "submit" handled at a mailbox
    enqueued: int = 0             # accepted into a recipient queue
    retrieved: int = 0            # popped for a reconnect
    delivered: int = 0            # "deliver" handled at a gateway
    overflow_drops: int = 0       # mailbox quota rejections
    duplicates_suppressed: int = 0  # app-level dedup hits
    client_duplicates: int = 0    # impatient double-sends injected
    reconnects: int = 0           # "retrieve" requests issued
    replays: int = 0              # submissions replayed post-crash
    crashes: int = 0              # mailbox-node crash events
    crash_losses: int = 0         # queued mail wiped by crashes
    flows_created: int = 0
    flows_evicted: int = 0        # LRU pressure on the flow table
    dedup_evictions: int = 0      # LRU pressure on the dedup cache
    #: Sums across shards: a flow table only grows (LRU evictions fire
    #: only above the cap, which holds its size), so the peak of the
    #: summed tables is the sum of the per-shard peaks.
    active_flows_peak: int = metric(fold=MAX, shards=SUM)
    #: Single-node queued-mail high-water.
    occupancy_peak: int = metric(fold=MAX)
    #: The ``mailbox.retrieval_latency`` histogram's buckets and sums.
    latency_counts: List[int] = metric(
        obs=None, factory=lambda: [0] * (len(RETRIEVAL_LATENCY_EDGES) + 1))
    latency_count: int = metric(obs=None)
    latency_total: int = metric(obs=None)

    def note_latency(self, value: int) -> None:
        self.latency_counts[bisect_left(RETRIEVAL_LATENCY_EDGES,
                                        value)] += 1
        self.latency_count += 1
        self.latency_total += value

    def snapshot(self) -> Dict[str, Any]:
        """JSON-scalar summary for RunResult.extra payloads."""
        out = {name: getattr(self, name) for name in self.__slots__
               if name != "latency_counts"}
        out["latency_counts"] = list(self.latency_counts)
        return out


class MailboxService:
    """Server-side state: per-recipient queues, dedup cache, epochs.

    One instance is shared by the mailbox-node handler coroutines (the
    state a real service would keep in node-local memory, sharded by
    ``home``). Registered on the machine via
    :meth:`~repro.machine.machine.Machine.register_mailbox` so metric
    collection, the observatory and the fault injector's crash
    schedule can reach it.
    """

    def __init__(self, mailbox_nodes: int, capacity: int,
                 dedup_cache: int, stats: MailboxStats, *,
                 node_list: Optional[List[int]] = None,
                 home: Optional[Callable[[int], int]] = None,
                 dedup_partitions: int = 1,
                 partition_of: Optional[Callable[[int], int]] = None,
                 ) -> None:
        self.mailbox_node_list = (list(node_list) if node_list is not None
                                  else list(range(mailbox_nodes)))
        self.capacity = capacity
        self.dedup_cache = dedup_cache
        self.stats = stats
        self._home = home
        # Locality placement partitions the dedup LRU per group: a
        # single global LRU would let one group's inserts evict another
        # group's entries, coupling groups through eviction order —
        # exactly what sharded execution cannot reproduce. One
        # partition (the default) is the original single global LRU.
        self._partitions = max(1, dedup_partitions)
        self._partition_of = partition_of
        self._partition_cap = max(1, dedup_cache // self._partitions)
        #: recipient -> deque of (client, seq, enqueue_time).
        self.queues: Dict[int, Deque[Tuple[int, int, int]]] = {}
        #: Per-partition (recipient, client) -> highest seq accepted
        #: (bounded LRU each). ``seen`` aliases partition 0 so existing
        #: single-partition callers keep working.
        self.seen_parts: List["OrderedDict[Tuple[int, int], int]"] = [
            OrderedDict() for _ in range(self._partitions)
        ]
        self.seen = self.seen_parts[0]
        self.occupancy: Dict[int, int] = {
            n: 0 for n in self.mailbox_node_list
        }
        self.epoch: Dict[int, int] = {
            n: 0 for n in self.mailbox_node_list
        }

    def home(self, recipient: int) -> int:
        if self._home is not None:
            return self._home(recipient)
        return self.mailbox_node_list[
            recipient % len(self.mailbox_node_list)]

    def queued_total(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def accept(self, node: int, client: int, recipient: int, seq: int,
               now: int) -> bool:
        """Absorb one submission at its home node; False on drop."""
        stats = self.stats
        key = (recipient, client)
        part = (self.seen_parts[self._partition_of(recipient)]
                if self._partition_of is not None else self.seen)
        last = part.get(key)
        if last is not None and seq <= last:
            part.move_to_end(key)
            stats.duplicates_suppressed += 1
            return False
        part[key] = seq
        part.move_to_end(key)
        while len(part) > self._partition_cap:
            part.popitem(last=False)
            stats.dedup_evictions += 1
        queue = self.queues.get(recipient)
        if queue is None:
            queue = self.queues[recipient] = deque()
        if len(queue) >= self.capacity:
            stats.overflow_drops += 1
            return False
        queue.append((client, seq, now))
        occ = self.occupancy[node] + 1
        self.occupancy[node] = occ
        if occ > stats.occupancy_peak:
            stats.occupancy_peak = occ
        stats.enqueued += 1
        return True

    def crash(self, now: int, rng: DeterministicRng) -> bool:
        """Fault-injector hook: crash one seeded mailbox node.

        Wipes the victim's queued mail and its share of the dedup
        cache and bumps its epoch; gateways observe the epoch change
        on their next reconnect and replay their bounded logs.
        """
        nodes = self.mailbox_node_list
        victim = nodes[rng.uniform_int(0, len(nodes) - 1)]
        lost = 0
        for recipient in sorted(self.queues):
            if self.home(recipient) != victim:
                continue
            queue = self.queues[recipient]
            lost += len(queue)
            queue.clear()
        self.occupancy[victim] = 0
        for part in self.seen_parts:
            for key in [k for k in part if self.home(k[0]) == victim]:
                del part[key]
        self.epoch[victim] += 1
        self.stats.crashes += 1
        self.stats.crash_losses += lost
        return True


class MailboxApplication(Application):
    """Always-on mailbox nodes fed by client-aggregating gateways."""

    name = "mailbox"

    def __init__(self, num_nodes: int = 8, mailbox_nodes: int = 2,
                 clients: int = 100_000, recipients: int = 48,
                 messages_per_gateway: int = 400, mean_gap: int = 600,
                 dup_rate: float = 0.08, diurnal_period: int = 150_000,
                 diurnal_amplitude_milli: int = 600,
                 mailbox_capacity: int = 1_024,
                 max_active_flows: int = 512, dedup_cache: int = 4_096,
                 reconnects: int = 2, replay_window: int = 32,
                 retrieve_batch: int = 64,
                 handler_cycles: int = 60, seed: int = 1,
                 record_deliveries: bool = False,
                 locality_groups: int = 0) -> None:
        if mailbox_nodes < 1:
            raise ValueError("need at least one mailbox node")
        if num_nodes < mailbox_nodes + 1:
            raise ValueError("need at least one gateway node")
        if clients < 1 or recipients < 1:
            raise ValueError("clients and recipients must be positive")
        if messages_per_gateway < 1 or mean_gap < 1:
            raise ValueError("message count and gap must be positive")
        if not 0.0 <= dup_rate <= 1.0:
            raise ValueError(f"dup_rate={dup_rate} is not a probability")
        if locality_groups:
            if locality_groups < 1:
                raise ValueError("locality_groups cannot be negative")
            if num_nodes % locality_groups:
                raise ValueError("locality groups must divide num_nodes")
            if mailbox_nodes % locality_groups:
                raise ValueError(
                    "locality groups must divide mailbox_nodes")
            if recipients % locality_groups:
                raise ValueError(
                    "locality groups must divide recipients")
            if (num_nodes - mailbox_nodes) % locality_groups:
                raise ValueError(
                    "locality groups must divide the gateway count")
            if (num_nodes // locality_groups
                    <= mailbox_nodes // locality_groups):
                raise ValueError(
                    "each locality group needs at least one gateway")
        self.num_nodes = num_nodes
        self.mailbox_nodes = mailbox_nodes
        self.num_gateways = num_nodes - mailbox_nodes
        self.clients = clients
        self.recipients = recipients
        self.messages_per_gateway = messages_per_gateway
        self.mean_gap = mean_gap
        self.dup_rate = dup_rate
        self.diurnal_period = diurnal_period
        self.diurnal_amplitude_milli = min(999, diurnal_amplitude_milli)
        self.max_active_flows = max_active_flows
        self.reconnects = reconnects
        self.replay_window = replay_window
        self.retrieve_batch = max(1, retrieve_batch)
        self.handler_cycles = handler_cycles
        self.seed = seed
        self.record_deliveries = record_deliveries
        #: Locality placement (0 = the classic layout). With ``G``
        #: groups, the node space splits into ``G`` contiguous blocks,
        #: each holding its own mailbox nodes, gateways and recipient
        #: slice — no message ever crosses a group boundary, which is
        #: what lets ``repro mailbox --shards N`` free-run distributed.
        self.locality_groups = locality_groups
        self._groups = max(1, locality_groups)
        self._group_size = num_nodes // self._groups
        self._mb_per_group = mailbox_nodes // self._groups
        self._gateways_per_group = self.num_gateways // self._groups

        self.stats = MailboxStats()
        if locality_groups:
            node_list = [n for n in range(num_nodes)
                         if n % self._group_size < self._mb_per_group]
            self.service = MailboxService(
                mailbox_nodes, mailbox_capacity, dedup_cache,
                self.stats, node_list=node_list, home=self._home_node,
                dedup_partitions=locality_groups,
                partition_of=lambda r: r % locality_groups)
        else:
            self.service = MailboxService(mailbox_nodes,
                                          mailbox_capacity,
                                          dedup_cache, self.stats)
        # Wide-area clients tolerate seconds of latency; the default
        # 4k-cycle timeout would congestion-collapse here (acks sit
        # behind deep mailbox backlogs, every premature retry deepens
        # them), so the retry clock matches the service tier's worst
        # queueing delay instead. One transport per locality group:
        # message state is per-(src, dst) pair either way, but the
        # drain loop's liveness test reads transport-wide counters,
        # and those must not couple groups under locality placement.
        self._transports = [
            ReliableTransport(num_nodes, retry_timeout=64_000,
                              deliver=self._deliver)
            for _ in range(self._groups)
        ]
        self.transport = self._transports[0]
        # Per-gateway flow tables (client -> sends), bounded LRU.
        self._flow_tables: Dict[int, "OrderedDict[int, int]"] = {}
        self._flow_cap = max(1, max_active_flows // self.num_gateways)
        #: Flows across all tables, kept as they change.
        self._active_flows = 0
        # Per-gateway bounded replay logs: (home, client, recipient, seq).
        self._replay_logs: Dict[int, Deque[Tuple[int, int, int, int]]] = {}
        # (gateway node, mailbox node) -> last epoch acknowledged.
        self._epoch_seen: Dict[Tuple[int, int], int] = {}
        # Recipients with a reconnect in flight ("done" not yet seen):
        # one outstanding retrieve per recipient, or the drain loop
        # would pile requests onto an already-loaded mailbox node.
        self._retrieving: set = set()
        # Per-group progress counters mirroring the global stats; the
        # drain/termination conditions read *these* so a gateway only
        # ever waits on its own group (with one group they equal the
        # global counters exactly).
        self._g_submitted = [0] * self._groups
        self._g_absorbed = [0] * self._groups
        self._g_retrieved = [0] * self._groups
        self._g_delivered = [0] * self._groups
        self._sending_done = [0] * self._groups
        self._drained = [0] * self._groups
        gateway_nodes = [n for n in range(num_nodes)
                         if not self._is_mailbox_node(n)]
        self._gateway_ordinal = {n: i for i, n
                                 in enumerate(gateway_nodes)}
        #: (client, recipient) -> delivered seqs, in delivery order.
        #: Test instrumentation only (unbounded); off by default so
        #: sweep-scale runs stay O(active flows + queued mail).
        self.retrieved_log: Dict[Tuple[int, int], List[int]] = {}

    # ------------------------------------------------------------------
    # Locality placement
    # ------------------------------------------------------------------
    def _is_mailbox_node(self, node: int) -> bool:
        if self.locality_groups:
            return node % self._group_size < self._mb_per_group
        return node < self.mailbox_nodes

    def _node_group(self, node: int) -> int:
        return node // self._group_size if self.locality_groups else 0

    def _home_node(self, recipient: int) -> int:
        """Group-local home: recipient ``r`` lives in group ``r % G``
        on that group's ``(r // G) % mb_per_group``-th mailbox node."""
        group = recipient % self.locality_groups
        return (group * self._group_size
                + (recipient // self.locality_groups)
                % self._mb_per_group)

    def _transport_for(self, node: int) -> ReliableTransport:
        return self._transports[self._node_group(node)]

    def traffic_locality_groups(self):
        if not self.locality_groups:
            return None
        size = self._group_size
        return [tuple(range(g * size, (g + 1) * size))
                for g in range(self.locality_groups)]

    # ------------------------------------------------------------------
    # Open-loop arrival shaping
    # ------------------------------------------------------------------
    def _envelope_milli(self, now: int) -> int:
        """Diurnal rate multiplier in milli-units (1000 = nominal).

        An integer triangle wave between ``1000 - amp`` (trough) and
        ``1000 + amp`` (peak) over ``diurnal_period`` cycles — the
        burst envelope, without floating trig.
        """
        period = self.diurnal_period
        amp = self.diurnal_amplitude_milli
        if period <= 1 or amp <= 0:
            return 1_000
        half = period // 2
        pos = now % period
        rise = pos if pos <= half else period - pos
        return 1_000 - amp + (2 * amp * rise) // half

    def _gap(self, rng: DeterministicRng, now: int) -> int:
        base = rng.uniform_interval(self.mean_gap)
        return base * 1_000 // self._envelope_milli(now)

    # ------------------------------------------------------------------
    # Transport delivery callback (runs inside receiving handlers)
    # ------------------------------------------------------------------
    def _deliver(self, rt: UdmRuntime, src: int,
                 payload: Tuple[Any, ...]) -> Generator:
        kind = payload[0]
        if kind == "submit":
            yield from self._on_submit(rt, payload)
        elif kind == "retrieve":
            yield from self._on_retrieve(rt, payload)
        elif kind == "deliver":
            self._on_deliver(rt, payload)
        elif kind == "done":
            yield from self._on_done(rt, src, payload)
        else:  # pragma: no cover - protocol bug guard
            raise ValueError(f"unknown mailbox message {kind!r}")

    def _on_submit(self, rt: UdmRuntime,
                   payload: Tuple[Any, ...]) -> Generator:
        _, client, recipient, seq = payload
        yield self.handler_cycles
        self.stats.absorbed += 1
        self._g_absorbed[self._node_group(rt.node_index)] += 1
        self.service.accept(rt.node_index, client, recipient, seq,
                            rt.machine.engine.now)

    def _on_retrieve(self, rt: UdmRuntime,
                     payload: Tuple[Any, ...]) -> Generator:
        _, requester, recipient = payload
        yield 40
        node = rt.node_index
        group = self._node_group(node)
        transport = self._transports[group]
        queue = self.service.queues.get(recipient)
        # Page the inbox: a bounded batch per reconnect keeps one hot
        # recipient from occupying the handler past the atomicity
        # window every time. The requester reconnects again while its
        # queue is non-empty, so leftovers drain on later rounds.
        batch = self.retrieve_batch
        while queue and batch:
            batch -= 1
            client, seq, enq = queue.popleft()
            self.service.occupancy[node] -= 1
            self.stats.retrieved += 1
            self._g_retrieved[group] += 1
            yield from transport.send(
                rt, requester, ("deliver", recipient, client, seq, enq))
        yield from transport.send(
            rt, requester, ("done", recipient, self.service.epoch[node]))

    def _on_deliver(self, rt: UdmRuntime,
                    payload: Tuple[Any, ...]) -> None:
        _, recipient, client, seq, enq = payload
        self.stats.note_latency(rt.machine.engine.now - enq)
        self.stats.delivered += 1
        self._g_delivered[self._node_group(rt.node_index)] += 1
        if self.record_deliveries:
            self.retrieved_log.setdefault((client, recipient),
                                          []).append(seq)

    def _on_done(self, rt: UdmRuntime, src: int,
                 payload: Tuple[Any, ...]) -> Generator:
        _, recipient, epoch = payload
        self._retrieving.discard(recipient)
        key = (rt.node_index, src)
        if epoch <= self._epoch_seen.get(key, 0):
            return
        self._epoch_seen[key] = epoch
        # The mailbox node crashed since our last reconnect: replay
        # everything in the bounded log that was homed there. Replays
        # whose mail survived are absorbed by the dedup cache.
        group = self._node_group(rt.node_index)
        transport = self._transports[group]
        for home, client, recipient, seq in list(
                self._replay_logs.get(rt.node_index, ())):
            if home != src:
                continue
            self.stats.replays += 1
            self.stats.submitted += 1
            self._g_submitted[group] += 1
            yield from transport.send(
                rt, home, ("submit", client, recipient, seq))

    # ------------------------------------------------------------------
    # Flow-table aggregation (the O(active-flows) bound)
    # ------------------------------------------------------------------
    def _note_flow(self, gateway_node: int, client: int) -> None:
        table = self._flow_tables[gateway_node]
        if client in table:
            table[client] += 1
            table.move_to_end(client)
        else:
            table[client] = 1
            self.stats.flows_created += 1
            self._active_flows += 1
            while len(table) > self._flow_cap:
                table.popitem(last=False)
                self.stats.flows_evicted += 1
                self._active_flows -= 1
            if self._active_flows > self.stats.active_flows_peak:
                self.stats.active_flows_peak = self._active_flows

    # ------------------------------------------------------------------
    # Mains
    # ------------------------------------------------------------------
    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        if self._is_mailbox_node(node_index):
            yield from self._mailbox_main(rt, node_index)
        else:
            yield from self._gateway_main(rt, node_index)

    def _mailbox_main(self, rt: UdmRuntime,
                      node_index: int) -> Generator:
        # Every mailbox node registers (register_mailbox dedupes), so a
        # shard replica that owns no node 0 still exposes the service
        # to metric collection.
        rt.machine.register_mailbox(self.service)
        group = self._node_group(node_index)
        # All service work happens in handlers; the main thread just
        # keeps the node resident until every gateway in its own
        # locality group has drained. Not a Spin: other nodes' frames
        # bump _drained, so the count changes while this node parks.
        while self._drained[group] < self._gateways_per_group:
            yield 2_000

    def _gateway_main(self, rt: UdmRuntime,
                      node_index: int) -> Generator:
        gw = self._gateway_ordinal[node_index]
        group = self._node_group(node_index)
        transport = self._transports[group]
        rng = DeterministicRng(self.seed, f"mailbox/gateway/{gw}")
        self._flow_tables[node_index] = OrderedDict()
        replay_log: Deque[Tuple[int, int, int, int]] = deque(
            maxlen=self.replay_window)
        self._replay_logs[node_index] = replay_log
        # This gateway's shards of the client and recipient spaces.
        clients_per_gw = max(1, self.clients // self.num_gateways)
        if self.locality_groups:
            # Group ``g`` owns recipients ``r % G == g``; its gateways
            # split those round-robin by in-group ordinal.
            per_group = self._gateways_per_group
            local_gw = gw - group * per_group
            own = [r for r in range(self.recipients)
                   if r % self.locality_groups == group
                   and (r // self.locality_groups) % per_group
                   == local_gw]
        else:
            own = [r for r in range(self.recipients)
                   if r % self.num_gateways == gw]
        # Seeded reconnect schedule: after which submission each owned
        # recipient comes online and drains its mailbox.
        checkpoints: Dict[int, List[int]] = {}
        for recipient in own:
            for _ in range(self.reconnects):
                at = rng.uniform_int(1, self.messages_per_gateway)
                checkpoints.setdefault(at, []).append(recipient)

        seq = 0
        for sent in range(self.messages_per_gateway):
            for recipient in checkpoints.pop(sent, ()):
                if recipient in self._retrieving:
                    continue
                self._retrieving.add(recipient)
                self.stats.reconnects += 1
                yield from transport.send(
                    rt, self.service.home(recipient),
                    ("retrieve", node_index, recipient))
            gap = self._gap(rng, rt.machine.engine.now)
            if gap:
                yield gap
            client = (heavy_tail_rank(rng, clients_per_gw)
                      * self.num_gateways + gw)
            if self.locality_groups:
                recipient = (group + self.locality_groups
                             * heavy_tail_rank(
                                 rng,
                                 self.recipients
                                 // self.locality_groups))
            else:
                recipient = heavy_tail_rank(rng, self.recipients)
            home = self.service.home(recipient)
            self._note_flow(node_index, client)
            self.stats.submitted += 1
            self._g_submitted[group] += 1
            yield from transport.send(
                rt, home, ("submit", client, recipient, seq))
            replay_log.append((home, client, recipient, seq))
            if self.dup_rate and rng.random() < self.dup_rate:
                # An impatient client double-sends; same seq, so the
                # mailbox's dedup cache must absorb it.
                self.stats.client_duplicates += 1
                self.stats.submitted += 1
                self._g_submitted[group] += 1
                yield from transport.send(
                    rt, home, ("submit", client, recipient, seq))
            seq += 1
        self._sending_done[group] += 1

        # Final drain: reconnect until the whole workload quiesces.
        # Bounded by rounds *without progress*, not total rounds — a
        # buffered-mode grind can take a while but keeps moving, while
        # planned transport give-ups under extreme fault plans stop all
        # progress and must not wedge the run.
        stats = self.stats
        idle_rounds = 0
        last_progress = None
        # The idle window must out-wait the longest *planned* stall:
        # an overflow suspension freezes the whole job for
        # suspend_duration cycles while our retrieves sit in flight,
        # and giving up inside that window strands queued mail.
        round_cycles = 4_000
        overflow = getattr(rt.machine, "overflow", None)
        suspend = (overflow.policy.suspend_duration
                   if overflow is not None else 0)
        patience = max(100, suspend // round_cycles + 100)
        while idle_rounds < patience:
            if (self._sending_done[group] == self._gateways_per_group
                    and self._g_absorbed[group]
                    == self._g_submitted[group]
                    and self._g_delivered[group]
                    == self._g_retrieved[group]
                    and not any(self.service.queues.get(r)
                                for r in own)):
                break
            # Transport counters count as liveness too: a retry storm
            # is still moving (bounded by max_retries per message),
            # and acks_sent ticks while the receiver grinds through a
            # deep software buffer of duplicate copies — app-level
            # counters alone would read that grind as a wedge. Both
            # are bounded, so planned give-ups still terminate us.
            # All of these are group-local (one group: the globals),
            # so a gateway never waits on another group's traffic.
            progress = (self._g_absorbed[group],
                        self._g_retrieved[group],
                        self._g_delivered[group],
                        transport.retransmissions,
                        transport.acks_sent)
            if progress == last_progress:
                idle_rounds += 1
            else:
                idle_rounds = 0
                last_progress = progress
            for recipient in own:
                if (self.service.queues.get(recipient)
                        and recipient not in self._retrieving):
                    self._retrieving.add(recipient)
                    stats.reconnects += 1
                    yield from transport.send(
                        rt, self.service.home(recipient),
                        ("retrieve", node_index, recipient))
            yield round_cycles
        self._drained[group] += 1

    def describe(self) -> str:
        locality = (f", locality_groups={self.locality_groups}"
                    if self.locality_groups else "")
        return (
            f"mailbox: {self.clients} clients over {self.num_gateways} "
            f"gateways -> {self.mailbox_nodes} mailbox nodes, "
            f"{self.messages_per_gateway} msgs/gateway, "
            f"mean_gap={self.mean_gap}{locality}"
        )


__all__ = [
    "MailboxApplication",
    "MailboxService",
    "MailboxStats",
    "RETRIEVAL_LATENCY_EDGES",
    "heavy_tail_rank",
]
