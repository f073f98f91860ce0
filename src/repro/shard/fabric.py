"""A shard's view of the network fabric.

Each shard process builds the *whole* machine as a replica but only
drives its own node group; the fabric is the one component that must
know the difference. :class:`ShardFabric` keeps the monolithic fast
path for shard-local traffic and diverts cross-shard sends into an
**epoch outbox**: the exact arrival cycle is computed at the source
(latency model plus the per-(src, dst) FIFO floor, which lives entirely
source-side), the message is batched until the next window barrier, and
the owning shard injects it with :meth:`inject_remote` at the carried
cycle — bit-identical timing to the single-engine run.

Identity bookkeeping (``track_identity``) records everything the
coordinator needs to *certify* that identity after the fact:

* ``flags`` — coupling conditions that make sharded timing unfaithful
  (same-cycle arrival collisions across origin shards); any flag makes
  the coordinator discard the sharded run and re-run serially.
* ``occ_injects`` / ``occ_releases`` — per-destination credit-slot
  intervals. Cross-shard sends never bump source-side occupancy (the
  slot is accounted by the owner at injection), so a sharded sender can
  never *spuriously* block — but it also cannot see true global
  occupancy. The coordinator's interval sweep replays all shards' logs
  and flags any destination whose true occupancy ever reached the
  credit limit, i.e. any cycle where the monolithic run *could* have
  blocked a sender.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.network.fabric import NetworkFabric
from repro.network.message import Message
from repro.sim.engine import Engine
from repro.network.topology import MeshTopology


class ShardFabric(NetworkFabric):
    """Fabric replica owning one node group's traffic."""

    def __init__(self, engine: Engine, topology: MeshTopology,
                 credits_per_destination: int,
                 local_nodes: FrozenSet[int], shard_index: int,
                 track_identity: bool = True) -> None:
        super().__init__(engine, topology, credits_per_destination)
        self.local_nodes = frozenset(local_nodes)
        self.shard_index = shard_index
        self.track_identity = track_identity
        #: Cross-shard messages launched this window: (arrival, Message),
        #: in send order (which preserves per-pair FIFO at the owner).
        self.outbox: List[Tuple[int, Message]] = []
        self.flags: Set[str] = set()
        self.cross_shard_sends = 0
        # (dst, arrival-cycle) -> origin shard of the first arrival seen
        # there; a second arrival from a *different* origin means the
        # monolithic engine could have dispatched them in either order.
        self._arrival_origin: Dict[Tuple[int, int], int] = {}
        #: Credit-slot logs for the coordinator's occupancy sweep.
        self.occ_injects: Dict[int, List[int]] = defaultdict(list)
        self.occ_releases: Dict[int, List[int]] = defaultdict(list)

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        dst = message.dst
        if dst in self.local_nodes:
            super().send(message)
            if self.track_identity:
                # Both fabric paths record the scheduled arrival as the
                # new FIFO floor, so read it back rather than recompute.
                arrival = self._last_arrival[(message.src, dst)]
                self._note_arrival(dst, arrival, self.shard_index)
                self.occ_injects[dst].append(message.inject_time)
            return
        # Cross-shard: the monolithic fast path's send-side bookkeeping
        # (the arrival cycle, FIFO floor included, is fully determined
        # here because this shard launches *all* traffic on this
        # (src, dst) pair), minus the occupancy bump, which the owning
        # shard performs at injection (see inject_remote).
        arrival = self._stamp(message)
        self.cross_shard_sends += 1
        if self.track_identity:
            self.occ_injects[dst].append(message.inject_time)
        self.outbox.append((arrival, message))

    def take_outbox(self) -> List[Tuple[int, Message]]:
        """Drain this window's cross-shard messages."""
        out, self.outbox = self.outbox, []
        return out

    def inject_remote(self, message: Message, arrival: int,
                      origin: int) -> None:
        """Owner side: schedule a ferried message at its exact cycle."""
        self._occupancy[message.dst] += 1
        if self.track_identity:
            self._note_arrival(message.dst, arrival, origin)
        self.engine.schedule(arrival, self._arrive, message)

    # ------------------------------------------------------------------
    # Identity bookkeeping
    # ------------------------------------------------------------------
    def _note_arrival(self, dst: int, arrival: int, origin: int) -> None:
        key = (dst, arrival)
        prev = self._arrival_origin.get(key)
        if prev is None:
            self._arrival_origin[key] = origin
        elif prev != origin:
            # Two same-cycle arrivals from different shards: their
            # engine dispatch order is an artifact of the partition.
            self.flags.add("same-cycle-arrival-collision")

    def _release_slot(self, dst: int) -> None:
        if self.track_identity:
            self.occ_releases[dst].append(self.engine.now)
        super()._release_slot(dst)

    def in_flight_local(self) -> int:
        """Network occupancy toward this shard's own nodes."""
        return sum(self._occupancy[node] for node in self.local_nodes)


__all__ = ["ShardFabric"]
