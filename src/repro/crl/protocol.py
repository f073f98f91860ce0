"""The CRL coherence protocol: a home-based MSI over UDM messages.

Every region has a *home* node holding the directory and the
authoritative copy while no remote node owns the region exclusively.
The protocol moves data in fragments of at most :data:`FRAG_WORDS`
payload words per message (FUGU's direct messages are capped at 16
words), which is what produces the paper's characterization of CRL
traffic: "many low-latency request-reply packets mixed with fewer
larger data packets".

Protocol invariants (exercised by the property tests):

* at most one directory operation is in flight per region (queued
  otherwise), and at most one outstanding fetch per (node, region);
* a region EXCLUSIVE at node *o* has no other valid copies;
* coherence actions (invalidate, flush) against a region that is
  locally *in use* are deferred to the matching ``end_read`` /
  ``end_write`` — CRL's contract that data stays stable inside an
  operation;
* home-local accesses participate in the same serialization: a remote
  request conflicting with an in-use home copy waits for the home's
  ``end_*``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.udm import UdmRuntime
from repro.sim.events import Event
from repro.crl.region import (
    Directory, HomeState, NodeRegionState, Region, RegionState,
)

#: Payload words available for data per fragment: a 16-word message
#: minus header and handler words minus the four metadata words
#: (rid, seq, nfrags, grant/mode).
FRAG_WORDS = 10

_READ = "read"
_WRITE = "write"


class CrlProtocol:
    """Protocol engine shared by all nodes of one job.

    Shared Python state models each node's local memory plus the home
    directories; every cross-node interaction travels as UDM messages.
    """

    def __init__(self, num_nodes: int,
                 bulk_threshold: Optional[int] = None) -> None:
        self.num_nodes = num_nodes
        #: Region size (words) at or above which data moves as a single
        #: bulk (DMA) transfer instead of 16-word fragments. ``None``
        #: reproduces the paper's fragment-only configuration.
        self.bulk_threshold = bulk_threshold
        self.regions: Dict[int, Region] = {}
        self.home_data: Dict[int, List[Any]] = {}
        self.directory: Dict[int, Directory] = {}
        self._node_state: Dict[Tuple[int, int], NodeRegionState] = {}
        # In-flight flush reassembly at home: rid -> frags received.
        self._flush_frags: Dict[int, int] = {}
        # Stats
        self.protocol_messages = 0
        self.data_fragments = 0
        self.bulk_transfers = 0
        self.local_hits = 0
        self.remote_misses = 0

    def _use_bulk(self, data: List[Any]) -> bool:
        return (self.bulk_threshold is not None
                and len(data) >= self.bulk_threshold)

    # ------------------------------------------------------------------
    # Region setup
    # ------------------------------------------------------------------
    def create_region(self, rid: int, home: int, size_words: int,
                      init_data: Optional[List[Any]] = None) -> Region:
        if rid in self.regions:
            raise ValueError(f"region {rid} already exists")
        region = Region(rid, home, size_words)
        self.regions[rid] = region
        if init_data is None:
            init_data = [0] * size_words
        if len(init_data) != size_words:
            raise ValueError("initial data does not match region size")
        self.home_data[rid] = list(init_data)
        self.directory[rid] = Directory()
        return region

    def node_state(self, node: int, rid: int) -> NodeRegionState:
        key = (node, rid)
        state = self._node_state.get(key)
        if state is None:
            state = NodeRegionState()
            self._node_state[key] = state
        return state

    # ------------------------------------------------------------------
    # Data access (between start_* and end_*)
    # ------------------------------------------------------------------
    def local_copy(self, node: int, rid: int) -> List[Any]:
        """The node's valid copy of the region's data (mutable only
        inside a write operation)."""
        region = self.regions[rid]
        if node == region.home:
            ns = self.node_state(node, rid)
            if self.directory[rid].state is HomeState.EXCLUSIVE:
                raise RuntimeError(
                    f"home copy of region {rid} invalid (remote exclusive)"
                )
            return self.home_data[rid]
        ns = self.node_state(node, rid)
        if ns.state is RegionState.INVALID or ns.data is None:
            raise RuntimeError(
                f"node {node} has no valid copy of region {rid}"
            )
        return ns.data

    def authoritative_data(self, rid: int) -> List[Any]:
        """The globally authoritative copy: the exclusive owner's if one
        exists, the home copy otherwise. (Verification helper — real
        nodes access data only through mapped copies.)"""
        directory = self.directory[rid]
        if directory.state is HomeState.EXCLUSIVE and \
                directory.owner is not None:
            owner_copy = self.node_state(directory.owner, rid).data
            if owner_copy is not None:
                return owner_copy
        return self.home_data[rid]

    # ------------------------------------------------------------------
    # start / end operations (called from application main threads)
    # ------------------------------------------------------------------
    def start_read(self, rt: UdmRuntime, rid: int) -> Generator:
        yield from self._start(rt, rid, _READ)

    def start_write(self, rt: UdmRuntime, rid: int) -> Generator:
        yield from self._start(rt, rid, _WRITE)

    def _start(self, rt: UdmRuntime, rid: int, kind: str) -> Generator:
        node = rt.node_index
        region = self.regions[rid]
        ns = self.node_state(node, rid)
        yield 15  # rgn_start_* bookkeeping
        if node == region.home:
            yield from self._start_home(rt, rid, kind, ns)
        else:
            yield from self._start_remote(rt, rid, kind, ns, region)

    @staticmethod
    def _pin(ns: NodeRegionState, kind: str) -> None:
        """Pin a granted access. Must run synchronously with (in the
        same event-loop step as) the access decision, so no conflicting
        grant or invalidation can slip in between."""
        if kind is _READ:
            ns.read_refs += 1
        else:
            ns.write_refs += 1

    def _start_home(self, rt: UdmRuntime, rid: int, kind: str,
                    ns: NodeRegionState) -> Generator:
        directory = self.directory[rid]
        hit = (
            not directory.busy
            and (
                (kind is _READ and directory.state is not HomeState.EXCLUSIVE)
                or (kind is _WRITE and directory.state is HomeState.UNOWNED)
            )
        )
        if hit:
            self.local_hits += 1
            self._pin(ns, kind)
            yield 10
            return
        self.remote_misses += 1
        ns.fetch_done = Event(f"crl:home-fetch:{rid}")
        done = ns.fetch_done
        yield from self._home_submit(rt, rid, kind, rt.node_index)
        if not done.triggered:
            yield done
        ns.fetch_done = None

    def _start_remote(self, rt: UdmRuntime, rid: int, kind: str,
                      ns: NodeRegionState, region: Region) -> Generator:
        hit = (
            ns.state is RegionState.EXCLUSIVE
            or (kind is _READ and ns.state is RegionState.SHARED)
        )
        if hit and not ns.pending_invalidate and ns.pending_flush is None:
            self.local_hits += 1
            self._pin(ns, kind)
            yield 10
            return
        if ns.fetching:
            raise RuntimeError(
                f"node {rt.node_index} has concurrent CRL operations on "
                f"region {rid} (one outstanding miss per region allowed)"
            )
        self.remote_misses += 1
        ns.fetching = True
        ns.fetch_done = Event(f"crl:fetch:{rid}@{rt.node_index}")
        done = ns.fetch_done
        handler = self._h_read_req if kind is _READ else self._h_write_req
        self.protocol_messages += 1
        yield from rt.inject(region.home, handler, (rid, rt.node_index))
        if not done.triggered:
            yield done
        ns.fetching = False
        ns.fetch_done = None

    def end_read(self, rt: UdmRuntime, rid: int) -> Generator:
        yield from self._end(rt, rid, _READ)

    def end_write(self, rt: UdmRuntime, rid: int) -> Generator:
        yield from self._end(rt, rid, _WRITE)

    def _end(self, rt: UdmRuntime, rid: int, kind: str) -> Generator:
        node = rt.node_index
        ns = self.node_state(node, rid)
        yield 10
        if kind is _READ:
            if ns.read_refs <= 0:
                raise RuntimeError(f"end_read without start_read on {rid}")
            ns.read_refs -= 1
        else:
            if ns.write_refs <= 0:
                raise RuntimeError(f"end_write without start_write on {rid}")
            ns.write_refs -= 1
        if ns.in_use:
            return
        region = self.regions[rid]
        if node == region.home:
            yield from self._home_release_hook(rt, rid)
        else:
            yield from self._perform_deferred_actions(rt, rid, ns, region)

    # ------------------------------------------------------------------
    # Deferred coherence actions at a remote node
    # ------------------------------------------------------------------
    def _perform_deferred_actions(self, rt: UdmRuntime, rid: int,
                                  ns: NodeRegionState,
                                  region: Region) -> Generator:
        if ns.pending_flush is not None:
            mode = ns.pending_flush
            ns.pending_flush = None
            yield from self._flush_to_home(rt, rid, ns, region, mode)
        elif ns.pending_invalidate:
            ns.pending_invalidate = False
            ns.state = RegionState.INVALID
            ns.data = None
            self.protocol_messages += 1
            yield from rt.inject(region.home, self._h_inv_ack,
                                 (rid, rt.node_index))

    def _flush_to_home(self, rt: UdmRuntime, rid: int, ns: NodeRegionState,
                       region: Region, mode: str) -> Generator:
        """Send the (possibly dirty) copy back to the home node."""
        data = ns.data if ns.data is not None else []
        if self._use_bulk(data):
            self.bulk_transfers += 1
            yield from rt.bulk_inject(
                region.home, self._h_flush_data,
                (rid, 0, 1, mode, *data),
            )
        else:
            nfrags = max(1, (len(data) + FRAG_WORDS - 1) // FRAG_WORDS)
            for seq in range(nfrags):
                chunk = data[seq * FRAG_WORDS:(seq + 1) * FRAG_WORDS]
                self.data_fragments += 1
                yield from rt.inject(
                    region.home, self._h_flush_data,
                    (rid, seq, nfrags, mode, *chunk),
                )
        if mode == "invalidate":
            ns.state = RegionState.INVALID
            ns.data = None
        else:
            ns.state = RegionState.SHARED

    # ==================================================================
    # Home-side directory machine
    # ==================================================================
    def _home_submit(self, rt: UdmRuntime, rid: int, kind: str,
                     requester: int) -> Generator:
        directory = self.directory[rid]
        if directory.busy:
            directory.pending.append((kind, requester))
            return
        yield from self._home_process(rt, rid, kind, requester)

    def _home_process(self, rt: UdmRuntime, rid: int, kind: str,
                      requester: int) -> Generator:
        directory = self.directory[rid]
        directory.busy = True
        directory.current = (kind, requester)
        yield 20  # directory lookup and state transition
        yield from self._home_continue(rt, rid)

    def _home_continue(self, rt: UdmRuntime, rid: int) -> Generator:
        """Drive the directory operation(s) as far as possible.

        Woken by the flush-data, inv-ack and home-release handlers. An
        advance can block for many cycles while it sends invalidations
        or data fragments, and further wakeups can arrive meanwhile —
        they must not advance the same operation concurrently (a double
        grant double-pins the requester). The ``advancing`` guard
        serializes: concurrent wakeups set ``recheck`` and return, and
        the running advance loops until no wakeup is pending.
        """
        directory = self.directory[rid]
        if directory.advancing:
            directory.recheck = True
            return
        directory.advancing = True
        try:
            while True:
                directory.recheck = False
                yield from self._home_advance(rt, rid)
                if not directory.recheck:
                    return
        finally:
            directory.advancing = False

    def _home_advance(self, rt: UdmRuntime, rid: int) -> Generator:
        """One serialized attempt to advance the current operation."""
        directory = self.directory[rid]
        if not directory.busy or directory.current is None:
            return
        if directory.inv_acks_needed:
            # Step 2 below is still collecting invalidation acks. A home
            # release must not grant early: the sharers still hold
            # copies, and their late acks would re-advance the *next*
            # operation (a duplicate flush that drops the owner from
            # the sharer set, so a later upgrade writes a stale copy).
            return  # resumes in _h_inv_ack
        region = self.regions[rid]
        kind, requester = directory.current
        home_local = self.node_state(region.home, rid)

        # 1. Fetch the data back from a remote exclusive owner.
        if directory.state is HomeState.EXCLUSIVE:
            if directory.owner == requester:
                # Requester already owns it (a queued stale request).
                yield from self._home_grant(rt, rid, kind, requester)
                return
            mode = "share" if kind is _READ else "invalidate"
            owner = directory.owner
            owner_ns = self.node_state(owner, rid)
            self.protocol_messages += 1
            yield from rt.inject(owner, self._h_flush_req, (rid, mode))
            return  # resumes in _h_flush_data

        # 2. A write must invalidate every other sharer.
        if kind is _WRITE and directory.state is HomeState.SHARED:
            targets = directory.sharers - {requester}
            if targets:
                directory.inv_acks_needed = len(targets)
                for sharer in sorted(targets):
                    self.protocol_messages += 1
                    yield from rt.inject(sharer, self._h_inv, (rid,))
                directory.sharers = {requester} & directory.sharers
                return  # resumes in _h_inv_ack
            directory.sharers -= {s for s in directory.sharers
                                  if s != requester}

        # 3. A conflicting in-use home copy defers remote requests.
        if requester != region.home:
            conflict = (
                (kind is _WRITE and home_local.in_use)
                or (kind is _READ and home_local.write_refs > 0)
            )
            if conflict:
                return  # resumes in _home_release_hook

        yield from self._home_grant(rt, rid, kind, requester)

    def _home_grant(self, rt: UdmRuntime, rid: int, kind: str,
                    requester: int) -> Generator:
        directory = self.directory[rid]
        region = self.regions[rid]
        if requester == region.home:
            # Home's own access: the home copy is now authoritative.
            if kind is _READ:
                if directory.state is HomeState.EXCLUSIVE:
                    raise AssertionError("grant read at home while exclusive")
                if directory.state is HomeState.UNOWNED:
                    directory.state = HomeState.UNOWNED
            else:
                directory.state = HomeState.UNOWNED
                directory.sharers.clear()
                directory.owner = None
            home_ns = self.node_state(region.home, rid)
            self._pin(home_ns, kind)
            if home_ns.fetch_done is not None and \
                    not home_ns.fetch_done.triggered:
                home_ns.fetch_done.trigger()
        elif kind is _READ:
            directory.state = HomeState.SHARED
            directory.sharers.add(requester)
            yield from self._send_data(rt, rid, requester,
                                       grant=RegionState.SHARED)
        else:
            requester_ns = self.node_state(requester, rid)
            had_copy = requester_ns.state is RegionState.SHARED
            directory.state = HomeState.EXCLUSIVE
            directory.owner = requester
            directory.sharers.clear()
            if had_copy:
                # Upgrade: the shared copy is valid; no data transfer.
                self.protocol_messages += 1
                yield from rt.inject(requester, self._h_upgrade, (rid,))
            else:
                yield from self._send_data(rt, rid, requester,
                                           grant=RegionState.EXCLUSIVE)
        yield from self._home_finish_op(rt, rid)

    def _home_finish_op(self, rt: UdmRuntime, rid: int) -> Generator:
        directory = self.directory[rid]
        directory.busy = False
        directory.current = None
        if directory.pending:
            kind, requester = directory.pending.pop(0)
            yield from self._home_process(rt, rid, kind, requester)

    def _send_data(self, rt: UdmRuntime, rid: int, requester: int,
                   grant: RegionState) -> Generator:
        data = self.home_data[rid]
        grant_flag = 1 if grant is RegionState.EXCLUSIVE else 0
        if self._use_bulk(data):
            self.bulk_transfers += 1
            yield from rt.bulk_inject(
                requester, self._h_data,
                (rid, 0, 1, grant_flag, *data),
            )
            return
        nfrags = max(1, (len(data) + FRAG_WORDS - 1) // FRAG_WORDS)
        for seq in range(nfrags):
            chunk = data[seq * FRAG_WORDS:(seq + 1) * FRAG_WORDS]
            self.data_fragments += 1
            yield from rt.inject(
                requester, self._h_data,
                (rid, seq, nfrags, grant_flag, *chunk),
            )

    def _home_release_hook(self, rt: UdmRuntime, rid: int) -> Generator:
        """Called at the home's end_* — resume a deferred remote op."""
        directory = self.directory[rid]
        if directory.busy and directory.current is not None:
            yield from self._home_continue(rt, rid)

    # ==================================================================
    # Message handlers (run at whichever node receives them)
    # ==================================================================
    def _h_read_req(self, rt: UdmRuntime, msg) -> Generator:
        rid, requester = msg.payload
        yield from rt.dispose_current()
        yield 100
        yield from self._home_submit(rt, rid, _READ, requester)

    def _h_write_req(self, rt: UdmRuntime, msg) -> Generator:
        rid, requester = msg.payload
        yield from rt.dispose_current()
        yield 100
        yield from self._home_submit(rt, rid, _WRITE, requester)

    def _h_inv(self, rt: UdmRuntime, msg) -> Generator:
        (rid,) = msg.payload
        yield from rt.dispose_current()
        yield 60
        node = rt.node_index
        ns = self.node_state(node, rid)
        region = self.regions[rid]
        if ns.in_use:
            ns.pending_invalidate = True
            return
        ns.state = RegionState.INVALID
        ns.data = None
        self.protocol_messages += 1
        yield from rt.inject(region.home, self._h_inv_ack, (rid, node))

    def _h_inv_ack(self, rt: UdmRuntime, msg) -> Generator:
        rid, from_node = msg.payload
        yield from rt.dispose_current()
        yield 40
        directory = self.directory[rid]
        directory.sharers.discard(from_node)
        directory.inv_acks_needed -= 1
        if directory.inv_acks_needed == 0 and directory.busy:
            yield from self._home_continue(rt, rid)

    def _h_flush_req(self, rt: UdmRuntime, msg) -> Generator:
        rid, mode = msg.payload
        yield from rt.dispose_current()
        yield 60
        node = rt.node_index
        ns = self.node_state(node, rid)
        region = self.regions[rid]
        if ns.in_use:
            ns.pending_flush = mode
            return
        yield from self._flush_to_home(rt, rid, ns, region, mode)

    def _h_flush_data(self, rt: UdmRuntime, msg) -> Generator:
        rid, seq, nfrags, mode = msg.payload[:4]
        chunk = msg.payload[4:]
        yield from rt.dispose_current()
        yield 80
        data = self.home_data[rid]
        base = seq * FRAG_WORDS
        data[base:base + len(chunk)] = chunk
        received = self._flush_frags.get(rid, 0) + 1
        if received < nfrags:
            self._flush_frags[rid] = received
            return
        self._flush_frags.pop(rid, None)
        directory = self.directory[rid]
        old_owner = directory.owner
        directory.owner = None
        if mode == "share":
            directory.state = HomeState.SHARED
            directory.sharers = {old_owner} if old_owner is not None else set()
        else:
            directory.state = HomeState.UNOWNED
            directory.sharers = set()
        if directory.busy:
            yield from self._home_continue(rt, rid)

    def _h_data(self, rt: UdmRuntime, msg) -> Generator:
        rid, seq, nfrags, grant_flag = msg.payload[:4]
        chunk = msg.payload[4:]
        yield from rt.dispose_current()
        yield 80
        node = rt.node_index
        ns = self.node_state(node, rid)
        region = self.regions[rid]
        if ns.data is None or len(ns.data) != region.size_words:
            ns.data = [0] * region.size_words
            ns.frags_received = 0
        base = seq * FRAG_WORDS
        ns.data[base:base + len(chunk)] = chunk
        ns.frags_received += 1
        if ns.frags_received < nfrags:
            return
        ns.frags_received = 0
        ns.state = (RegionState.EXCLUSIVE if grant_flag
                    else RegionState.SHARED)
        # Pin the granted access here, synchronously with the state
        # change: an invalidation arriving before the requesting thread
        # resumes must see the region in use and defer.
        self._pin(ns, _WRITE if grant_flag else _READ)
        if ns.fetch_done is not None and not ns.fetch_done.triggered:
            ns.fetch_done.trigger()

    def _h_upgrade(self, rt: UdmRuntime, msg) -> Generator:
        (rid,) = msg.payload
        yield from rt.dispose_current()
        yield 40
        ns = self.node_state(rt.node_index, rid)
        ns.state = RegionState.EXCLUSIVE
        self._pin(ns, _WRITE)
        if ns.fetch_done is not None and not ns.fetch_done.triggered:
            ns.fetch_done.trigger()
