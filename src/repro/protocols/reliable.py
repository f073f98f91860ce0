"""Exactly-once, in-order messaging over an unreliable fabric.

The base UDM fabric is reliable and FIFO, so applications on it need no
sequencing. Fault injection
(:mod:`repro.faults`) breaks that assumption: messages may be dropped,
duplicated or reordered. :class:`ReliableTransport` restores
exactly-once, per-(src, dst) in-order delivery on top of the lossy
fabric with the classic machinery:

* **sequence numbers** per (src, dst) pair;
* **acknowledgements** per received sequence number (acked even for
  duplicates, so a lost ack cannot retry forever);
* **timeout + exponential backoff** retransmission with a bounded
  retry budget — a send whose budget exhausts is recorded in
  ``gave_up`` (a *planned, bounded* loss the invariant checker treats
  as allowed);
* **duplicate suppression and resequencing** at the receiver: early
  arrivals are stashed and released in order, repeats are counted and
  discarded.

Retransmissions and acks are modelled as NI-autonomous: they are built
directly as :class:`~repro.network.message.Message` objects and handed
to the fabric from engine callbacks (like the DMA engine, they cost no
application processor cycles; the *handlers* on the receiving side pay
normal UDM reception costs). Control traffic therefore flows through
the same faulty fabric — acks can be lost too, which the
dup-ack path absorbs.

The per-pair ledgers (``sent``, ``delivered_log``, ``gave_up``) are
the machine-checkable ground truth the
:class:`~repro.faults.checker.DeliveryInvariantChecker` reconciles.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.core import costs
from repro.core.udm import UdmRuntime
from repro.network.message import Message


class _Outstanding:
    """Sender-side state for one unacknowledged sequence number."""

    __slots__ = ("payload", "attempts", "entry", "acked", "gid")

    def __init__(self, payload: Tuple[Any, ...], gid: int) -> None:
        self.payload = payload
        self.attempts = 0
        self.entry = None          # scheduled retry (cancellable)
        self.acked = False
        self.gid = gid


class ReliableTransport:
    """One job's reliable messaging endpoint set (all nodes).

    ``deliver`` is the upper layer's callback, invoked **in sequence
    order, exactly once** per message as ``deliver(rt, src, payload)``;
    it may be a plain function or a generator function (it runs inside
    the receiving handler coroutine, so it may yield cycles or perform
    nested sends). When no callback is bound, payloads land in
    ``inbox[node]`` as ``(src, payload)`` pairs.

    With ``retries=False`` the transport still stamps and logs sequence
    numbers but sends fire-and-forget — the negative-control mode that
    lets the invariant checker *observe* planned fabric losses.
    """

    def __init__(self, num_nodes: int, *, retry_timeout: int = 4_000,
                 max_retries: int = 20, retries: bool = True,
                 ack_overhead: int = 6, deliver_overhead: int = 12,
                 deliver: Optional[Callable] = None) -> None:
        if retry_timeout <= 0:
            raise ValueError("retry timeout must be positive")
        if max_retries < 0:
            raise ValueError("retry budget cannot be negative")
        self.num_nodes = num_nodes
        self.retry_timeout = retry_timeout
        self.max_retries = max_retries
        self.retries = retries
        self.ack_overhead = ack_overhead
        self.deliver_overhead = deliver_overhead
        self.deliver = deliver
        self.inbox: Dict[int, List[Tuple[int, Tuple[Any, ...]]]] = {
            n: [] for n in range(num_nodes)
        }
        # -- sender side ------------------------------------------------
        self._next_seq: Dict[Tuple[int, int], int] = {}
        self._outstanding: Dict[Tuple[int, int, int], _Outstanding] = {}
        #: (src, dst, seq) sends whose retry budget exhausted.
        self.gave_up: Set[Tuple[int, int, int]] = set()
        # -- receiver side ----------------------------------------------
        self._expect: Dict[Tuple[int, int], int] = {}
        self._stash: Dict[Tuple[int, int], Dict[int, Tuple]] = {}
        #: (src, dst) -> delivered seqs, in application delivery order.
        self.delivered_log: Dict[Tuple[int, int], List[int]] = {}
        # -- counters ---------------------------------------------------
        self.sends = 0
        self.retransmissions = 0
        self.acks_sent = 0
        self.duplicates_suppressed = 0
        self._machine = None

    def bind(self, deliver: Callable) -> None:
        """Attach (or replace) the upper layer's delivery callback."""
        self.deliver = deliver

    # ------------------------------------------------------------------
    # Ledger queries (checker interface)
    # ------------------------------------------------------------------
    def sent_count(self, src: int, dst: int) -> int:
        return self._next_seq.get((src, dst), 0)

    def pairs_used(self) -> List[Tuple[int, int]]:
        return sorted(self._next_seq)

    def stashed_count(self) -> int:
        """Messages held for resequencing (resident, not lost)."""
        return sum(len(stash) for stash in self._stash.values())

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, rt: UdmRuntime, dst: int,
             payload: Tuple[Any, ...] = ()) -> Generator:
        """Reliable send; returns once the first copy is injected.

        Delivery (and any retransmission) completes asynchronously;
        the pair's FIFO order is the order of ``send`` calls.
        """
        if rt.machine is not self._machine:
            self._machine = rt.machine
            # Register once per machine so end-of-run metric collection
            # (RunMetrics.retries, the obs transport counters) can sum
            # this transport's ledgers.
            rt.machine.register_transport(self)
        src = rt.node_index
        pair = (src, dst)
        seq = self._next_seq.get(pair, 0)
        self._next_seq[pair] = seq + 1
        self.sends += 1
        out = _Outstanding(tuple(payload), rt.job.gid)
        key = (src, dst, seq)
        if self.retries:
            self._outstanding[key] = out
        yield from rt.inject(dst, self._h_data, (src, seq, *payload))
        if self.retries:
            out.attempts = 1
            out.entry = rt.machine.engine.call_after(
                self.retry_timeout, self._retry, key
            )

    def _retry(self, key: Tuple[int, int, int]) -> None:
        out = self._outstanding.get(key)
        if out is None or out.acked:
            return
        src, dst, seq = key
        if out.attempts > self.max_retries:
            # Budget exhausted: a planned, bounded loss. The receiver
            # will never resequence past this gap.
            self.gave_up.add(key)
            del self._outstanding[key]
            return
        engine = self._machine.engine
        fabric = self._machine.fabric
        if fabric.has_credit(dst):
            message = Message(dst=dst, handler=self._h_data,
                              payload=(src, seq, *out.payload),
                              src=src, gid=out.gid)
            fabric.send(message)
            self.retransmissions += 1
            out.attempts += 1
        # Exponential backoff (whether we sent or found no credit),
        # clamped to the shared transport cap so a non-default timeout
        # cannot blow past the atomicity window.
        delay = min(
            self.retry_timeout
            << min(out.attempts, costs.TRANSPORT_BACKOFF_DOUBLINGS),
            costs.transport_backoff_cap(self.retry_timeout),
        )
        out.entry = engine.call_after(delay, self._retry, key)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _h_data(self, rt: UdmRuntime, msg) -> Generator:
        src, seq = msg.payload[:2]
        data = msg.payload[2:]
        yield from rt.dispose_current()
        yield self.deliver_overhead
        node = rt.node_index
        if self.retries:
            # Ack every copy — a duplicate usually means our previous
            # ack was lost, and the sender must stop retrying.
            self._send_ack(rt.machine, node, src, seq, rt.job.gid)
        pair = (src, node)
        expect = self._expect.get(pair, 0)
        stash = self._stash.setdefault(pair, {})
        if seq < expect or seq in stash:
            self.duplicates_suppressed += 1
            return
        stash[seq] = data
        log = self.delivered_log.setdefault(pair, [])
        while expect in stash:
            ready = stash.pop(expect)
            log.append(expect)
            self._expect[pair] = expect + 1
            yield from self._hand_up(rt, src, ready)
            expect += 1

    def _hand_up(self, rt: UdmRuntime, src: int,
                 payload: Tuple[Any, ...]) -> Generator:
        callback = self.deliver
        if callback is None:
            self.inbox[rt.node_index].append((src, payload))
            return
        result = callback(rt, src, payload)
        if result is not None and hasattr(result, "__next__"):
            yield from result

    def _send_ack(self, machine, node: int, src: int, seq: int,
                  gid: int) -> None:
        # Acks travel with the job's GID so they demultiplex to the
        # same job on the peer node.
        self.acks_sent += 1
        message = Message(dst=src, handler=self._h_ack,
                          payload=(node, seq), src=node, gid=gid)
        self._raw_send(machine, message)

    def _raw_send(self, machine, message: Message,
                  backoff: int = 64, cap: Optional[int] = None) -> None:
        """NI-autonomous injection: wait for credit from the event loop.

        The credit-wait backoff doubles under the same named cap as the
        retransmission timer (``transport_backoff_cap`` of the initial
        backoff), so neither path can outgrow the other's ceiling.
        """
        fabric = machine.fabric
        if fabric.has_credit(message.dst):
            fabric.send(message)
            return
        if cap is None:
            cap = costs.transport_backoff_cap(backoff)
        machine.engine.call_after(
            backoff, self._raw_send_boxed,
            (machine, message, min(backoff * 2, cap), cap),
        )

    def _raw_send_boxed(self, boxed) -> None:
        self._raw_send(boxed[0], boxed[1], boxed[2], boxed[3])

    def _h_ack(self, rt: UdmRuntime, msg) -> Generator:
        acker, seq = msg.payload
        yield from rt.dispose_current()
        yield self.ack_overhead
        key = (rt.node_index, acker, seq)
        out = self._outstanding.pop(key, None)
        if out is None:
            # Duplicate ack — or an ack landing *after* the retry
            # budget exhausted. The latter means a copy was delivered
            # after all (it sat in the receiver's software buffer
            # longer than the whole retry schedule), so the loss
            # ledger must be repaired: an acknowledged message is not
            # a loss, and the invariant checker would otherwise see
            # it in both gave_up and the delivered log.
            self.gave_up.discard(key)
            return
        out.acked = True
        if out.entry is not None:
            out.entry.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReliableTransport sends={self.sends} "
            f"retx={self.retransmissions} "
            f"dups={self.duplicates_suppressed} "
            f"gave_up={len(self.gave_up)}>"
        )


__all__ = ["ReliableTransport"]
