"""The UDM runtime: the public messaging API applications program against.

One :class:`UdmRuntime` exists per (job, node). It implements the
Section 3 model — ``inject``/``injectc``, ``extract`` (split into window
reads plus ``dispose``, as in the hardware), ``peek``, the
message-available flag, and ``beginatom``/``endatom`` — and keeps the
two delivery cases *transparent*: the same application code runs
unchanged whether messages come from the NI hardware or from the
software buffer (Section 4.3).

All blocking operations are generator functions used with ``yield
from`` inside application coroutines; plain (non-generator) methods are
side-effect-free register reads.

Message handlers are generator functions ``handler(rt, msg)``; each
handler **must** free its message with ``yield from
rt.dispose_current()`` before returning (the UDM discipline; violations
surface as the hardware's dispose-failure trap).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Tuple

from repro.core.two_case import DeliveryMode
from repro.machine.processor import Frame
from repro.network.message import Message
from repro.sim.events import Event
from repro.ni.traps import Trap, TrapSignal
from repro.ni.uac import INTERRUPT_DISABLE

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.glaze.jobs import Job, JobNodeState
    from repro.machine.machine import Machine
    from repro.machine.node import Node


class UdmRuntime:
    """Per-node user runtime for one job."""

    def __init__(self, machine: "Machine", job: "Job", node: "Node") -> None:
        self.machine = machine
        self.engine = machine.engine
        self.job = job
        self.node = node
        self.ni = node.ni
        self.kernel = node.kernel
        self.costs = machine.costs
        self.state: "JobNodeState" = job.node_states[node.node_id]
        self.node_index = node.node_id
        self.num_nodes = machine.config.num_nodes
        self._upcall_name = f"upcall:{job.name}@{node.node_id}"
        # Handler bookkeeping.
        self._dispose_done = True
        self.sends = 0
        self.receives = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def inject(self, dst: int, handler: Any,
               payload: Tuple[Any, ...] = ()) -> Generator:
        """Blocking inject: describe, wait for network space, launch.

        The space check repeats after the describe cycles because
        another sender (an upcall on this node, or a remote node) can
        claim the last slot toward ``dst`` meanwhile — the hardware
        equivalent is the store into the output buffer blocking.
        """
        payload = tuple(payload)
        fabric = self.machine.fabric
        while True:
            while not fabric.has_credit(dst):
                yield fabric.credit_event(dst)
            yield self.costs.send_cost(len(payload))
            if fabric.has_credit(dst):
                break
        self._launch(dst, handler, payload)

    def injectc(self, dst: int, handler: Any,
                payload: Tuple[Any, ...] = ()) -> Generator:
        """Conditional (non-blocking) inject; returns False if the
        network cannot accept the message right now."""
        payload = tuple(payload)
        if not self.machine.fabric.has_credit(dst):
            yield 1  # the space-available register read
            return False
        yield self.costs.send_cost(len(payload))
        self._launch(dst, handler, payload)
        return True

    def bulk_inject(self, dst: int, handler: Any,
                    payload: Tuple[Any, ...]) -> Generator:
        """Send a bulk (user-level DMA) transfer.

        For payloads beyond the 16-word direct-message limit: the
        processor pays only the descriptor setup; the DMA engine
        serializes the data out of memory (the inject blocks until the
        source-side DMA completes, modelling the engine's occupancy),
        and the receiver's handler finds the whole payload in one
        message without per-word processor cost.
        """
        payload = tuple(payload)
        fabric = self.machine.fabric
        yield self.costs.bulk.setup
        while True:
            while not fabric.has_credit(dst):
                yield fabric.credit_event(dst)
            if fabric.has_credit(dst):
                break
        # Source-side DMA: the engine reads the payload from memory.
        done = Event(f"bulk-dma@{self.node_index}")
        self.node.dma.transfer(len(payload), on_done=done.trigger)
        if not done.triggered:
            yield done
        self.ni.launch_bulk(dst, handler, payload, privileged=False)
        self.sends += 1
        self.job.stats.messages_sent += 1

    def _launch(self, dst: int, handler: Any,
                payload: Tuple[Any, ...]) -> None:
        self.ni.describe(dst, handler, payload)
        self.ni.launch(privileged=False)
        self.sends += 1
        self.job.stats.messages_sent += 1

    def _trace_handled(self, message: Optional[Message],
                       detail: str) -> None:
        tracer = self.machine.tracer
        if tracer is not None and message is not None:
            from repro.analysis.trace import TraceEvent

            tracer.record(self.engine.now, TraceEvent.HANDLED,
                          message.msg_id, self.node_index, detail)

    # ------------------------------------------------------------------
    # Receiving: flag, peek, window, dispose
    # ------------------------------------------------------------------
    def message_available(self) -> bool:
        """The (virtualized) message-available flag."""
        if self.state.mode is DeliveryMode.BUFFERED:
            return not self.state.buffer.empty
        return self.ni.message_available

    def peek(self) -> Optional[Message]:
        """Examine the next message without freeing it."""
        if self.state.mode is DeliveryMode.BUFFERED:
            return self.state.buffer.head
        return self.ni.peek()

    def current_message(self) -> Optional[Message]:
        """The message in the (virtualized) input window."""
        return self.peek()

    def dispose_current(self) -> Generator:
        """Free the message in the input window (the dispose half of
        ``extract``). Transparent across delivery modes."""
        self._dispose_done = True
        self.receives += 1
        try:
            message = self.ni.dispose(privileged=False)
            self.job.two_case.fast_messages += 1
            if self.machine.tracer is not None:
                self._trace_handled(message, "fast path")
            yield 1
        except TrapSignal as signal:
            if signal.trap is Trap.DISPOSE_EXTEND:
                yield from self._emulated_dispose()
            else:
                yield from self.kernel.service_trap(signal, self.state)

    def _emulated_dispose(self) -> Generator:
        """Buffered-mode dispose: pop the software buffer.

        Charges the Table 5 extraction cost minus the handler-body
        cycles the application's handler charges itself, so a buffered
        null message costs insert(180) + extract(52) = 232 total.
        """
        buffer = self.state.buffer
        if buffer.empty:
            raise TrapSignal(Trap.BAD_DISPOSE,
                             {"reason": "buffered dispose, empty buffer"})
        message = buffer.pop()
        self.ni.set_kernel_uac(dispose_pending=False)
        # The Table 5 extraction cost covers dispatch-from-DRAM plus the
        # dispose emulation; the handler body charges its own cycles
        # (null handler: 4 body + 1 dispose = 5), so subtract the body
        # and keep the dispose cycle: 47 + 1 + 4 = 52 for a null message.
        # Bulk payloads were deposited by DMA: no per-word charge.
        if message.bulk:
            cost = (self.costs.buffered.extract_cost(0)
                    + self.costs.bulk.completion)
        else:
            cost = self.costs.buffered.extract_cost(message.payload_words)
        cost = max(1, cost - self.costs.fast.null_handler + 1)
        self._trace_handled(message, "buffered path")
        yield cost

    def extract(self) -> Generator:
        """Atomic read-and-free of the next message (Section 3's
        ``extract``). It is an error when no message is available."""
        message = self.peek()
        if message is None:
            raise TrapSignal(Trap.BAD_DISPOSE,
                             {"reason": "extract with no message"})
        yield from self.dispose_current()
        return message

    # ------------------------------------------------------------------
    # Atomicity
    # ------------------------------------------------------------------
    def beginatom(self, mask: int = INTERRUPT_DISABLE) -> Generator:
        yield 1
        self.ni.beginatom(mask)

    def endatom(self, mask: int = INTERRUPT_DISABLE) -> Generator:
        yield 1
        try:
            self.ni.endatom(mask)
        except TrapSignal as signal:
            yield from self.kernel.service_trap(signal, self.state,
                                                endatom_mask=mask)

    @property
    def in_atomic_section(self) -> bool:
        return self.ni.uac.interrupt_disable

    # ------------------------------------------------------------------
    # Polling reception
    # ------------------------------------------------------------------
    def poll_extract(self) -> Generator:
        """One polling-loop iteration: check the flag, and if a message
        is present, read and free it. Returns the message or None.

        Callers should be inside an atomic section, as polling loops
        are in the UDM discipline. Costs follow Table 4's polling rows
        in fast mode and Table 5's extraction in buffered mode.
        """
        yield self.costs.fast.poll_check
        message = self.peek()
        if message is None:
            yield from self.maybe_exit_buffered()
            return None
        if self.state.mode is DeliveryMode.BUFFERED:
            self._dispose_done = True
            self.receives += 1
            yield from self._emulated_dispose()
            yield from self.maybe_exit_buffered()
        else:
            per_word = (self.costs.bulk.completion if message.bulk
                        else self.costs.receive_handler_extra(
                            message.payload_words))
            yield self.costs.fast.poll_dispatch + per_word
            yield from self.dispose_current()
        return message

    def wait_message(self, poll_interval: int = 10) -> Generator:
        """Poll until a message is available; returns the peeked message.

        The caller still extracts it. Must hold atomicity, or the
        message will be stolen by the interrupt path.
        """
        # Not a Spin: fabric callbacks fill the NI queue with no frame
        # running here, so the poll must wake every interval.
        while True:
            yield self.costs.fast.poll_check
            message = self.peek()
            if message is not None:
                return message
            yield poll_interval

    def maybe_exit_buffered(self) -> Generator:
        """Leave buffered mode if this job drained its buffer.

        Polling applications call this (it is folded into
        ``poll_extract`` callers' loops via the runtime in
        :meth:`drain_loop` for interrupt-driven ones).
        """
        if (
            self.state.mode is DeliveryMode.BUFFERED
            and self.state.buffer.empty
            and self.state.installed
        ):
            yield from self.kernel.exit_buffered_syscall(self.state)

    # ------------------------------------------------------------------
    # Interrupt (upcall) reception
    # ------------------------------------------------------------------
    def raise_upcall(self) -> None:
        """NI hook: a matching message wants a user-level interrupt."""
        self.node.processor.raise_user_upcall(self._upcall_factory)

    def _upcall_factory(self) -> Optional[Frame]:
        ni = self.ni
        if (
            not self.state.installed
            or self.state.mode is not DeliveryMode.FAST
            or not ni.message_available
            or ni.uac.interrupt_disable
        ):
            # Condition evaporated between raise and delivery.
            ni.upcall_complete()
            return None
        return Frame(
            self._upcall_gen(),
            name=self._upcall_name,
            kernel=False,
            job_gid=self.job.gid,
        )

    def _upcall_gen(self) -> Generator:
        """The message-available user interrupt sequence (Figure 2)."""
        ni = self.ni
        costs = self.costs
        # The OS stub marks the pending dispose and enters the handler's
        # atomic section before user code runs.
        start = self.engine.now
        ni.set_kernel_uac(dispose_pending=True)
        ni.beginatom(INTERRUPT_DISABLE)
        yield costs.fast.receive_entry
        injector = self.machine.fault_injector
        if injector is not None and \
                injector.handler_page_fault(self.node_index):
            # Synthetic page-fault storm: the handler faults before it
            # runs; the kernel flips this job to buffered mode and the
            # message is diverted (one of the Section 4.3 triggers).
            yield from self.page_fault()
        message = ni.head
        handled = False
        if message is not None and ni.message_available:
            if message.bulk:
                # DMA deposited the payload: fixed completion handling.
                yield costs.bulk.completion
            else:
                yield costs.receive_handler_extra(len(message.payload))
            self._dispose_done = False
            yield from message.handler(self, message)
            handled = True
        else:
            # The message was diverted (revocation) before the handler
            # started; the drain thread will run it from the buffer.
            ni.set_kernel_uac(dispose_pending=False)
            self._dispose_done = True
        yield costs.fast.receive_exit
        # The cleanup's endatom is already costed inside receive_exit
        # (the Table 4 "upcall cleanup"/"timer cleanup" categories), so
        # execute the operation without the user-level instruction charge.
        try:
            ni.endatom(INTERRUPT_DISABLE)
        except TrapSignal as signal:
            yield from self.kernel.service_trap(
                signal, self.state, endatom_mask=INTERRUPT_DISABLE
            )
        if handled:
            # T_hand accounting covers the whole reception (entry,
            # handler body, cleanup), matching the paper's "cycles
            # spent per handler".
            self.job.stats.handler_invocations += 1
            self.job.stats.handler_cycles += self.engine.now - start
        ni.upcall_complete()

    # ------------------------------------------------------------------
    # Buffered-mode drain thread (created by the kernel)
    # ------------------------------------------------------------------
    def drain_loop(self) -> Generator:
        """The high-priority message-handling thread of buffered mode.

        Runs handlers for every buffered message in order; when the
        buffer drains it exits buffered mode and terminates. New
        messages diverted while it runs simply extend its work list.
        """
        state = self.state
        while True:
            while state.mode is DeliveryMode.BUFFERED and \
                    not state.buffer.empty:
                message = state.buffer.head
                self._dispose_done = False
                start = self.engine.now
                injector = self.machine.fault_injector
                if injector is not None and \
                        injector.handler_page_fault(self.node_index):
                    # Storm hits the drain thread too; already
                    # buffered, so this only costs the fault service.
                    yield from self.page_fault()
                yield from message.handler(self, message)
                if not self._dispose_done:
                    raise TrapSignal(Trap.DISPOSE_FAILURE,
                                     {"handler": message.handler})
                self.job.stats.handler_invocations += 1
                self.job.stats.handler_cycles += self.engine.now - start
            if state.mode is not DeliveryMode.BUFFERED:
                return
            exited = yield from self.kernel.exit_buffered_syscall(state)
            if exited:
                return
            if state.buffer.empty:
                # The exit was refused with nothing left to drain (the
                # always-buffered ablation): terminate; the kernel
                # respawns a drain thread when messages arrive.
                return

    # ------------------------------------------------------------------
    # Faults and helpers
    # ------------------------------------------------------------------
    def page_fault(self) -> Generator:
        """Simulate a page fault in the executing user code (handlers
        included) — one of the Section 4.3 buffered-mode triggers."""
        yield from self.kernel.service_trap(
            TrapSignal(Trap.PAGE_FAULT), self.state
        )

    def force_buffered_mode(self) -> Generator:
        """Explicitly enter buffered mode (experiment hook).

        Used by the Table 5 microbenchmark ("a microbenchmark that
        causes many messages to be buffered") and by fault-injection
        tests; production transitions happen through the kernel.
        """
        from repro.core.two_case import TransitionReason

        yield 1
        self.kernel.enter_buffered_mode(self.state,
                                        TransitionReason.EXPLICIT)

    def compute(self, cycles: int) -> Generator:
        """Consume processor cycles (modelled application work)."""
        yield cycles

    def finish_main(self, _result: Any = None) -> None:
        """Mark this node's main thread complete: the main frame's
        ``on_done``, called when the application generator returns."""
        self.job.note_node_main_finished(self.node.node_id, self.engine.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UdmRuntime {self.job.name}@{self.node.node_id}>"
