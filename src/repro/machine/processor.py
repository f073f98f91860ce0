"""The node processor: preemptible execution of generator frames.

Execution model
---------------

A :class:`Frame` wraps a generator coroutine. Frames yield:

* an ``int`` of cycles — consume that much processor time (``0``
  continues at once; a negative count raises ``ValueError``; ``bool``
  and ``float`` are not cycle counts). The delay is *interruptible*: a
  frame pushed on top (an interrupt or upcall handler) suspends the
  remaining cycles, which resume when the frame is again on top of the
  stack.
* :class:`Spin` — poll a predicate every N cycles. ``Spin(n, done)``
  means exactly ``while not done(): yield n``, but the
  processor *parks* the frame on one wake many chunks ahead instead of
  waking it every chunk (see "Parked spins" below).
* :class:`~repro.sim.events.Event` — block until the event triggers. The
  frame stays subscribed across preemptions and context switches; the
  value is kept until the frame is next runnable on top.

The stack invariant mirrors hardware privilege: **kernel frames always
form a contiguous segment at the top of the stack**. User frames (the
scheduled job's thread, user-level upcalls, the buffered-mode drain
thread) sit below. Kernel interrupts may preempt user frames at any
cycle; while a kernel frame runs, further kernel interrupts queue and
user-level notifications are deferred (the NI re-evaluates its interrupt
conditions when control returns to user level, via the
``on_return_to_user`` hook).

Context switching is expressed with :meth:`Processor.capture_user_frames`
/ :meth:`Processor.install_user_frames`: the gang scheduler's kernel
handler lifts the whole user portion of the stack out (suspending any
in-flight compute) and installs another job's saved frames.

Parked spins
------------

A spin's contract is that ``done`` reads only state written by frames
running on this processor. While the spinning frame is on top in
``DELAY`` no other frame here runs, so ``done()`` cannot change, and
re-checking it every chunk only costs engine events. The processor
therefore schedules one wake ``_PARK_CHUNKS`` chunks ahead. If the frame
is suspended mid-park, the remainder it saves is the rest of the chunk
the explicit loop would be in, ``n - (now - origin) % n``; resumed, it
wakes at that real chunk boundary and re-checks ``done()`` there, as
the loop would. Cycle charges match the loop's once the spin ends. A
park wake that finds ``done()`` true means the contract was broken and
raises :class:`~repro.sim.engine.SimulationError`. Why the result is
cycle-exact (suspensions are same-cycle run-queue callbacks, ordered
after any timed wake at that cycle) is argued in docs/SIMULATION.md.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional

from repro.sim.engine import Deadline, Engine, SimulationError
from repro.sim.events import Event


class Spin:
    """Yielded by a frame to wait for ``done()`` in ``cycles`` chunks.

    Equivalent to ``while not done(): yield cycles`` (same exit
    cycle, same charges once it ends, same order of every other event)
    provided ``done`` reads only state that frames running on *this*
    processor write: message handlers of this node, not other nodes or
    fabric/NI callbacks. ``cycles`` must be at least 2, so a one-cycle
    kernel retry can never land on a skipped chunk boundary.
    """

    __slots__ = ("cycles", "done")

    def __init__(self, cycles: int, done: Callable[[], bool]) -> None:
        if cycles < 2:
            raise ValueError(f"spin chunk must be >= 2 cycles: {cycles}")
        self.cycles = int(cycles)
        self.done = done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Spin({self.cycles})"


#: Chunks a parked spin sleeps before re-checking its predicate.
_PARK_CHUNKS = 1024


class FrameState(enum.Enum):
    READY = "ready"            # runnable, waiting to be on top
    RUNNING = "running"        # being advanced right now
    DELAY = "delay"            # in a compute/Spin with a scheduled wake
    DELAY_SUSPENDED = "delay_suspended"  # preempted mid-compute/Spin
    WAITING = "waiting"        # blocked on an Event
    DONE = "done"


# Module-level aliases: the processor's hot paths compare states by
# identity, and a global load is cheaper than an enum attribute lookup.
_READY = FrameState.READY
_RUNNING = FrameState.RUNNING
_DELAY = FrameState.DELAY
_DELAY_SUSPENDED = FrameState.DELAY_SUSPENDED
_WAITING = FrameState.WAITING
_DONE = FrameState.DONE

FrameGen = Generator[Any, Any, Any]


class Frame:
    """One schedulable coroutine on the processor stack."""

    __slots__ = (
        "gen", "name", "kernel", "state", "on_done",
        "_delay_end", "_remaining", "_wait_event",
        "_ready_value", "_has_ready_value", "result", "job_gid",
        "_spin", "_park_origin",
    )

    def __init__(self, gen: FrameGen, name: str, kernel: bool = False,
                 on_done: Optional[Callable[[Any], None]] = None,
                 job_gid: Optional[int] = None) -> None:
        self.gen = gen
        self.name = name
        self.kernel = kernel
        self.state = _READY
        self.on_done = on_done
        self.job_gid = job_gid
        self._delay_end = 0
        self._remaining = 0
        self._wait_event: Optional[Event] = None
        self._ready_value: Any = None
        self._has_ready_value = False
        self.result: Any = None
        #: The Spin being waited out, or None.
        self._spin: Optional[Spin] = None
        #: Cycle the current park started at; None when the pending
        #: wake is a real chunk boundary (after a resume).
        self._park_origin: Optional[int] = None

    @property
    def finished(self) -> bool:
        return self.state is _DONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "K" if self.kernel else "U"
        return f"<Frame[{kind}] {self.name} {self.state.value}>"


class Processor:
    """A single in-order processor with an interrupt/preemption stack."""

    def __init__(self, engine: Engine, node_id: int) -> None:
        self.engine = engine
        self.node_id = node_id
        self._stack: List[Frame] = []
        self._pending_kernel: Deque[Callable[[], Frame]] = deque()
        #: Hooks called when control returns to user level or the CPU
        #: goes idle — the NI uses this to re-evaluate level-triggered
        #: interrupt conditions that arose while the kernel was running.
        self.on_return_to_user: List[Callable[[], None]] = []
        # Accounting.
        self.user_cycles = 0
        self.kernel_cycles = 0
        self._busy_since: Optional[int] = None
        #: The top frame's compute or spin wake. Only the top frame can
        #: be in DELAY, so one re-armable deadline serves every frame.
        self._wake = Deadline(engine)
        # Bound once: every compute wake arms one of them.
        self._bound_advance = self._advance
        self._bound_spin_wake = self._spin_wake

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current(self) -> Optional[Frame]:
        return self._stack[-1] if self._stack else None

    @property
    def in_kernel(self) -> bool:
        return not self.at_user_level()

    @property
    def idle(self) -> bool:
        return not self._stack

    def at_user_level(self) -> bool:
        """True when no kernel frame is on top (the NI's
        ``user_level_ready`` predicate)."""
        stack = self._stack
        return not stack or not stack[-1].kernel

    def user_depth(self) -> int:
        """Number of user frames at the bottom of the stack."""
        count = 0
        for frame in self._stack:
            if frame.kernel:
                break
            count += 1
        return count

    # ------------------------------------------------------------------
    # Frame entry points
    # ------------------------------------------------------------------
    def push_frame(self, frame: Frame) -> None:
        """Preempt the current top (if any) and run ``frame``.

        Kernel-frame stacking invariant: a user frame may never be pushed
        on top of a kernel frame.
        """
        stack = self._stack
        if stack:
            top = stack[-1]
            if top.kernel and not frame.kernel:
                raise SimulationError(
                    f"user frame {frame.name} pushed over kernel frame "
                    f"{top.name} on node {self.node_id}"
                )
            self._suspend(top)
        stack.append(frame)
        self._kick(frame)

    def raise_kernel(self, frame_factory: Callable[[], Optional[Frame]]) -> None:
        """Deliver a kernel interrupt.

        Delivery is deferred through the event loop so a raise issued
        synchronously from inside a running frame step never preempts
        mid-step. At delivery time the interrupt queues behind any
        kernel frame in service; the factory runs only when the frame
        is about to execute, and may return ``None`` to abort (the
        condition that raised the interrupt has evaporated).
        """
        self.engine.call_soon(self._deliver_kernel, frame_factory)

    def _deliver_kernel(self, factory: Callable[[], Optional[Frame]]) -> None:
        stack = self._stack
        if stack and stack[-1].kernel:
            self._pending_kernel.append(factory)
            return
        frame = factory()
        if frame is not None:
            self.push_frame(frame)

    def raise_user_upcall(self, frame_factory: Callable[[], Optional[Frame]]) -> None:
        """Deliver a user-level interrupt (message-available upcall).

        Deferred like :meth:`raise_kernel`. If the kernel is running at
        delivery time the upcall is dropped — the NI re-evaluates its
        interrupt conditions when control returns to user level, so no
        wakeup is lost. The factory may return ``None`` to abort.
        """
        self.engine.call_soon(self._deliver_upcall, frame_factory)

    def _deliver_upcall(self, factory: Callable[[], Optional[Frame]]) -> None:
        stack = self._stack
        if stack and stack[-1].kernel:
            return
        frame = factory()
        if frame is not None:
            self.push_frame(frame)

    # ------------------------------------------------------------------
    # Context switch support (used by the gang scheduler)
    # ------------------------------------------------------------------
    def capture_user_frames(self) -> List[Frame]:
        """Remove and return the user portion of the stack (bottom-up).

        Frames keep their suspended compute remainders and event
        subscriptions, so installing them later resumes execution
        exactly where it stopped. Must be called from kernel context so
        that no user frame is mid-``RUNNING``.
        """
        split = self.user_depth()
        captured = self._stack[:split]
        del self._stack[:split]
        for frame in captured:
            # Top user frame may hold a live wake if capture happens
            # outside any kernel frame; suspend defensively.
            self._suspend(frame)
        return captured

    def install_user_frames(self, frames: List[Frame]) -> None:
        """Insert saved user frames under any kernel frames.

        Installing an empty set is a no-op: a context switch that found
        nothing to capture (the job's frames all finished, or another
        switch already holds them) must not conflict with a concurrent
        reinstall.
        """
        if not frames:
            return
        if self.user_depth() != 0:
            raise SimulationError(
                f"node {self.node_id}: installing user frames over "
                "existing user frames"
            )
        self._stack[0:0] = frames
        if frames and self._stack[-1] is frames[-1]:
            # No kernel frames above: the installed top resumes now.
            self._resume_top()

    # ------------------------------------------------------------------
    # Core state machine
    # ------------------------------------------------------------------
    def _kick(self, frame: Frame) -> None:
        """Schedule the first advance of a freshly (re)topped frame."""
        self.engine.call_soon(self._advance_if_top, frame)

    def _advance_if_top(self, frame: Frame, value: Any = None) -> None:
        stack = self._stack
        if not stack or stack[-1] is not frame:
            return  # stale kick (frame was preempted or switched out)
        if frame.state is not _READY and frame.state is not _RUNNING:
            return
        self._advance(frame, value)

    def _advance(self, frame: Frame, value: Any = None) -> None:
        """Step ``frame`` until it computes, blocks or finishes.

        Also the compute wake's callback. The wake is cleared on
        suspend, so a wake (like every other advance) finds its frame on
        top; anything else is a broken stack and raises. The compute
        wake is the simulator's hottest shape, so this is written lean:
        an ``int`` is matched by exact class and the cycle charge is
        inlined.
        """
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise SimulationError(f"advance of non-top frame {frame.name}")
        send = frame.gen.send
        while True:
            frame.state = _RUNNING
            try:
                op = send(value)
            except StopIteration as stop:
                self._finish(frame, stop.value)
                return
            if op.__class__ is int:
                if op > 0:
                    frame.state = _DELAY
                    end = frame._delay_end = self.engine.now + op
                    self._wake.arm(end, self._bound_advance, frame)
                    if frame.kernel:
                        self.kernel_cycles += op
                    else:
                        self.user_cycles += op
                    return
                if op < 0:
                    raise ValueError(f"negative compute: {op}")
                value = None
                continue
            if op.__class__ is Spin:
                if op.done():
                    value = None
                    continue
                frame._spin = op
                self._park(frame, op.cycles)
                return
            if isinstance(op, Event):
                if op.triggered:
                    value = op.value
                    continue
                frame.state = _WAITING
                frame._wait_event = op
                op.subscribe(lambda v, f=frame: self._event_fired(f, v))
                return
            raise SimulationError(
                f"frame {frame.name} yielded unsupported {op!r}"
            )

    def _park(self, frame: Frame, cycles: int) -> None:
        """Sleep a spinning frame ``_PARK_CHUNKS`` chunks, charged now."""
        engine = self.engine
        now = engine.now
        span = cycles * _PARK_CHUNKS
        frame.state = _DELAY
        frame._park_origin = now
        frame._delay_end = now + span
        self._wake.arm(now + span, self._bound_spin_wake, frame)
        if frame.kernel:
            self.kernel_cycles += span
        else:
            self.user_cycles += span

    def _spin_wake(self, frame: Frame) -> None:
        """A spin's chunk boundary: exit if ``done()``, else park again."""
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise SimulationError(
                f"spin wake for non-top frame {frame.name}"
            )
        spin = frame._spin
        if not spin.done():
            self._park(frame, spin.cycles)
            return
        if frame._park_origin is not None:
            raise SimulationError(
                f"spin on frame {frame.name} (node {self.node_id}) became "
                "done while parked: its predicate reads state written "
                "while no frame ran on this processor"
            )
        frame._spin = None
        self._advance(frame, None)

    def _event_fired(self, frame: Frame, value: Any) -> None:
        frame._wait_event = None
        if frame.state is _DONE:
            return
        stack = self._stack
        if stack and stack[-1] is frame and frame.state is _WAITING:
            frame.state = _READY
            # Serialize through the engine to avoid re-entrant advance
            # from inside another frame's step.
            self.engine.call_soon(self._advance_if_ready, (frame, value))
        else:
            frame._ready_value = value
            frame._has_ready_value = True
            frame.state = _READY

    def _advance_if_ready(self, pair) -> None:
        """Advance a frame its event readied. ``pair`` is ``(frame,
        value)``, the one ``arg`` the engine passes, so scheduling it
        builds no closure."""
        frame, value = pair
        stack = self._stack
        if not stack or stack[-1] is not frame or frame.state is not _READY:
            # Preempted between trigger and advance; value saved below.
            if frame.state is _READY:
                frame._ready_value = value
                frame._has_ready_value = True
            return
        self._advance(frame, value)

    def _suspend(self, frame: Frame) -> None:
        if frame.state is _DELAY:
            self._wake.clear()
            now = self.engine.now
            # Uncharge everything charged ahead of now; the remainder
            # is re-charged on resume.
            if frame.kernel:
                self.kernel_cycles -= frame._delay_end - now
            else:
                self.user_cycles -= frame._delay_end - now
            origin = frame._park_origin
            if origin is None:
                frame._remaining = frame._delay_end - now
            else:
                # Mid-park: resume at the end of the chunk the explicit
                # loop would be in.
                cycles = frame._spin.cycles
                frame._remaining = cycles - (now - origin) % cycles
                frame._park_origin = None
            frame.state = _DELAY_SUSPENDED
        elif frame.state is _RUNNING:
            raise SimulationError(
                f"cannot suspend frame {frame.name} mid-step"
            )
        # READY / WAITING frames carry their state across suspension.

    def _resume_top(self) -> None:
        stack = self._stack
        if not stack:
            return
        frame = stack[-1]
        if frame.state is _DELAY_SUSPENDED:
            frame.state = _DELAY
            remaining = frame._remaining
            frame._delay_end = self.engine.now + remaining
            if frame.kernel:
                self.kernel_cycles += remaining
            else:
                self.user_cycles += remaining
            self._wake.arm(
                frame._delay_end,
                self._bound_advance if frame._spin is None
                else self._bound_spin_wake,
                frame,
            )
        elif frame.state is _READY:
            if frame._has_ready_value:
                value, frame._ready_value = frame._ready_value, None
                frame._has_ready_value = False
                self.engine.call_soon(self._advance_if_ready, (frame, value))
            else:
                self._kick(frame)
        # WAITING frames stay blocked until their event fires.

    def _finish(self, frame: Frame, result: Any) -> None:
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise SimulationError(
                f"frame {frame.name} finished while not on top"
            )
        stack.pop()
        frame.state = _DONE
        frame.result = result
        was_kernel = frame.kernel
        if frame.on_done is not None:
            frame.on_done(result)
        # The on_done callback may have pushed new frames (e.g. a trap
        # handler chaining into another kernel service); only dispatch
        # queued interrupts if no kernel frame took over.
        if was_kernel:
            while self._pending_kernel and not (stack and stack[-1].kernel):
                factory = self._pending_kernel.popleft()
                pending = factory()
                if pending is not None:
                    self.push_frame(pending)
                    return
        self._resume_top()
        if not (stack and stack[-1].kernel):
            for hook in list(self.on_return_to_user):
                hook()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def busy_cycles(self) -> int:
        return self.user_cycles + self.kernel_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Processor node={self.node_id} depth={len(self._stack)} "
            f"top={self.current and self.current.name}>"
        )
