"""The discrete-event engine: clock, event heap and same-cycle run queue.

The engine is deliberately small. All simulation behaviour above it is
expressed as scheduled callbacks; the processor model drives its
generator frames on top of them (see :mod:`repro.machine.processor`).

Scheduling primitives
---------------------

The engine exploits the paper's two-case idea: the common case pays for
none of the machinery the uncommon case needs.

* :meth:`Engine.schedule` is the fast case — no handle is allocated.
* :meth:`Engine.call_at` is the general case — it returns a cancellable
  ``_ScheduledCall``, one fresh handle per call. Handles are never
  recycled: a caller may hold one past its firing, and a ``cancel()``
  through a stale handle must not reach a later callback.
* A :class:`Deadline` is a re-armable single-shot callback for owners
  that keep re-timing one wake: a processor's compute wake, an
  atomicity timer. ``arm`` and ``clear`` allocate nothing in the
  common case, yet dispatch exactly like cancel + ``call_at``.
* Callbacks for the current cycle bypass timed storage: they go on a
  same-cycle **run queue** (a plain FIFO) drained after the cycle's
  timed entries. :meth:`Engine.call_soon` appends there directly.

Event heap
----------

Timed storage is one binary heap of ``(time, seq, x, marker)`` tuples.
Every heap push and every ``Deadline.arm`` for a later cycle takes the
next ``seq``, so ``seq`` is unique and tuple comparison never reaches
``x``. The heap
pops in global ``(time, seq)`` order: same-time entries run in schedule
order. The run queue keeps that order: while the clock reads ``T``,
every timed entry at ``T`` was pushed while ``now < T``, before any
same-cycle schedule made at ``T``, so draining the heap's ``T`` entries
first and the run queue second is ``(time, seq)`` order.

A :class:`Deadline` keeps its live key ``(time, seq)`` on itself and
*carriers* — heap tuples naming it — in the heap. ``arm`` reserves the
``seq`` a ``call_at`` would take at that moment and pushes a carrier
only when none of its carriers is queued at or before the new time;
``clear`` only marks the deadline idle. A carrier that reaches the heap
top (in the drain or in :meth:`Engine.peek_time`) fires only if its key
is still the live key. Otherwise it is dropped, or re-pushed under the
live key unless another of the deadline's carriers is queued at or
before the live time.
Exactness follows from two facts:

* the live key is never below the deadline's earliest carrier (a
  carrier is pushed whenever the new time precedes them all), so a
  carrier reaches the top at or before the live key and the re-push
  lands exactly where a fresh ``call_at`` entry would sit;
* the live key's ``seq`` was reserved when the matching ``call_at``
  would have run, so it ties with other entries at that time exactly
  as that entry would.

Dispatch order, ``events_executed``, ``pending`` (which counts live
entries only) and ``peek_time()`` therefore equal those of cancel +
``call_at``. A deadline's carrier times strictly decrease in push
order, so they form a stack whose top is the earliest. A carrier that
a re-arm made redundant stays queued until its time, a bounded cost:
a deadline pushes a second carrier only when re-armed earlier than its
first (a kernel frame's wake under a suspended user frame's).

One loop dispatches every callback: ``_run_bounded``. ``run()`` passes
its ``until`` and ``max_events`` bounds straight through (``None`` for
no bound), and ``step()`` is the same drain with a budget of one event.
The loop pops a cycle's heap entries, then drains the run queue, with
per-event budget and stop checks. It bumps ``events_executed`` per
event (a timeline sampler reads it from inside a callback) but flushes
the secondary counters (heap and run-queue events, cycle batches) once
per drain, so a stepped heap event counts as one cycle batch. Between
cycles it takes the next time straight off a live heap top; only a dead
top (a cancelled handle, a stale carrier) goes through the settling
``_next_live_heap_time``.

Setting ``REPRO_NO_FASTPATH`` in the environment (read at construction
time) disables the same-cycle run queue: same-cycle schedules then push
onto the heap under the next ``seq``, which the drain at the current
cycle pops in the same order. The property suite uses this to prove the
fast paths never change simulation results.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from collections import deque
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised for fatal conditions inside the simulation kernel."""


class _Sentinel:
    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.label}>"


#: "No argument" marker: ``fn()`` is called instead of ``fn(arg)``.
_NO_ARG = _Sentinel("no-arg")
#: Heap marker in slot 3: slot 2 holds a cancellable entry.
_ENTRY = _Sentinel("entry")
#: Heap marker in slot 3: slot 2 holds a :class:`Deadline` (a carrier).
_CARRIER = _Sentinel("carrier")


class _ScheduledCall:
    """Public cancellable handle for one scheduled callback;
    ``cancelled`` makes removal O(1) (lazy deletion).

    This is *only* a handle: ordering lives in the heap's
    ``(time, seq, entry, _ENTRY)`` tuple, or in run-queue position for
    a same-cycle entry. Entries keep a back-reference to their engine
    so cancellation can be counted: when cancelled entries dominate the
    pending set the engine compacts them away in one pass instead of
    dragging dead weight to its timestamp. The dispatch loop detaches
    the handle (``engine = None``) as it fires it, so a ``cancel()``
    after firing counts nothing: the entry is no longer pending.
    """

    __slots__ = ("time", "fn", "arg", "cancelled", "engine")

    def __init__(self, time: int, fn: Callable[..., None],
                 arg: Any = _NO_ARG,
                 engine: Optional["Engine"] = None) -> None:
        self.time = time
        self.fn = fn
        self.arg = arg
        self.cancelled = False
        self.engine = engine

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self.engine is not None:
                self.engine._note_cancelled()


class Deadline:
    """A re-armable single-shot callback on one engine.

    ``arm(time, fn, arg)`` (re)sets the one pending firing of
    ``fn(arg)`` and ``clear()`` withdraws it; the deadline behaves
    exactly like holding the handle of the latest ``call_at(time, fn,
    arg)`` and cancelling it before each re-arm (see the module
    docstring for the carrier scheme that makes this exact). Arming
    for the current cycle takes a plain ``call_at`` handle, since that
    entry belongs on the run queue. ``armed`` is ``_seq or _soon is
    not None``; the NI's per-evaluation timer drive tests that inline.
    """

    __slots__ = ("_engine", "_time", "_seq", "_fn", "_arg", "_stack",
                 "_soon", "__dict__")

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine
        #: Live firing time; meaningful while armed.
        self._time = 0
        #: Live key ``seq``, or 0 when no carrier stands for a firing.
        self._seq = 0
        self._fn: Optional[Callable[..., None]] = None
        self._arg: Any = _NO_ARG
        #: Times of the carriers in the heap, strictly decreasing: the
        #: last one is the earliest and reaches the heap top first.
        self._stack: List[int] = []
        #: The ``call_at`` handle of a same-cycle arm, or None.
        self._soon: Optional[_ScheduledCall] = None
        engine._deadlines.append(self)

    @property
    def armed(self) -> bool:
        return self._seq != 0 or self._soon is not None

    @property
    def time(self) -> Optional[int]:
        """The pending firing time, or None when idle."""
        return self._time if self.armed else None

    def arm(self, time: int, fn: Callable[..., None],
            arg: Any = _NO_ARG) -> None:
        """Fire ``fn()`` (or ``fn(arg)``) at ``time`` (>= now), replacing
        any pending firing."""
        engine = self._engine
        if time <= engine.now:
            # Same cycle: a plain handle, which joins the run queue
            # (call_at rejects a past time before anything changes).
            soon = engine.call_at(time, self._fire_soon)
            self.clear()
            self._soon = soon
        else:
            if self._soon is not None:
                self._soon.cancel()
                self._soon = None
            seq = engine._seq = engine._seq + 1
            stack = self._stack
            if stack and stack[-1] <= time:
                # An earlier carrier will reach the top first and
                # re-push under the live key; if the deadline was idle
                # that carrier stops being dead weight.
                if not self._seq:
                    engine._dead_carriers -= 1
            else:
                heappush(engine._heap, (time, seq, self, _CARRIER))
                stack.append(time)
                if self._seq:
                    engine._dead_carriers += 1
            self._seq = seq
        self._time = time
        self._fn = fn
        self._arg = arg

    def _fire_soon(self) -> None:
        self._soon = None
        if self._arg is _NO_ARG:
            self._fn()
        else:
            self._fn(self._arg)

    def clear(self) -> None:
        """Withdraw the pending firing, if any."""
        if self._seq:
            self._seq = 0
            self._engine._dead_carriers += 1
        elif self._soon is not None:
            self._soon.cancel()
            self._soon = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"t={self._time}" if self.armed else "idle"
        return f"<Deadline {state} carriers={len(self._stack)}>"


#: Compact when at least this many entries are cancelled *and*
#: cancellations make up at least half of everything pending. Small
#: enough to bound memory under cancellation storms, large enough that
#: compaction never triggers on ordinary workloads.
_COMPACT_MIN_CANCELLED = 512

#: Sentinel for an absent ``until`` or ``max_events``: compares greater
#: than every int, so the dispatch loop needs no per-event None checks.
_UNBOUNDED = float("inf")


class Engine:
    """The event heap, same-cycle run queue and simulated clock
    (integer cycles)."""

    def __init__(self) -> None:
        self.now: int = 0
        #: Timed storage: heap of ``(time, seq, fn, arg)`` (handle-free),
        #: ``(time, seq, entry, _ENTRY)`` (cancellable) and
        #: ``(time, seq, deadline, _CARRIER)`` (deadline carrier) tuples.
        self._heap: List[tuple] = []
        #: Same-cycle FIFO: items due at ``self.now`` — bare callables,
        #: ``(fn, arg)`` pairs or ``_ScheduledCall`` entries.
        self._runq: deque = deque()
        #: Heap tie-break; also reserved by every ``Deadline.arm``.
        self._seq: int = 0
        #: Every Deadline built on this engine, so instrumentation can
        #: shadow each one's ``arm``.
        self._deadlines: List[Deadline] = []
        self._events_executed: int = 0
        #: Events popped off the heap.
        self._ring_executed: int = 0
        #: Events that ran off the run queue (fast-path hit counter).
        self._runq_executed: int = 0
        #: Heap drains that executed at least one event (batch count).
        self._cycle_batches: int = 0
        #: Cancelled entries still pending in heap or run queue (lazy
        #: deletion).
        self._cancelled_pending: int = 0
        #: Carriers in the heap that stand for no live firing.
        self._dead_carriers: int = 0
        #: Times the pending set was swept to drop cancelled entries.
        self._compactions: int = 0
        #: Cooperative stop flag: set by :meth:`stop`, cleared by
        #: :meth:`run` and :meth:`step`, checked between events.
        self._stop: bool = False
        #: False sends same-cycle schedules to the heap (set from the
        #: REPRO_NO_FASTPATH environment variable).
        self.fastpath: bool = not os.environ.get("REPRO_NO_FASTPATH")

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        cancelled = self._cancelled_pending = self._cancelled_pending + 1
        # Compact on the cancellation that crosses the threshold, not on
        # every schedule: keeps the check off the scheduling hot path.
        if (cancelled >= _COMPACT_MIN_CANCELLED
                and cancelled * 2 >= len(self._heap) + len(self._runq)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from heap and run queue in one O(n)
        sweep, with exact removal accounting. Carriers stay: each
        deadline has few, and each leaves at its time."""
        # In place: the dispatch loop holds references to these.
        heap = self._heap
        live = [item for item in heap
                if item[3] is not _ENTRY or not item[2].cancelled]
        removed = len(heap) - len(live)
        heap[:] = live
        heapify(heap)
        runq = self._runq
        if runq:
            kept = [item for item in runq
                    if item.__class__ is not _ScheduledCall
                    or not item.cancelled]
            dropped = len(runq) - len(kept)
            if dropped:
                runq.clear()
                runq.extend(kept)
                removed += dropped
        self._cancelled_pending -= removed
        self._compactions += 1

    def call_at(self, time: int, fn: Callable[..., None],
                arg: Any = _NO_ARG) -> _ScheduledCall:
        """Schedule ``fn()`` (or ``fn(arg)``) at absolute ``time``
        (>= now), returning a cancellable handle."""
        now = self.now
        if type(time) is not int:
            time = int(time)
        if time < now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {now}"
            )
        entry = _ScheduledCall(time, fn, arg, self)
        if now < time or not self.fastpath:
            seq = self._seq = self._seq + 1
            heappush(self._heap, (time, seq, entry, _ENTRY))
        else:
            self._runq.append(entry)
        return entry

    def call_after(self, delay: int, fn: Callable[..., None],
                   arg: Any = _NO_ARG) -> _ScheduledCall:
        """Schedule ``fn`` after ``delay`` cycles (cancellable)."""
        return self.call_at(self.now + delay, fn, arg)

    def schedule(self, time: int, fn: Callable[..., None],
                 arg: Any = _NO_ARG) -> None:
        """Schedule ``fn()`` (or ``fn(arg)``) at ``time``, without a
        cancellation handle — the common-case fast path."""
        now = self.now
        if type(time) is not int:
            time = int(time)
        if now < time or (time == now and not self.fastpath):
            seq = self._seq = self._seq + 1
            heappush(self._heap, (time, seq, fn, arg))
        elif time == now:
            self._runq.append(fn if arg is _NO_ARG else (fn, arg))
        else:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {now}"
            )

    def call_soon(self, fn: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``fn`` this cycle, after already-pending same-cycle
        events (handle-free)."""
        if self.fastpath:
            self._runq.append(fn if arg is _NO_ARG else (fn, arg))
        else:
            self.schedule(self.now, fn, arg)

    # ------------------------------------------------------------------
    # Queue maintenance
    # ------------------------------------------------------------------
    def _reseat(self, deadline: Deadline) -> None:
        """Handle a carrier of ``deadline`` just popped off the heap top
        whose key is not the live one: drop it, or re-push it under the
        live key when no other carrier of the deadline precedes that."""
        stack = deadline._stack
        stack.pop()
        if not deadline._seq:
            self._dead_carriers -= 1
            return
        time = deadline._time
        if stack and stack[-1] <= time:
            # The next carrier now stands for the firing.
            self._dead_carriers -= 1
            return
        heappush(self._heap, (time, deadline._seq, deadline, _CARRIER))
        stack.append(time)

    def _next_live_heap_time(self) -> Optional[int]:
        """Earliest live heap entry time, settling dead entries (cancelled
        handles, stale carriers) off the top; None when none remain."""
        heap = self._heap
        while heap:
            time, seq, x, marker = heap[0]
            if marker is _ENTRY:
                if x.cancelled:
                    heappop(heap)
                    self._cancelled_pending -= 1
                    continue
            elif marker is _CARRIER and x._seq != seq:
                heappop(heap)
                self._reseat(x)
                continue
            return time
        return None

    def peek_time(self) -> Optional[int]:
        """Earliest pending event time, or None when nothing is pending."""
        runq = self._runq
        while runq:
            item = runq[0]
            if item.__class__ is not _ScheduledCall or not item.cancelled:
                return self.now
            runq.popleft()
            self._cancelled_pending -= 1
        return self._next_live_heap_time()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def stop(self, _value: Any = None) -> None:
        """Ask :meth:`run` to return after the current event. The
        signature accepts one ignored value so
        ``event.subscribe(engine.stop)`` works directly."""
        self._stop = True

    def step(self) -> bool:
        """Run the single earliest event. Returns False if none remain.

        One budget-1 call into the drain :meth:`run` uses. A ``stop()``
        left over from an earlier run is cleared first, as :meth:`run`
        clears it, so it cannot swallow the step."""
        self._stop = False
        executed = self._events_executed
        self._run_bounded(None, 1)
        return self._events_executed != executed

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until nothing is pending, ``until`` cycles,
        ``max_events`` events have executed, or :meth:`stop` is called.
        Returns the final time."""
        self._stop = False
        return self._run_bounded(until, max_events)

    def _run_bounded(self, until: Optional[int],
                     max_events: Optional[int]) -> int:
        """The dispatch loop: per-event budget/stop checks, partial
        drains on early exit; ``None`` means no bound.

        ``events_executed`` is bumped per event because timeline
        samplers read it from inside a callback; the secondary counters
        (``ring_events``, ``runq_events``, ``cycle_batches``) are
        flushed once per heap drain and once per run-queue drain, early
        exits included, so they are exact whenever control is back
        outside the drain."""
        now = self.now
        if until is not None and until < now:
            return now
        heap = self._heap
        runq = self._runq
        entry_cls = _ScheduledCall
        tuple_cls = tuple
        no_arg = _NO_ARG
        entry_mark = _ENTRY
        carrier_mark = _CARRIER
        stop_bound = _UNBOUNDED if until is None else until
        budget = _UNBOUNDED if max_events is None else max_events
        executed = 0
        while True:
            drained_from = executed
            while heap and heap[0][0] == now:
                if executed >= budget or self._stop:
                    break
                _time, seq, fn, arg = heappop(heap)
                if arg is carrier_mark:
                    if fn._seq != seq:
                        self._reseat(fn)
                        continue
                    fn._stack.pop()
                    fn._seq = 0
                    arg = fn._arg
                    fn = fn._fn
                elif arg is entry_mark:
                    if fn.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    fn.engine = None
                    arg = fn.arg
                    fn = fn.fn
                executed += 1
                self._events_executed += 1
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
            if executed > drained_from:
                self._ring_executed += executed - drained_from
                self._cycle_batches += 1
            drained_from = executed
            while runq:
                if executed >= budget or self._stop:
                    break
                item = runq.popleft()
                cls = item.__class__
                if cls is tuple_cls:
                    fn, arg = item
                elif cls is entry_cls:
                    if item.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    fn = item.fn
                    item.engine = None
                    arg = item.arg
                else:
                    fn = item
                    arg = no_arg
                executed += 1
                self._events_executed += 1
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
            if executed > drained_from:
                self._runq_executed += executed - drained_from
            if self._stop:
                return now
            if executed >= budget:
                if (until is not None and now < until
                        and self.peek_time() is None):
                    self.now = until
                    return until
                return now
            # The next time: straight off a live heap top; only a dead
            # top (cancelled handle, stale carrier) needs settling.
            if heap:
                t, seq, x, marker = heap[0]
                if (x.cancelled if marker is entry_mark else
                        marker is carrier_mark and x._seq != seq):
                    t = self._next_live_heap_time()
            else:
                t = None
            if t is None:
                if until is not None and now < until:
                    self.now = until
                    return until
                return now
            if t > stop_bound:
                self.now = until
                return until
            now = t
            self.now = t

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def ring_events(self) -> int:
        """Events that ran off the heap (timed events)."""
        return self._ring_executed

    @property
    def runq_events(self) -> int:
        """Events that bypassed timed storage via the same-cycle run
        queue."""
        return self._runq_executed

    @property
    def overflow_scheduled(self) -> int:
        """Always 0: the engine has one timed tier and no overflow."""
        return 0

    @property
    def cycle_batches(self) -> int:
        """Heap drains that executed at least one event."""
        return self._cycle_batches

    @property
    def compactions(self) -> int:
        """Times the pending set was swept to shed cancelled entries."""
        return self._compactions

    @property
    def pending(self) -> int:
        """Live entries still scheduled (not cancelled handles, not
        carriers that stand for no firing)."""
        return (len(self._heap) + len(self._runq)
                - self._cancelled_pending - self._dead_carriers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self.now} pending={self.pending}>"
