"""The discrete-event engine: clock, calendar queue and generator processes.

The engine is deliberately small. All simulation behaviour above it is
expressed either as scheduled callbacks or as *processes* — Python
generators that yield:

* ``Delay(cycles)`` — resume after ``cycles`` simulated cycles;
* an :class:`~repro.sim.events.Event` — resume when it triggers, with
  ``event.value`` sent into the generator.

Processes may also raise ``StopIteration`` (returning a value) which
triggers the process's ``done`` event, so processes can wait for each
other by yielding ``other_process.done``.

Two-case scheduling
-------------------

The engine itself exploits the paper's two-case idea: the common case
(a callback that needs no cancellation handle, or one scheduled a small
constant number of cycles ahead) pays for none of the machinery the
uncommon case needs.

* :meth:`Engine.schedule` is the fast case — no ``_ScheduledCall``
  handle is allocated.
* :meth:`Engine.call_at` is the general case — it returns a cancellable
  handle, at the cost of one fresh ``_ScheduledCall`` per call. Handles
  are never recycled: a caller may hold one past its firing, and a
  ``cancel()`` through a stale handle must not reach a later callback.
* Callbacks for the current cycle bypass timed storage entirely: they
  go on a same-cycle **run queue** (a plain FIFO) drained after the
  cycle's timed entries.

Calendar queue
--------------

Timed storage is a classic calendar (bucket) queue keyed on the integer
cycle clock, not a binary heap. Almost every delay charged by the
simulator is a small constant from :mod:`repro.core.costs`, so the
engine keeps a power-of-two ring of per-cycle buckets covering the
sliding window ``[now, now + window)`` — window sized at import time to
cover the largest per-message cost constant — and schedules into bucket
``time & (window - 1)`` in O(1). The rare far-future entry (long
timeout, scheduler timeslice, page-out) goes to a heap-backed
**overflow tier** ordered by ``(time, seq)`` tuple comparison.

Ordering is exactly the heap engine's global ``(time, seq)`` FIFO:

* a bucket is only ever populated with entries for one absolute time
  (everything in the ring lies within one window of ``now``), so
  bucket append order is schedule order;
* overflow entries at time ``T`` can only exist while ``T >= now +
  window``, and direct ring inserts at ``T`` only happen once ``now >
  T - window`` — strictly later. The overflow tier is pulled into the
  ring *eagerly at every clock advance* (before any callback at the
  new ``now`` runs), so pulled entries land in their bucket ahead of
  any later direct insert, in heap ``(time, seq)`` order. Append order
  therefore equals global schedule order in every bucket.

Clock advance never probes empty buckets. An **occupied-time index**
(a min-heap of times) gets a time pushed whenever an append lands in
an empty bucket; advancing pops it, skipping stale times (at or before
``now``, or a bucket a compaction has since emptied). A time in the
index that is still ahead of ``now`` names a bucket that can only hold
entries for that one time, so the index chooses *which* bucket drains
next and never touches the order within a bucket: the ordering
argument above is unchanged. Sparse timelines (a WAN fabric, a long
compute) would otherwise pay one probe per empty cycle, up to a whole
window per advance — the known weak spot of Brown's calendar queue.

One loop dispatches every callback: ``_run_bounded``. ``run()`` passes
its ``until`` and ``max_events`` bounds straight through (``None`` for
no bound), and ``step()`` is the same drain with a budget of one event.
The loop drains a cycle's bucket, then the run queue, with per-event
budget and stop checks, and tells the three callback shapes — bare
callable, ``(fn, arg)`` pair, cancellable entry — apart by exact class
check. It bumps ``events_executed`` per event (a timeline sampler reads
it from inside a bucket) but flushes the secondary counters (ring and
run-queue events, cycle batches) once per drain, so a stepped ring
event counts as one cycle batch. In whole-machine runs the hottest
shape is the cancellable entry: the processor's compute wake (see
:mod:`repro.machine.processor`) is most of the events dispatched. A
process started with :meth:`Engine.process` resumes from a ``Delay``
through :meth:`Engine.schedule` like any other callback.

Setting ``REPRO_NO_FASTPATH`` in the environment (read at construction
time) disables the same-cycle run queue: same-cycle schedules then
append to the live bucket instead, which the drain loop picks up in the
same order. The property suite uses this to prove the fast paths never
change simulation results.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import Any, Callable, Generator, List, Optional

from repro.sim.events import Event


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
#: Overflow-heap marker in slot 3: slot 2 holds a cancellable entry.
_ENTRY = _Sentinel("entry")


class Delay:
    """Yielded by a process to advance simulated time by ``cycles``.

    Small delays are interned: ``Delay(c)`` for ``0 <= c < 1024``
    returns a shared immutable instance (the cost-model constants that
    dominate simulation delays all fall in this range, and a process
    yields one ``Delay`` per resumption — the allocation is measurable
    at calendar-queue dispatch speeds). Never mutate ``cycles``.
    """

    __slots__ = ("cycles",)

    def __new__(cls, cycles: int) -> "Delay":
        if cls is Delay and type(cycles) is int and 0 <= cycles < 1024:
            return _DELAY_CACHE[cycles]
        self = object.__new__(cls)
        if cycles < 0:
            raise ValueError(f"negative delay: {cycles}")
        self.cycles = cycles if type(cycles) is int else int(cycles)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delay({self.cycles})"


def flyweight_table(cls: type) -> list:
    """Shared instances of ``cls`` with ``cycles`` 0..1023, built
    without running ``cls.__new__``: the intern table behind
    :class:`Delay` and the processor's ``Compute``."""
    table = []
    for cycles in range(1024):
        obj = object.__new__(cls)
        obj.cycles = cycles
        table.append(obj)
    return table


_DELAY_CACHE = flyweight_table(Delay)


class _ScheduledCall:
    """Public cancellable handle for one scheduled callback;
    ``cancelled`` makes removal O(1) (lazy deletion).

    This is *only* a handle: ordering lives in the calendar ring's
    bucket positions and, for overflow entries, in the heap's
    ``(time, seq, entry, _ENTRY)`` tuples — ``seq`` is unique, so tuple
    comparison never reaches the entry object. Entries keep a
    back-reference to their engine so cancellation can be counted: when
    cancelled entries dominate the pending set the engine compacts them
    away in one pass instead of dragging dead weight to its timestamp.
    Every dispatch loop detaches the handle (``engine = None``) as it
    fires it, so a ``cancel()`` after firing counts nothing: the entry
    is no longer pending.
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


ProcessGen = Generator[Any, Any, Any]


class Process:
    """A generator coroutine driven by the engine.

    The process finishes when the generator returns; its return value is
    delivered on the ``done`` event. Uncaught exceptions in a process are
    re-raised out of :meth:`Engine.run` — silent process death hides
    bugs.
    """

    __slots__ = ("engine", "gen", "name", "done", "_waiting_on",
                 "_bound_step", "_bound_on_event", "_gen_send")

    def __init__(self, engine: "Engine", gen: ProcessGen, name: str = "") -> None:
        self.engine = engine
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Event(f"{self.name}.done")
        self._waiting_on: Optional[Event] = None
        # Bound methods are cached once: every Delay resumption schedules
        # `_step`, and creating a fresh bound-method object per event is
        # measurable at calendar-queue speeds.
        self._bound_step = self._step
        self._bound_on_event = self._on_event
        self._gen_send = gen.send

    @property
    def finished(self) -> bool:
        return self.done.triggered

    def _step(self, send_value: Any = None) -> None:
        try:
            target = self._gen_send(send_value)
        except StopIteration as stop:
            self.done.trigger(stop.value)
            return
        self._dispatch(target)

    def _dispatch(self, target: Any) -> None:
        """Suspend on whatever the generator yielded: a Delay resumes
        through a handle-free :meth:`Engine.schedule`; an Event (or a
        Process's ``done``) resumes on its trigger."""
        if isinstance(target, Delay):
            engine = self.engine
            engine.schedule(engine.now + target.cycles, self._bound_step)
            return
        if isinstance(target, Process):
            target = target.done
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name} yielded unsupported {target!r}"
            )
        self._waiting_on = target
        target.subscribe(self._bound_on_event)

    def _on_event(self, value: Any) -> None:
        self._waiting_on = None
        self._step(value)

    def interrupt_wait(self) -> bool:
        """Detach the process from the event it is waiting on.

        Used by preemption machinery (the processor model) to steal a
        process back from a wait. Returns True if a wait was cancelled.
        The caller becomes responsible for stepping the process again.
        """
        if self._waiting_on is None:
            return False
        self._waiting_on.unsubscribe(self._bound_on_event)
        self._waiting_on = None
        return True

    def resume(self, send_value: Any = None) -> None:
        """Step the process immediately (used after ``interrupt_wait``)."""
        self._step(send_value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else "running"
        return f"<Process {self.name} {state}>"


def _window_from_costs() -> int:
    """Calendar window: smallest power of two (>= 1024) strictly larger
    than every per-message cost constant in :mod:`repro.core.costs`.

    ``page_out`` and the scheduler timeslice are deliberately excluded:
    they occur per page-out / per quantum, not per message, and belong
    on the overflow tier.
    """
    from repro.core.costs import BufferedPathCosts, KernelCosts

    longest = max(
        BufferedPathCosts.insert_with_vmalloc,
        KernelCosts.context_switch,
        KernelCosts.mode_transition,
        KernelCosts.mismatch_entry,
        KernelCosts.trap_overhead,
        KernelCosts.hardware_demux,
        KernelCosts.pinned_retry_delay,
    )
    window = 1024
    while window <= longest:
        window *= 2
    return window


#: Ring size for every engine unless overridden (4096 with the stock
#: cost model: one bucket per cycle over [now, now + 4096)).
_DEFAULT_WINDOW = _window_from_costs()

#: Compact when at least this many entries are cancelled *and*
#: cancellations make up at least half of everything pending. Small
#: enough to bound memory under cancellation storms, large enough that
#: compaction never triggers on ordinary workloads.
_COMPACT_MIN_CANCELLED = 512

#: Sentinel for an absent ``until`` or ``max_events``: compares greater
#: than every int, so the dispatch loop needs no per-event None checks.
_UNBOUNDED = float("inf")


class Engine:
    """The calendar queue, same-cycle run queue, overflow heap and
    simulated clock (integer cycles)."""

    def __init__(self, window: Optional[int] = None) -> None:
        if window is None:
            window = _DEFAULT_WINDOW
        elif window < 2 or window & (window - 1):
            raise ValueError(f"window must be a power of two >= 2: {window}")
        self.now: int = 0
        #: Calendar ring: bucket ``time & _mask`` holds every pending
        #: entry at ``time`` for ``now <= time < now + window``. Items
        #: are bare callables, ``(fn, arg)`` pairs or ``_ScheduledCall``
        #: entries, in schedule order.
        self._window: int = window
        self._mask: int = window - 1
        self._ring: List[list] = [[] for _ in range(window)]
        #: Total items in the ring (live + lazily-cancelled).
        self._ring_count: int = 0
        #: Occupied-time index: min-heap of the times whose bucket an
        #: append found empty. Every nonempty bucket after ``now`` has
        #: its time here; entries at or before ``now``, or whose bucket
        #: was since emptied (compaction, front cleaning), are stale and
        #: popped at the next clock advance.
        self._times: List[int] = []
        #: Overflow tier for times >= now + window: heap of
        #: ``(time, seq, entry, _ENTRY)`` (cancellable) or
        #: ``(time, seq, fn, arg)`` (handle-free) tuples.
        self._heap: List[tuple] = []
        #: Same-cycle FIFO: items due at ``self.now``, same encodings as
        #: a ring bucket.
        self._runq: deque = deque()
        #: Tie-break for overflow-heap tuples only; the ring needs none.
        self._seq: int = 0
        self._events_executed: int = 0
        #: Events that ran out of a calendar bucket.
        self._ring_executed: int = 0
        #: Events that ran off the run queue (fast-path hit counter).
        self._runq_executed: int = 0
        #: Entries that took the overflow heap at schedule time.
        self._overflow_scheduled: int = 0
        #: Bucket drains that executed at least one event (batch count).
        self._cycle_batches: int = 0
        #: Cancelled entries still pending in ring, heap or run queue
        #: (lazy deletion).
        self._cancelled_pending: int = 0
        #: Times the pending set was swept to drop cancelled entries.
        self._compactions: int = 0
        #: Cooperative stop flag: set by :meth:`stop`, cleared by
        #: :meth:`run` and :meth:`step`, checked between events.
        self._stop: bool = False
        #: False forces same-cycle schedules into the live bucket (set
        #: from the REPRO_NO_FASTPATH environment variable).
        self.fastpath: bool = not os.environ.get("REPRO_NO_FASTPATH")

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        cancelled = self._cancelled_pending = self._cancelled_pending + 1
        # Compact on the cancellation that crosses the threshold, not on
        # every schedule: keeps the check off the scheduling hot path.
        if (cancelled >= _COMPACT_MIN_CANCELLED
                and cancelled * 2 >= (len(self._heap) + self._ring_count
                                      + len(self._runq))):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from heap, ring and run queue in one
        O(n) sweep, with exact removal accounting.

        The live bucket (``ring[now & mask]``) is skipped: the drain
        loop may be mid-iteration over it, and its cancelled items are
        skipped (and accounted) at drain anyway.
        """
        removed = 0
        # In place: run()'s loops hold references to these containers.
        heap = self._heap
        live = [item for item in heap
                if item[3] is not _ENTRY or not item[2].cancelled]
        removed += len(heap) - len(live)
        heap[:] = live
        heapq.heapify(heap)
        active = self._ring[self.now & self._mask]
        for bucket in self._ring:
            if not bucket or bucket is active:
                continue
            kept = [item for item in bucket
                    if item.__class__ is not _ScheduledCall
                    or not item.cancelled]
            dropped = len(bucket) - len(kept)
            if dropped:
                bucket[:] = kept
                self._ring_count -= dropped
                removed += dropped
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
        if now < time:
            if time - now < self._window:
                bucket = self._ring[time & self._mask]
                if not bucket:
                    heapq.heappush(self._times, time)
                bucket.append(entry)
                self._ring_count += 1
            else:
                self._seq += 1
                heapq.heappush(self._heap, (time, self._seq, entry, _ENTRY))
                self._overflow_scheduled += 1
        elif self.fastpath:
            self._runq.append(entry)
        else:
            self._ring[time & self._mask].append(entry)
            self._ring_count += 1
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
        if now < time:
            if time - now < self._window:
                bucket = self._ring[time & self._mask]
                if not bucket:
                    heapq.heappush(self._times, time)
                bucket.append(fn if arg is _NO_ARG else (fn, arg))
                self._ring_count += 1
            else:
                self._seq += 1
                heapq.heappush(self._heap, (time, self._seq, fn, arg))
                self._overflow_scheduled += 1
        elif time == now:
            if self.fastpath:
                self._runq.append(fn if arg is _NO_ARG else (fn, arg))
            else:
                self._ring[time & self._mask].append(
                    fn if arg is _NO_ARG else (fn, arg))
                self._ring_count += 1
        else:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {now}"
            )

    def call_soon(self, fn: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``fn`` this cycle, after already-pending same-cycle
        events (handle-free)."""
        self.schedule(self.now, fn, arg)

    def timeout(self, delay: int, event: Event, value: Any = None) -> _ScheduledCall:
        """Trigger ``event`` with ``value`` after ``delay`` cycles."""
        return self.call_at(self.now + delay, event.trigger, value)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start driving generator ``gen`` as a process (first step now)."""
        proc = Process(self, gen, name)
        # Defer the first step to the event loop so that creation order
        # does not interleave half-started coroutines.
        self.schedule(self.now, proc._bound_step)
        return proc

    # ------------------------------------------------------------------
    # Queue maintenance
    # ------------------------------------------------------------------
    def _pull_overflow(self, horizon: int) -> None:
        """Move overflow-heap entries with ``time < horizon`` into their
        ring buckets, in ``(time, seq)`` order.

        Called at every clock advance (and after an ``until`` clamp)
        with ``horizon = now + window``, *before* any callback at the
        new ``now`` runs — this eager pull is what makes bucket append
        order equal global schedule order (see the module docstring's
        ordering argument).
        """
        heap = self._heap
        heappop = heapq.heappop
        ring = self._ring
        mask = self._mask
        times = self._times
        pulled = 0
        while heap and heap[0][0] < horizon:
            time, _seq, x, marker = heappop(heap)
            if marker is _ENTRY:
                if x.cancelled:
                    self._cancelled_pending -= 1
                    continue
            elif marker is not _NO_ARG:
                x = (x, marker)
            bucket = ring[time & mask]
            if not bucket:
                heapq.heappush(times, time)
            bucket.append(x)
            pulled += 1
        self._ring_count += pulled

    def _next_live_heap_time(self) -> Optional[int]:
        """Earliest live overflow entry time (pops cancelled heads)."""
        heap = self._heap
        while heap:
            item = heap[0]
            if item[3] is _ENTRY and item[2].cancelled:
                heapq.heappop(heap)
                self._cancelled_pending -= 1
                continue
            return item[0]
        return None

    def _next_ring_time(self) -> Optional[int]:
        """Earliest time after ``now`` with a nonempty bucket, or None.

        Pops stale index entries (at or before ``now``, or whose bucket
        has been emptied) off the occupied-time index; the returned time
        stays indexed until the clock passes it. Every clock advance
        goes through here, so no loop ever probes empty buckets.
        """
        times = self._times
        ring = self._ring
        mask = self._mask
        now = self.now
        while times:
            t = times[0]
            if t > now and ring[t & mask]:
                return t
            heapq.heappop(times)
        if self._ring_count > len(ring[now & mask]):
            raise SimulationError(
                "calendar ring accounting corrupt: "
                f"{self._ring_count} items, none indexed after {now}"
            )
        return None

    def _next_timed_time(self) -> Optional[int]:
        """Earliest live ring or overflow entry time, cleaning cancelled
        entries off bucket fronts; ``None`` when nothing timed remains.
        Does not advance the clock."""
        ring = self._ring
        t = self.now
        while t is not None:
            bucket = ring[t & self._mask]
            while bucket:
                item = bucket[0]
                if (item.__class__ is not _ScheduledCall
                        or not item.cancelled):
                    return t
                del bucket[0]
                self._ring_count -= 1
                self._cancelled_pending -= 1
            t = self._next_ring_time()
        return self._next_live_heap_time()

    def peek_time(self) -> Optional[int]:
        """Earliest pending event time, or None when nothing is pending."""
        runq = self._runq
        while runq:
            item = runq[0]
            if item.__class__ is not _ScheduledCall or not item.cancelled:
                return self.now
            runq.popleft()
            self._cancelled_pending -= 1
        return self._next_timed_time()

    def _clamp_to(self, until: int) -> None:
        """Advance the clock to ``until`` without running anything,
        restoring the overflow invariant (heap times >= now + window)."""
        self.now = until
        heap = self._heap
        if heap and heap[0][0] < until + self._window:
            self._pull_overflow(until + self._window)

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
        bucket consumption on early exit; ``None`` means no bound.

        ``events_executed`` is bumped per event because timeline
        samplers read it from inside a bucket; the secondary counters
        (``ring_events``, ``runq_events``, ``cycle_batches``) are
        flushed once per bucket drain and once per run-queue drain,
        early exits included, so they are exact whenever control is
        back outside the drain."""
        now = self.now
        if until is not None and until < now:
            return now
        ring = self._ring
        mask = self._mask
        runq = self._runq
        heap = self._heap
        window = self._window
        entry_cls = _ScheduledCall
        tuple_cls = tuple
        no_arg = _NO_ARG
        stop_bound = _UNBOUNDED if until is None else until
        budget = _UNBOUNDED if max_events is None else max_events
        executed = 0
        while True:
            bucket = ring[now & mask]
            if bucket:
                i = 0
                drained_from = executed
                while i < len(bucket):
                    if executed >= budget or self._stop:
                        break
                    item = bucket[i]
                    i += 1
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
                del bucket[:i]
                self._ring_count -= i
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
            # Advance: nearest nonempty bucket, else the overflow tier.
            t = self._next_ring_time()
            if t is None:
                t = self._next_live_heap_time()
                if t is None:
                    if until is not None and now < until:
                        self.now = until
                        return until
                    return now
            if t > stop_bound:
                self._clamp_to(until)
                return until
            now = t
            self.now = t
            if heap and heap[0][0] < t + window:
                self._pull_overflow(t + window)

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def ring_events(self) -> int:
        """Events that ran out of a calendar bucket (bucket hits)."""
        return self._ring_executed

    @property
    def runq_events(self) -> int:
        """Events that bypassed timed storage via the same-cycle run
        queue."""
        return self._runq_executed

    @property
    def overflow_scheduled(self) -> int:
        """Entries that landed on the overflow heap at schedule time."""
        return self._overflow_scheduled

    @property
    def cycle_batches(self) -> int:
        """Bucket drains that executed at least one event."""
        return self._cycle_batches

    @property
    def compactions(self) -> int:
        """Times the pending set was swept to shed cancelled entries."""
        return self._compactions

    @property
    def pending(self) -> int:
        """Live (non-cancelled) entries still scheduled."""
        return (len(self._heap) + self._ring_count + len(self._runq)
                - self._cancelled_pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Engine t={self.now} "
            f"pending={len(self._heap) + self._ring_count + len(self._runq)}>"
        )
