"""Property tests: the engine vs a reference heap engine.

The reference engine below *is* the ordering spec: one binary heap of
``(time, seq)`` tuples with ``seq`` incremented on every schedule, so
execution order is exactly global ``(time, seq)`` FIFO, and its
deadline is a held ``call_at`` handle cancelled before every re-arm.
The engine's heap, same-cycle run queue and lazily re-keyed
``Deadline`` carriers must reproduce that order bit-identically —
near and far entries, lazy-deleted cancellations, deadlines re-armed
earlier, later, at the current cycle or cleared — with identical
``events_executed``, ``pending`` and ``peek_time()``, and (for
pre-run cancellation storms) ``compactions`` accounting. Sparse
timelines stress clock advance: wide gaps, ``until`` clamps between
occupied times, and mid-run compactions. The random programs also
drive the engine by ``step()`` and by ``max_events`` chunks, which
must not change the order either.
"""

import heapq
import os
import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_mod
from repro.sim.engine import Engine

#: Delay scale of the random programs: delays fall in bands of a few
#: multiples of it, so same-time collisions are common.
WINDOW = 16


class _RefHandle:
    __slots__ = ("fn", "arg", "cancelled", "engine")

    def __init__(self, fn, arg, engine):
        self.fn = fn
        self.arg = arg
        self.cancelled = False
        self.engine = engine

    def cancel(self):
        if not self.cancelled:
            self.cancelled = True
            if self.engine is not None:  # None once fired
                self.engine._note_cancelled()


class ReferenceEngine:
    """A deliberately naive single-heap engine: the ordering spec.

    Mirrors the public scheduling API (``call_at``/``call_after``/
    ``schedule``/``call_soon``/``run``) and the cancellation +
    compaction accounting rules, with no run queue and no carriers.
    """

    def __init__(self, compact_min=None):
        self.now = 0
        self._heap = []
        self._seq = 0
        self._events = 0
        self._cancelled = 0
        self.compactions = 0
        self._compact_min = (engine_mod._COMPACT_MIN_CANCELLED
                             if compact_min is None else compact_min)

    def _note_cancelled(self):
        self._cancelled += 1
        if (self._cancelled >= self._compact_min
                and self._cancelled * 2 >= len(self._heap)):
            live = [item for item in self._heap if not item[2].cancelled]
            removed = len(self._heap) - len(live)
            self._heap[:] = live
            heapq.heapify(self._heap)
            self._cancelled -= removed
            self.compactions += 1

    def call_at(self, time, fn, arg=engine_mod._NO_ARG):
        if time < self.now:
            raise engine_mod.SimulationError("past")
        handle = _RefHandle(fn, arg, self)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle))
        return handle

    def call_after(self, delay, fn, arg=engine_mod._NO_ARG):
        return self.call_at(self.now + delay, fn, arg)

    def schedule(self, time, fn, arg=engine_mod._NO_ARG):
        self.call_at(time, fn, arg)

    def call_soon(self, fn, arg=engine_mod._NO_ARG):
        self.call_at(self.now, fn, arg)

    def run(self, until=None):
        heap = self._heap
        no_arg = engine_mod._NO_ARG
        while heap:
            time, _seq, handle = heap[0]
            if handle.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            handle.engine = None  # fired: no longer pending
            self.now = time
            self._events += 1
            if handle.arg is no_arg:
                handle.fn()
            else:
                handle.fn(handle.arg)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def peek_time(self):
        for time, _seq, handle in sorted(self._heap):
            if not handle.cancelled:
                return time
        return None

    @property
    def events_executed(self):
        return self._events

    @property
    def pending(self):
        return len(self._heap) - self._cancelled


def _drain(engine, drive):
    """Run ``engine`` to quiescence one of three ways: ``"run"`` (one
    ``run()``), ``"step"`` (``while engine.step()``) or an int ``k``
    (repeated ``run(max_events=k)`` until a chunk executes nothing)."""
    if drive == "run":
        engine.run()
    elif drive == "step":
        while engine.step():
            pass
    else:
        while True:
            executed = engine.events_executed
            engine.run(max_events=drive)
            if engine.events_executed == executed:
                break


#: Engine-side drives; the reference engine always uses ``run()``.
DRIVES = st.one_of(st.sampled_from(["run", "step"]),
                   st.integers(min_value=1, max_value=40))


def _random_program(engine, seed, size, drive="run"):
    """A seeded self-rescheduling workload mixing every primitive.

    Delays are drawn from three bands: same-cycle, near, and far;
    handles are cancelled at random, near and far ones alike.
    ``drive`` (see :func:`_drain`) picks how the engine is run.
    """
    order = []
    rng = random.Random(seed)
    handles = deque()

    def work(tag):
        order.append((engine.now, tag))
        if len(order) >= size:
            return
        for k in range(rng.randrange(3)):
            band = rng.random()
            if band < 0.4:
                delay = rng.randrange(3)
            elif band < 0.8:
                delay = rng.randrange(WINDOW * 3)
            else:
                delay = rng.randrange(WINDOW * 20, WINDOW * 40)
            tag2 = f"{tag}.{k}"
            choice = rng.random()
            if choice < 0.35:
                engine.schedule(engine.now + delay, work, tag2)
            elif choice < 0.45:
                engine.call_soon(work, tag2)
            else:
                handles.append(engine.call_after(delay, work, tag2))
        if handles and rng.random() < 0.25:
            handles.rotate(rng.randrange(len(handles)))
            handles.popleft().cancel()

    for i in range(6):
        engine.schedule(rng.randrange(3), work, str(i))
    _drain(engine, drive)
    return order, engine.events_executed, engine.pending


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), drive=DRIVES)
@settings(max_examples=60, deadline=None)
def test_calendar_matches_reference_heap_order(seed, drive):
    actual = _random_program(Engine(), seed, 400, drive)
    reference = _random_program(ReferenceEngine(), seed, 400)
    assert actual == reference


def _with_env_mode(general, build):
    """Run ``build()`` with REPRO_NO_FASTPATH set iff ``general``.

    Inline env handling: hypothesis reuses one fixture instance across
    examples, so monkeypatch is off-limits here.
    """
    saved = os.environ.get("REPRO_NO_FASTPATH")
    if general:
        os.environ["REPRO_NO_FASTPATH"] = "1"
    else:
        os.environ.pop("REPRO_NO_FASTPATH", None)
    try:
        return build()
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = saved


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), drive=DRIVES)
@settings(max_examples=60, deadline=None)
def test_general_mode_matches_reference_heap_order(seed, drive):
    actual = _with_env_mode(
        True,
        lambda: _random_program(Engine(), seed, 400, drive))
    reference = _random_program(ReferenceEngine(), seed, 400)
    assert actual == reference


@given(
    delays=st.lists(st.integers(min_value=1, max_value=WINDOW * 40),
                    min_size=1, max_size=200),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_cancellation_storm_compaction_accounting(delays, cancel_mask):
    """Pre-run cancellation storms compact identically: the trigger
    rule counts every pending entry the same way in both engines."""
    fired = {"actual": [], "reference": []}

    def load(engine, key):
        handles = [engine.call_after(d, fired[key].append, i)
                   for i, d in enumerate(delays)]
        for handle, cancel in zip(handles, cancel_mask):
            if cancel:
                handle.cancel()
        return engine

    saved = engine_mod._COMPACT_MIN_CANCELLED
    engine_mod._COMPACT_MIN_CANCELLED = 16
    try:
        actual = load(Engine(), "actual")
    finally:
        engine_mod._COMPACT_MIN_CANCELLED = saved
    reference = load(ReferenceEngine(compact_min=16), "reference")
    assert actual.compactions == reference.compactions
    assert actual.pending == reference.pending
    actual.run()
    reference.run()
    assert fired["actual"] == fired["reference"]
    assert actual.events_executed == reference.events_executed
    assert actual.compactions == reference.compactions


def _sparse_program(engine, seed, size):
    """A sparse timeline driven in ``until`` slices.

    Each event schedules one or two successors, mostly at gaps up to
    ``WINDOW - 1`` (so consecutive occupied times sit many empty cycles
    apart) and sometimes further. The run advances in random ``until``
    slices whose clamps land between occupied times; after each slice
    the clock and ``peek_time()`` are recorded.
    """
    order = []
    rng = random.Random(seed)
    handles = []

    def work(tag):
        order.append((engine.now, tag))
        if len(order) >= size:
            return
        for k in range(1 + (rng.random() < 0.3)):
            band = rng.random()
            if band < 0.6:
                delay = rng.randrange(WINDOW // 2, WINDOW)
            elif band < 0.8:
                delay = WINDOW - 1
            else:
                delay = rng.randrange(WINDOW, WINDOW * 5)
            tag2 = f"{tag}.{k}"
            if rng.random() < 0.4:
                engine.schedule(engine.now + delay, work, tag2)
            else:
                handles.append(engine.call_after(delay, work, tag2))
        if handles and rng.random() < 0.2:
            handles.pop(rng.randrange(len(handles))).cancel()

    for i in range(3):
        engine.schedule(rng.randrange(WINDOW), work, str(i))
    slices = []
    until = 0
    while engine.peek_time() is not None:
        until += rng.randrange(1, WINDOW * 3)
        engine.run(until=until)
        slices.append((engine.now, engine.peek_time()))
    return order, slices, engine.events_executed, engine.pending


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       general=st.booleans())
@settings(max_examples=60, deadline=None)
def test_sparse_timeline_with_until_clamps_matches_reference(seed, general):
    actual = _with_env_mode(
        general, lambda: _sparse_program(Engine(), seed, 300))
    reference = _sparse_program(ReferenceEngine(), seed, 300)
    assert actual == reference


def _storm_program(engine, seed, sliced):
    """Cancellation storms over sparse times, mid-run.

    Each storm books a burst of cancellable entries on scattered near
    times and then cancels most of them, so compaction sweeps every
    entry some times held. Some of those times are then booked again,
    and a few entries go further out.
    """
    order = []
    rng = random.Random(seed)

    def work(tag):
        order.append((engine.now, tag))

    def storm(round_):
        order.append((engine.now, f"storm{round_}"))
        burst = []
        for i in range(rng.randrange(20, 60)):
            delay = rng.randrange(1, WINDOW)
            burst.append((delay, engine.call_after(delay, work,
                                                   f"{round_}.{i}")))
        for _delay, handle in burst:
            if rng.random() < 0.85:
                handle.cancel()
        for i, (delay, _handle) in enumerate(burst[:rng.randrange(8)]):
            engine.schedule(engine.now + delay, work, f"{round_}.re{i}")
        for i in range(rng.randrange(3)):
            engine.call_after(rng.randrange(WINDOW, WINDOW * 3), work,
                              f"{round_}.far{i}")
        if round_ < 6:
            engine.call_after(rng.randrange(WINDOW // 2, WINDOW * 2),
                              storm, round_ + 1)

    engine.schedule(0, storm, 0)
    if sliced:
        until = 0
        while engine.peek_time() is not None:
            until += rng.randrange(1, WINDOW)
            engine.run(until=until)
    else:
        engine.run()
    return order, engine.events_executed, engine.pending


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       sliced=st.booleans(), general=st.booleans())
@settings(max_examples=60, deadline=None)
def test_midrun_compaction_of_indexed_buckets_matches_reference(
        seed, sliced, general):
    saved = engine_mod._COMPACT_MIN_CANCELLED
    engine_mod._COMPACT_MIN_CANCELLED = 8
    try:
        engine = _with_env_mode(general, lambda: Engine())
        actual = _storm_program(engine, seed, sliced)
    finally:
        engine_mod._COMPACT_MIN_CANCELLED = saved
    reference = _storm_program(ReferenceEngine(), seed, sliced)
    assert engine.compactions > 0
    assert actual == reference


class ReferenceDeadline:
    """The spec a :class:`~repro.sim.engine.Deadline` must match: hold
    the latest ``call_at`` handle, cancel it before every re-arm."""

    def __init__(self, engine):
        self.engine = engine
        self.handle = None

    def arm(self, time, fn, arg=engine_mod._NO_ARG):
        self.clear()
        self.handle = self.engine.call_at(time, self._fire, (fn, arg))

    def clear(self):
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None

    def _fire(self, pair):
        self.handle = None
        fn, arg = pair
        if arg is engine_mod._NO_ARG:
            fn()
        else:
            fn(arg)


def _deadline_program(engine, make_deadline, seed, size, drive):
    """Random arm/clear/re-arm traffic on a few deadlines, mixed with
    ordinary schedules and cancels.

    Every callback records the clock, its tag, ``pending`` and
    ``peek_time()``. Re-arms land earlier, later, at the same time or
    at the current cycle; clears hit armed and idle deadlines. ``drive``
    is ``"run"``, ``"step"``, an int ``k`` (``max_events`` chunks) or
    ``"until"`` (random ``until`` slices, recording the clock,
    ``pending`` and ``peek_time()`` after each).
    """
    order = []
    rng = random.Random(seed)
    handles = deque()
    deadlines = [make_deadline(engine) for _ in range(3)]

    def delay():
        band = rng.random()
        if band < 0.25:
            return 0
        if band < 0.8:
            return rng.randrange(1, WINDOW)
        return rng.randrange(WINDOW, WINDOW * 8)

    def work(tag):
        order.append((engine.now, tag, engine.pending, engine.peek_time()))
        if len(order) >= size:
            return
        for k in range(rng.randrange(4)):
            tag2 = f"{tag}.{k}"
            action = rng.random()
            if action < 0.4:
                i = rng.randrange(len(deadlines))
                deadlines[i].arm(engine.now + delay(), work, f"{tag2}/d{i}")
            elif action < 0.55:
                deadlines[rng.randrange(len(deadlines))].clear()
            elif action < 0.75:
                engine.schedule(engine.now + delay(), work, tag2)
            elif action < 0.8:
                engine.call_soon(work, tag2)
            else:
                handles.append(engine.call_after(delay(), work, tag2))
        if handles and rng.random() < 0.25:
            handles.rotate(rng.randrange(len(handles)))
            handles.popleft().cancel()

    for i in range(3):
        engine.schedule(rng.randrange(3), work, str(i))
    deadlines[0].arm(rng.randrange(1, WINDOW), work, "d0")
    slices = []
    if drive == "until":
        until = 0
        while engine.peek_time() is not None:
            until += rng.randrange(1, WINDOW * 2)
            engine.run(until=until)
            slices.append((engine.now, engine.pending, engine.peek_time()))
    else:
        _drain(engine, drive)
    return (order, slices, engine.events_executed, engine.pending,
            engine.peek_time())


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       drive=st.one_of(st.sampled_from(["run", "step", "until"]),
                       st.integers(min_value=1, max_value=40)),
       general=st.booleans())
@settings(max_examples=80, deadline=None)
def test_deadline_matches_cancel_and_call_at(seed, drive, general):
    actual = _with_env_mode(
        general, lambda: _deadline_program(
            Engine(), engine_mod.Deadline, seed, 300, drive))
    # The reference has no step(): a stepped or chunked engine run is
    # compared with one reference run (same callbacks, same records).
    reference = _deadline_program(
        ReferenceEngine(), ReferenceDeadline, seed, 300,
        "until" if drive == "until" else "run")
    assert actual == reference
