"""Unit tests for the engine's timed storage: one ``(time, seq)`` heap
plus re-armable :class:`~repro.sim.engine.Deadline` wakes.

The classes up to ``TestCustomWindow`` keep the names they had when
timed storage was a calendar ring with an overflow heap: "ring" means
a near-future timed entry (still counted by ``ring_events``),
"overflow" a far-future one, and "window" the ring's old 4096-cycle
span. Their bodies check the same behaviours on the single heap:
order across near and far entries, cancellation, compaction
accounting, the counters (``overflow_scheduled`` now always reads 0)
and ``stop()``. The later classes cover the heap's order directly and
the ``Deadline`` carrier scheme: re-arming earlier and later,
clear-then-re-arm, and ``pending``/``peek_time`` while stale carriers
sit at the heap top.
"""

import pytest

import repro.sim.engine as engine_mod
from repro.sim.engine import Deadline, Engine, SimulationError

#: The calendar ring's span, kept as a distance scale: entries this far
#: out used to take the overflow tier.
OLD_WINDOW = 4096


class TestTiering:
    def test_near_future_takes_ring(self):
        engine = Engine()
        engine.call_after(OLD_WINDOW - 1, lambda: None)
        assert engine.pending == 1
        assert engine.peek_time() == OLD_WINDOW - 1
        engine.run()
        assert engine.ring_events == 1
        assert engine.runq_events == 0

    def test_window_boundary_takes_overflow_heap(self):
        """Far-future entries take the one heap; nothing counts as an
        overflow insert any more."""
        engine = Engine()
        engine.call_after(OLD_WINDOW, lambda: None)
        engine.call_after(OLD_WINDOW * 100, lambda: None)
        assert engine.pending == 2
        assert engine.overflow_scheduled == 0
        engine.run()
        assert engine.ring_events == 2
        assert engine.now == OLD_WINDOW * 100
        assert engine.overflow_scheduled == 0

    def test_schedule_tiers_like_call_at(self):
        """``schedule`` and ``call_at`` entries share one order."""
        engine = Engine()
        fired = []
        engine.schedule(OLD_WINDOW, fired.append, "schedule-far")
        engine.call_at(OLD_WINDOW - 1, fired.append, "call_at-near")
        engine.call_at(OLD_WINDOW, fired.append, "call_at-far")
        engine.schedule(OLD_WINDOW - 1, fired.append, "schedule-near")
        engine.run()
        assert fired == ["call_at-near", "schedule-near",
                         "schedule-far", "call_at-far"]

    def test_overflow_entries_execute_in_order(self):
        engine = Engine()
        fired = []
        # Far-future entries, scheduled out of order.
        for t in (300, 100, 200, 100):
            engine.schedule(t, fired.append, t)
        engine.call_after(3, fired.append, 3)
        engine.run()
        assert fired == [3, 100, 100, 200, 300]
        assert engine.now == 300
        assert engine.overflow_scheduled == 0
        assert engine.ring_events == 5

    def test_overflow_pull_precedes_direct_inserts_at_same_time(self):
        """An entry at time T scheduled long before runs before one
        scheduled for T later on — (time, seq) FIFO."""
        engine = Engine()
        order = []
        target = 40
        engine.schedule(target, order.append, "early")

        def late_inserter():
            engine.schedule(target, order.append, "late")

        engine.schedule(30, late_inserter)
        engine.run()
        assert order == ["early", "late"]

    def test_delay_beyond_window_rides_overflow(self):
        engine = Engine()
        trace = []

        def far():
            trace.append(engine.now)

        def near():
            trace.append(engine.now)
            engine.schedule(engine.now + OLD_WINDOW * 3, far)

        engine.schedule(2, near)
        engine.run()
        assert trace == [2, 2 + OLD_WINDOW * 3]
        assert engine.overflow_scheduled == 0


class TestCancellationPerTier:
    def test_cancel_ring_entry(self):
        engine = Engine()
        ran = []
        entry = engine.call_after(5, ran.append, 1)
        entry.cancel()
        assert engine.pending == 0
        engine.run()
        assert ran == []
        assert engine.events_executed == 0

    def test_cancel_overflow_entry(self):
        engine = Engine()
        ran = []
        entry = engine.call_after(OLD_WINDOW * 2, ran.append, 1)
        engine.call_after(3, ran.append, 2)
        entry.cancel()
        assert engine.pending == 1
        engine.run()
        assert ran == [2]
        assert engine.now == 3

    def test_cancel_pulled_overflow_entry(self):
        """Cancelling a far entry once the clock has come close."""
        engine = Engine()
        ran = []
        entry = engine.call_at(OLD_WINDOW + 40, ran.append, "cancelled")
        engine.call_at(OLD_WINDOW + 35, entry.cancel)
        engine.run()
        assert ran == []
        assert engine.events_executed == 1
        assert engine.now == OLD_WINDOW + 35

    def test_peek_time_skips_cancelled_per_tier(self):
        engine = Engine()
        near = engine.call_after(3, lambda: None)
        far = engine.call_after(OLD_WINDOW * 2, lambda: None)
        assert engine.peek_time() == 3
        near.cancel()
        assert engine.peek_time() == OLD_WINDOW * 2
        far.cancel()
        assert engine.peek_time() is None

    def test_compaction_exact_accounting_across_tiers(self):
        engine = Engine()
        keep_near = engine.call_after(5, lambda: None)
        keep_far = engine.call_after(OLD_WINDOW * 2, lambda: None)
        cancelled = []
        for i in range(600):
            cancelled.append(engine.call_after(1000 + i, lambda: None))
        assert engine.pending == 602
        for entry in cancelled:
            entry.cancel()
        assert engine.compactions >= 1
        # The sweep fires on the cancellation crossing the threshold
        # and removes exactly the entries cancelled so far; the rest
        # stay lazily deleted (below threshold), with exact accounting.
        threshold = engine_mod._COMPACT_MIN_CANCELLED
        assert engine._cancelled_pending == 600 - threshold
        assert engine.pending == 2
        assert not keep_near.cancelled and not keep_far.cancelled
        engine.run()
        assert engine.events_executed == 2


class TestCountersAndStop:
    def test_tier_counters_partition_events(self):
        engine = Engine()
        engine.call_soon(lambda: None)
        engine.call_after(3, lambda: None)
        engine.call_after(OLD_WINDOW * 2, lambda: None)
        engine.run()
        assert engine.events_executed == 3
        assert engine.overflow_scheduled == 0
        assert engine.ring_events + engine.runq_events == \
            engine.events_executed
        if engine.fastpath:
            assert engine.runq_events == 1
            assert engine.ring_events == 2
        else:
            # General mode: the same-cycle schedule took the heap.
            assert engine.runq_events == 0
            assert engine.ring_events == 3

    def test_cycle_batches_count_bucket_drains(self):
        engine = Engine()
        for t in (5, 5, 5, 9):
            engine.call_at(t, lambda: None)
        engine.run()
        assert engine.cycle_batches == 2
        assert engine.ring_events == 4

    def test_stop_halts_unbounded_run(self):
        engine = Engine()
        ran = []
        engine.call_after(5, ran.append, 5)
        engine.call_after(5, engine.stop)
        engine.call_after(50, ran.append, 50)
        engine.run()
        assert ran == [5]
        assert engine.now == 5
        assert engine.pending == 1
        engine.run()  # stop flag is cleared by run()
        assert ran == [5, 50]

    def test_stop_accepts_event_value(self):
        from repro.sim.events import Event

        engine = Engine()
        done = Event("done")
        done.subscribe(engine.stop)
        engine.call_after(5, done.trigger, "value")
        engine.call_after(50, lambda: None)
        engine.run()
        assert engine.now == 5

    def test_timed_follow_up_counts_as_ring_event(self):
        engine = Engine()

        def start():
            engine.schedule(engine.now + 7, lambda: None)

        engine.schedule(engine.now, start)
        engine.run()
        if engine.fastpath:
            # the start (runq) + one timed follow-up (heap).
            assert engine.runq_events == 1
            assert engine.ring_events == 1
        else:
            assert engine.runq_events == 0
            assert engine.ring_events == 2
        assert engine.cycle_batches == 1 + (not engine.fastpath)


class TestCustomWindow:
    def test_tiny_window_still_correct(self):
        engine = Engine()
        fired = []
        for t in (9, 4, 4, 100, 1):
            engine.schedule(t, fired.append, t)
        engine.run()
        assert fired == [1, 4, 4, 9, 100]

    def test_step_walks_both_tiers(self):
        engine = Engine()
        fired = []
        engine.call_soon(fired.append, "now")
        engine.call_after(3, fired.append, "near")
        engine.call_after(OLD_WINDOW * 2, fired.append, "far")
        while engine.step():
            pass
        assert fired == ["now", "near", "far"]
        assert engine.now == OLD_WINDOW * 2
        assert engine.step() is False


class TestHeapOrder:
    def test_same_time_runs_in_schedule_order_across_kinds(self):
        engine = Engine()
        fired = []
        dl = Deadline(engine)
        engine.schedule(10, fired.append, "a")
        engine.call_at(10, fired.append, "b")
        dl.arm(10, fired.append, "deadline")
        engine.schedule(10, fired.append, "c")
        engine.run()
        assert fired == ["a", "b", "deadline", "c"]

    def test_deadline_in_the_past_rejected(self):
        engine = Engine()
        engine.call_after(5, lambda: None)
        engine.run()
        deadline = Deadline(engine)
        with pytest.raises(SimulationError):
            deadline.arm(4, lambda: None)
        assert not deadline.armed
        assert engine.pending == 0


class TestDeadline:
    def test_fires_once_with_arg(self):
        engine = Engine()
        fired = []
        dl = Deadline(engine)
        assert not dl.armed and dl.time is None
        dl.arm(20, fired.append, "x")
        assert dl.armed and dl.time == 20
        assert engine.pending == 1
        engine.run()
        assert fired == ["x"]
        assert engine.now == 20
        assert not dl.armed and dl.time is None
        assert engine.events_executed == 1

    def test_rearm_later_fires_at_new_time_in_new_seq_slot(self):
        """Re-arming later keeps the old carrier; it re-pushes under
        the live key, which sorts after entries scheduled in between."""
        engine = Engine()
        fired = []
        dl = Deadline(engine)
        dl.arm(10, fired.append, "first")
        engine.schedule(30, fired.append, "before")
        dl.arm(30, fired.append, "deadline")
        engine.schedule(30, fired.append, "after")
        assert engine.pending == 3
        assert engine.peek_time() == 30
        engine.run()
        assert fired == ["before", "deadline", "after"]
        assert engine.events_executed == 3
        assert engine.pending == 0

    def test_rearm_earlier_pushes_a_second_carrier(self):
        engine = Engine()
        fired = []
        dl = Deadline(engine)
        dl.arm(100, fired.append, "late")
        dl.arm(40, fired.append, "early")
        assert engine.pending == 1
        assert engine.peek_time() == 40
        engine.run()
        assert fired == ["early"]
        assert engine.now == 40
        assert engine.pending == 0
        assert engine.events_executed == 1

    def test_rearm_to_the_same_time_takes_a_new_seq(self):
        engine = Engine()
        fired = []
        dl = Deadline(engine)
        dl.arm(10, fired.append, "deadline")
        engine.schedule(10, fired.append, "between")
        dl.arm(10, fired.append, "deadline")
        engine.run()
        assert fired == ["between", "deadline"]

    def test_clear_then_rearm(self):
        engine = Engine()
        fired = []
        dl = Deadline(engine)
        dl.arm(10, fired.append, "cleared")
        dl.clear()
        assert not dl.armed
        assert engine.pending == 0
        assert engine.peek_time() is None
        dl.arm(10, fired.append, "rearmed")
        assert engine.pending == 1
        dl.clear()
        dl.arm(25, fired.append, "later")
        engine.run()
        assert fired == ["later"]
        assert engine.now == 25

    def test_cleared_deadline_leaves_clock_alone(self):
        engine = Engine()
        dl = Deadline(engine)
        dl.arm(1000, lambda: None)
        engine.call_after(5, dl.clear)
        assert engine.run() == 5
        assert engine.events_executed == 1

    def test_stale_carriers_at_heap_top(self):
        """``pending`` and ``peek_time`` look past stale carriers."""
        engine = Engine()
        a, b = Deadline(engine), Deadline(engine)
        a.arm(5, lambda: None)
        b.arm(6, lambda: None)
        engine.schedule(50, lambda: None)
        a.arm(70, lambda: None)   # carrier at 5 now stale (re-armed)
        b.clear()                 # carrier at 6 now dead
        assert engine.pending == 2
        assert engine.peek_time() == 50
        assert engine.pending == 2
        assert engine.run(until=60) == 60
        assert engine.events_executed == 1
        assert engine.peek_time() == 70
        engine.run()
        assert engine.events_executed == 2
        assert engine.pending == 0

    def test_arm_at_now_joins_this_cycle(self):
        engine = Engine()
        fired = []
        dl = Deadline(engine)

        def at_five():
            engine.call_soon(fired.append, "soon")
            dl.arm(engine.now, fired.append, "deadline")
            engine.call_soon(fired.append, "after")

        engine.schedule(5, at_five)
        dl.arm(9, fired.append, "replaced")
        engine.run()
        assert fired == ["soon", "deadline", "after"]
        assert engine.now == 5
        assert engine.pending == 0

    def test_rearm_from_its_own_callback(self):
        engine = Engine()
        times = []
        dl = Deadline(engine)

        def tick():
            times.append(engine.now)
            if len(times) < 4:
                dl.arm(engine.now + 3, tick)

        dl.arm(3, tick)
        engine.run()
        assert times == [3, 6, 9, 12]
        assert engine.events_executed == 4

    def test_step_skips_stale_carriers(self):
        engine = Engine()
        fired = []
        dl = Deadline(engine)
        dl.arm(5, fired.append, "stale")
        dl.arm(20, fired.append, "live")
        engine.schedule(10, fired.append, "other")
        assert engine.step()
        assert fired == ["other"] and engine.now == 10
        assert engine.step()
        assert fired == ["other", "live"] and engine.now == 20
        assert engine.step() is False

    def test_compaction_under_cancellation_storm(self):
        """A storm of cancelled handles compacts around live and stale
        carriers without disturbing them."""
        engine = Engine()
        fired = []
        dl = Deadline(engine)
        dl.arm(3000, fired.append, "stale")
        dl.arm(2500, fired.append, "deadline")
        entries = [engine.call_at(100 + i, fired.append, i)
                   for i in range(2000)]
        for i, entry in enumerate(entries):
            if i % 40:
                entry.cancel()
        assert engine.compactions >= 1
        assert engine.pending == 50 + 1
        engine.run()
        assert fired == list(range(0, 2000, 40)) + ["deadline"]
        assert engine.pending == 0
