"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event, EventAlreadyTriggered


class TestScheduling:
    def test_call_after_runs_in_time_order(self, engine):
        order = []
        engine.call_after(20, lambda: order.append("b"))
        engine.call_after(10, lambda: order.append("a"))
        engine.call_after(30, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 30

    def test_same_time_callbacks_run_fifo(self, engine):
        order = []
        for tag in ("first", "second", "third"):
            engine.call_after(5, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["first", "second", "third"]

    def test_cancel_prevents_execution(self, engine):
        fired = []
        entry = engine.call_after(10, lambda: fired.append(1))
        entry.cancel()
        engine.run()
        assert fired == []

    def test_cannot_schedule_in_the_past(self, engine):
        engine.call_after(10, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(5, lambda: None)

    def test_run_until_stops_clock_at_bound(self, engine):
        engine.call_after(100, lambda: None)
        engine.run(until=40)
        assert engine.now == 40
        engine.run()
        assert engine.now == 100

    def test_run_max_events(self, engine):
        count = []
        for _ in range(5):
            engine.call_after(1, lambda: count.append(1))
        engine.run(max_events=3)
        assert len(count) == 3

    def test_step_returns_false_when_empty(self, engine):
        assert engine.step() is False

    def test_step_ignores_stop_left_by_earlier_run(self, engine):
        ran = []
        engine.call_at(5, engine.stop)
        engine.call_at(9, ran.append, "f")
        assert engine.run() == 5
        assert ran == []
        assert engine.step() is True
        assert ran == ["f"]
        assert engine.now == 9

    def test_step_after_stop_on_fresh_engine(self, engine):
        ran = []
        engine.call_at(3, ran.append, "f")
        engine.stop()
        assert engine.step() is True
        assert ran == ["f"]
        assert engine.step() is False

    def test_stepped_ring_event_counts_as_one_batch(self, engine):
        for _ in range(3):
            engine.call_at(4, lambda: None)
        while engine.step():
            pass
        assert engine.ring_events == 3
        assert engine.cycle_batches == 3

    def test_peek_time_skips_cancelled(self, engine):
        entry = engine.call_after(5, lambda: None)
        engine.call_after(9, lambda: None)
        entry.cancel()
        assert engine.peek_time() == 9


class TestEvents:
    def test_double_trigger_raises(self):
        event = Event("x")
        event.trigger()
        with pytest.raises(EventAlreadyTriggered):
            event.trigger()

    def test_late_subscribe_fires_immediately(self):
        event = Event()
        event.trigger(5)
        seen = []
        event.subscribe(seen.append)
        assert seen == [5]

    def test_unsubscribe_removes_callback(self):
        event = Event()
        seen = []
        event.subscribe(seen.append)
        event.unsubscribe(seen.append)
        event.trigger(1)
        assert seen == []

    def test_multiple_subscribers_all_fire(self):
        event = Event()
        seen = []
        event.subscribe(lambda v: seen.append(("a", v)))
        event.subscribe(lambda v: seen.append(("b", v)))
        event.trigger(9)
        assert seen == [("a", 9), ("b", 9)]


class TestHeapCompaction:
    """Lazy-deleted entries are compacted away when they dominate."""

    def test_heavy_cancellation_triggers_compaction(self, engine):
        # Schedule far-future callbacks and cancel almost all of them:
        # without compaction the heap would hold every dead entry until
        # its timestamp is reached.
        live = []
        for i in range(5000):
            entry = engine.call_at(1_000_000 + i, lambda i=i: live.append(i))
            if i % 50 != 0:
                entry.cancel()
        assert engine.compactions > 0
        # The heap sheds the cancelled majority long before they expire.
        assert len(engine._heap) < 2500
        engine.run()
        assert live == [i for i in range(5000) if i % 50 == 0]

    def test_compaction_preserves_order_and_results(self, engine):
        order = []
        entries = []
        for i in range(4000):
            entries.append(engine.call_at(10 + i, lambda i=i: order.append(i)))
        # Cancel every odd entry to cross the compaction threshold.
        for i, entry in enumerate(entries):
            if i % 2:
                entry.cancel()
        # Push more work afterwards so compaction interleaves with
        # scheduling; then everything still fires in time order.
        for i in range(4000, 4100):
            engine.call_at(10 + i, lambda i=i: order.append(i))
        engine.run()
        expected = [i for i in range(4000) if i % 2 == 0]
        expected += list(range(4000, 4100))
        assert order == expected

    def test_pending_counts_only_live_entries(self, engine):
        keep = engine.call_after(5, lambda: None)
        dead = engine.call_after(6, lambda: None)
        dead.cancel()
        assert engine.pending == 1
        engine.run()
        assert engine.pending == 0
        assert keep.cancelled is False

    def test_double_cancel_counts_once(self, engine):
        entry = engine.call_after(5, lambda: None)
        entry.cancel()
        entry.cancel()
        assert engine._cancelled_pending == 1
        engine.run()
        assert engine._cancelled_pending == 0


class TestEntryReuse:
    """Every ``call_at`` handle names one callback, for good: holding,
    firing or cancelling one never reaches another."""

    def test_recycled_entries_produce_correct_schedule(self, engine):
        order = []
        def chain(i):
            if i < 500:
                engine.call_after(1, lambda: chain(i + 1))
                order.append(i)
        engine.call_after(1, lambda: chain(0))
        engine.run()
        assert order == list(range(500))

    def test_held_entry_is_not_recycled(self, engine):
        fired = []
        held = engine.call_after(1, lambda: fired.append("held"))
        engine.run()
        assert fired == ["held"]
        # Schedule more work after `held` fired, then cancel through the
        # stale handle: none of the later callbacks may be affected.
        for i in range(2, 50):
            engine.call_after(i, lambda i=i: fired.append(i))
        held.cancel()
        engine.run()
        assert fired == ["held"] + list(range(2, 50))

    def test_entry_cancelled_before_its_time_never_runs(self, engine):
        fired = []
        doomed = engine.call_after(5, lambda: fired.append("doomed"))
        for i in range(1, 10):
            engine.call_after(i, lambda i=i: fired.append(i))
        engine.run(until=3)
        doomed.cancel()
        engine.run()
        assert fired == list(range(1, 10))


@pytest.fixture(params=[True, False], ids=["fastpath", "no_fastpath"])
def mode_engine(request, monkeypatch):
    """An engine built with and without ``REPRO_NO_FASTPATH=1``."""
    if request.param:
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    else:
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    engine = Engine()
    assert engine.fastpath is request.param
    return engine


def _split_counts_agree(engine):
    return engine.ring_events + engine.runq_events == engine.events_executed


class TestCounterExactness:
    """``events_executed`` is exact per event in bounded runs; the
    per-drain counters are exact whenever ``run()`` has returned."""

    @pytest.mark.parametrize("drive", [
        lambda e: e.run(until=100),
        lambda e: e.run(max_events=50),
        lambda e: [e.step() for _ in range(10)],
    ], ids=["until", "max_events", "step"])
    def test_same_time_callbacks_see_consecutive_counts(self, mode_engine,
                                                        drive):
        engine = mode_engine
        seen = []
        def read():
            seen.append(engine.events_executed)
        def fan_out():
            # Same-cycle follow-ups: run queue or live bucket by mode.
            for _ in range(3):
                engine.call_soon(read)
        for _ in range(3):
            engine.call_at(5, read)
        engine.call_at(7, fan_out)
        drive(engine)
        # The count includes the running event itself.
        assert seen == [1, 2, 3, 5, 6, 7]
        assert engine.events_executed == 7
        assert _split_counts_agree(engine)

    def test_max_events_stop_mid_bucket(self, mode_engine):
        engine = mode_engine
        log = []
        def first():
            log.append("a")
            engine.call_soon(log.append, "x1")
            engine.call_soon(log.append, "x2")
        engine.call_at(1, first)
        for tag in "bcd":
            engine.call_at(1, log.append, tag)

        engine.run(max_events=2)
        assert log == ["a", "b"]
        assert engine.events_executed == 2
        assert engine.ring_events == 2 and engine.runq_events == 0
        assert engine.cycle_batches == 1

        engine.run(max_events=3)
        assert log == ["a", "b", "c", "d", "x1"]
        assert engine.events_executed == 5
        assert _split_counts_agree(engine)
        # The resumed bucket drain is a second batch; x1 ran off the run
        # queue (fast path) or from the same bucket (general mode).
        assert engine.cycle_batches == 2
        assert engine.runq_events == (1 if engine.fastpath else 0)

        engine.run(until=10)
        assert log == ["a", "b", "c", "d", "x1", "x2"]
        assert engine.events_executed == 6
        assert _split_counts_agree(engine)
        # General mode resumes the bucket for x2: a third batch.
        assert engine.cycle_batches == (2 if engine.fastpath else 3)
        assert engine.runq_events == (2 if engine.fastpath else 0)

    def test_stop_from_inside_a_bucket(self, mode_engine):
        engine = mode_engine
        log = []
        def first():
            log.append("a")
            engine.call_soon(log.append, "y")
        def halt():
            log.append("b")
            engine.stop()
        engine.call_at(1, first)
        engine.call_at(1, halt)
        engine.call_at(1, log.append, "c")
        engine.call_at(4, log.append, "d")

        assert engine.run(until=10) == 1
        assert log == ["a", "b"]
        assert engine.events_executed == 2
        assert engine.ring_events == 2 and engine.runq_events == 0
        assert engine.cycle_batches == 1

        engine.run(until=10)
        assert log == ["a", "b", "c", "y", "d"]
        assert engine.events_executed == 5
        assert _split_counts_agree(engine)
        # Buckets drained: t=1 twice (before and after the stop), t=4.
        assert engine.cycle_batches == 3
        assert engine.runq_events == (1 if engine.fastpath else 0)


class TestCancelAfterFiring:
    """A handle that has fired is no longer pending, so cancelling it
    afterwards must neither count as a pending cancellation nor push
    the engine toward a compaction."""

    @pytest.mark.parametrize("drive", ["run", "run_until", "step"])
    def test_late_cancel_leaves_pending_and_compactions_alone(
            self, mode_engine, drive):
        engine = mode_engine
        fired = []

        def same_cycle():
            # Scheduled at `now`: the run-queue (or live-bucket) shape.
            fired.append(engine.call_at(engine.now, lambda: None))

        for i in range(600):
            fired.append(engine.call_after(1 + i % 3, lambda: None))
        engine.call_at(2, same_cycle)
        if drive == "run":
            engine.run()
        elif drive == "run_until":
            engine.run(until=10)
        else:
            while engine.step():
                pass
        assert engine.pending == 0

        live = engine.call_after(100, lambda: None)
        for handle in fired:
            handle.cancel()
        assert engine.pending == 1
        assert engine.compactions == 0
        live.cancel()
        assert engine.pending == 0
