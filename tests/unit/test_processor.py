"""Unit tests for the preemptible processor model."""

import pytest

from repro.machine.processor import (
    Frame, FrameState, Processor, Spin,
)
from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event


@pytest.fixture
def cpu():
    engine = Engine()
    return engine, Processor(engine, node_id=0)


def spin(trace, engine, label, chunks, size=10):
    for _ in range(chunks):
        yield size
        trace.append((label, engine.now))


class TestIntCompute:
    """A frame's compute is a plain ``int`` of cycles."""

    def test_zero_compute_schedules_no_event(self, cpu):
        engine, proc = cpu

        def gen():
            yield 0
            yield 0
            return "done"

        frame = Frame(gen(), "z")
        proc.push_frame(frame)
        engine.run()
        # The kick is the only event: each zero continued in place.
        assert engine.events_executed == 1
        assert engine.now == 0 and proc.busy_cycles == 0
        assert frame.result == "done"

    def test_negative_compute_rejected(self, cpu):
        engine, proc = cpu

        def gen():
            yield -1

        proc.push_frame(Frame(gen(), "n"))
        with pytest.raises(ValueError, match="negative compute"):
            engine.run()

    @pytest.mark.parametrize("op", [True, 2.5])
    def test_bool_and_float_are_not_cycle_counts(self, cpu, op):
        engine, proc = cpu

        def gen():
            yield op

        proc.push_frame(Frame(gen(), "t"))
        with pytest.raises(SimulationError, match="unsupported"):
            engine.run()

    def test_wake_for_non_top_frame_raises(self, cpu):
        engine, proc = cpu

        def gen():
            yield 100

        low = Frame(gen(), "low")
        proc.push_frame(low)
        engine.run(until=10)
        proc.push_frame(Frame(gen(), "high"))
        engine.run(until=20)
        # A wake that outlived its frame's suspension must not step it.
        proc._wake.arm(engine.now + 1, proc._advance, low)
        with pytest.raises(SimulationError, match="non-top frame low"):
            engine.run()


class TestBasicExecution:
    def test_single_frame_runs_to_completion(self, cpu):
        engine, proc = cpu
        trace = []
        proc.push_frame(Frame(spin(trace, engine, "a", 3), "a"))
        engine.run()
        assert trace == [("a", 10), ("a", 20), ("a", 30)]
        assert proc.idle

    def test_frame_result_and_on_done(self, cpu):
        engine, proc = cpu
        results = []

        def gen():
            yield 5
            return "finished"

        proc.push_frame(Frame(gen(), "g", on_done=results.append))
        engine.run()
        assert results == ["finished"]

    def test_event_wait_resumes_with_value(self, cpu):
        engine, proc = cpu
        event = Event()
        got = []

        def gen():
            value = yield event
            got.append((engine.now, value))

        proc.push_frame(Frame(gen(), "w"))
        engine.call_at(engine.now + 30, event.trigger, "data")
        engine.run()
        assert got == [(30, "data")]

    def test_zero_compute_continues_inline(self, cpu):
        engine, proc = cpu
        trace = []

        def gen():
            yield 0
            trace.append(engine.now)

        proc.push_frame(Frame(gen(), "z"))
        engine.run()
        assert trace == [0]


class TestPreemption:
    def test_kernel_frame_preempts_user_compute(self, cpu):
        engine, proc = cpu
        trace = []

        def user():
            yield 100
            trace.append(("user-done", engine.now))

        def kernel():
            yield 20
            trace.append(("kernel-done", engine.now))

        proc.push_frame(Frame(user(), "user"))
        engine.call_after(
            40, lambda: proc.raise_kernel(
                lambda: Frame(kernel(), "k", kernel=True))
        )
        engine.run()
        # Kernel runs 40..60; the user's remaining 60 cycles follow.
        assert trace == [("kernel-done", 60), ("user-done", 120)]

    def test_nested_kernel_interrupts_queue(self, cpu):
        engine, proc = cpu
        trace = []

        def user():
            yield 1000
            trace.append("user")

        def kernel(tag, length):
            yield length
            trace.append(tag)

        proc.push_frame(Frame(user(), "user"))

        def raise_both():
            proc.raise_kernel(lambda: Frame(kernel("k1", 50), "k1",
                                            kernel=True))
            proc.raise_kernel(lambda: Frame(kernel("k2", 50), "k2",
                                            kernel=True))

        engine.call_after(10, raise_both)
        engine.run()
        assert trace == ["k1", "k2", "user"]

    def test_factory_returning_none_aborts_delivery(self, cpu):
        engine, proc = cpu
        trace = []

        def user():
            yield 50
            trace.append("user")

        proc.push_frame(Frame(user(), "user"))
        engine.call_after(10, lambda: proc.raise_kernel(lambda: None))
        engine.run()
        assert trace == ["user"]

    def test_user_upcall_preempts_user_frame(self, cpu):
        engine, proc = cpu
        trace = []

        def base():
            yield 100
            trace.append(("base", engine.now))

        def upcall():
            yield 10
            trace.append(("upcall", engine.now))

        proc.push_frame(Frame(base(), "base"))
        engine.call_after(
            30, lambda: proc.raise_user_upcall(
                lambda: Frame(upcall(), "up"))
        )
        engine.run()
        assert trace == [("upcall", 40), ("base", 110)]

    def test_upcall_dropped_while_kernel_running(self, cpu):
        engine, proc = cpu
        trace = []

        def kernel():
            yield 100
            trace.append("kernel")

        proc.push_frame(Frame(kernel(), "k", kernel=True))
        engine.call_after(
            10, lambda: proc.raise_user_upcall(
                lambda: Frame(iter(()), "up"))
        )
        engine.run()
        assert trace == ["kernel"]

    def test_event_fired_while_preempted_is_kept(self, cpu):
        engine, proc = cpu
        event = Event()
        trace = []

        def base():
            value = yield event
            trace.append((value, engine.now))

        def kernel():
            yield 50

        proc.push_frame(Frame(base(), "base"))
        engine.call_after(5, lambda: proc.raise_kernel(
            lambda: Frame(kernel(), "k", kernel=True)))
        engine.call_at(engine.now + 20, event.trigger, "late")  # mid-kernel
        engine.run()
        assert trace == [("late", 55)]


class TestContextSwitch:
    def test_capture_and_install_resume_compute_remainder(self, cpu):
        engine, proc = cpu
        trace = []

        def user():
            yield 100
            trace.append(("user", engine.now))

        def switcher():
            yield 10
            frames = proc.capture_user_frames()
            assert len(frames) == 1
            # Hold the frames out for 200 cycles, then reinstall.
            engine.call_after(
                200, lambda: proc.install_user_frames(frames)
            )

        proc.push_frame(Frame(user(), "user"))
        engine.call_after(30, lambda: proc.raise_kernel(
            lambda: Frame(switcher(), "cs", kernel=True)))
        engine.run()
        # 30 cycles ran, 70 remain; reinstalled at 240 -> done at 310.
        assert trace == [("user", 310)]

    def test_install_over_user_frames_rejected(self, cpu):
        engine, proc = cpu

        def user():
            yield 1000

        proc.push_frame(Frame(user(), "user"))
        engine.run(until=10)
        with pytest.raises(SimulationError):
            proc.install_user_frames([Frame(user(), "u2")])

    def test_user_depth_counts_only_bottom_segment(self, cpu):
        engine, proc = cpu

        def forever():
            yield 10_000

        proc.push_frame(Frame(forever(), "u1"))
        engine.run(until=5)
        proc.push_frame(Frame(forever(), "u2"))
        proc.push_frame(Frame(forever(), "k1", kernel=True))
        assert proc.user_depth() == 2
        assert proc.in_kernel

    def test_user_frame_over_kernel_rejected(self, cpu):
        engine, proc = cpu

        def forever():
            yield 10_000

        proc.push_frame(Frame(forever(), "k", kernel=True))
        with pytest.raises(SimulationError):
            proc.push_frame(Frame(forever(), "u"))


class TestAccounting:
    def test_user_and_kernel_cycles_separate(self, cpu):
        engine, proc = cpu

        def user():
            yield 70

        def kernel():
            yield 30

        proc.push_frame(Frame(user(), "u"))
        engine.call_after(10, lambda: proc.raise_kernel(
            lambda: Frame(kernel(), "k", kernel=True)))
        engine.run()
        assert proc.user_cycles == 70
        assert proc.kernel_cycles == 30


class TestRepeatedPreemption:
    def test_same_cycle_then_double_preemption_keeps_one_wake(self, cpu):
        """A compute wake survives a same-cycle preempt/resume and two
        more preemptions before it is due: exactly one live wake at the
        end, and the frame finishes when uninterrupted work plus kernel
        time says it should."""
        engine, proc = cpu
        trace = []

        def user():
            yield 100
            trace.append(("user", engine.now))

        def kernel(length):
            if length:
                yield length

        def preempt(length):
            proc.raise_kernel(
                lambda: Frame(kernel(length), f"k{length}", kernel=True))

        frame = Frame(user(), "user")
        proc.push_frame(frame)
        engine.call_after(10, preempt, 0)   # preempted and resumed at 10
        engine.call_after(30, preempt, 5)   # 30..35
        engine.call_after(50, preempt, 5)   # 50..55
        engine.run(until=60)

        assert frame.state is FrameState.DELAY
        assert proc.current is frame
        assert engine.pending == 1
        assert engine.peek_time() == 110

        # The one pending event is the wake, due at 110: a single step
        # finishes the frame there.
        assert engine.step()
        assert engine.now == 110
        assert trace == [("user", 110)]
        assert frame.state is FrameState.DONE
        assert engine.step() is False
        assert proc.user_cycles == 100
        assert proc.kernel_cycles == 10
        assert engine.pending == 0


class TestSpin:
    """``Spin(c, done)`` behaves as ``while not done(): yield c``
    while parking the frame on one wake per many chunks."""

    @staticmethod
    def _run(use_spin, kernel_at=None, set_at=500):
        engine = Engine()
        proc = Processor(engine, 0)
        flag = [False]
        trace = []

        def main():
            yield 3
            if use_spin:
                yield Spin(10, lambda: flag[0])
            else:
                while not flag[0]:
                    yield 10
            trace.append(("exit", engine.now, proc.user_cycles,
                          proc.kernel_cycles))

        def kernel():
            yield 7

        def setter():
            yield 4
            flag[0] = True

        proc.push_frame(Frame(main(), "main"))
        if kernel_at is not None:
            engine.call_at(kernel_at, lambda: proc.raise_kernel(
                lambda: Frame(kernel(), "k", kernel=True)))
        engine.call_at(set_at, lambda: proc.raise_user_upcall(
            lambda: Frame(setter(), "set")))
        engine.run()
        return trace, engine.events_executed

    def test_exit_cycle_matches_the_loop_with_fewer_events(self):
        loop, loop_events = self._run(False)
        spin, spin_events = self._run(True)
        # The setter runs 500..504 inside the chunk 493..503, which
        # finishes at 507; every cycle to then is user time.
        assert loop == spin == [("exit", 507, 507, 0)]
        assert spin_events < loop_events

    @pytest.mark.parametrize("kernel_at", [33, 32, 34, 3])
    def test_preemption_on_or_beside_a_chunk_boundary(self, kernel_at):
        # 33 is a chunk boundary of the spin that starts at cycle 3.
        loop, _ = self._run(False, kernel_at=kernel_at)
        spin, _ = self._run(True, kernel_at=kernel_at)
        assert spin == loop

    def test_already_done_spin_takes_no_time(self, cpu):
        engine, proc = cpu

        def gen():
            yield Spin(10, lambda: True)

        proc.push_frame(Frame(gen(), "g"))
        engine.run()
        assert engine.now == 0 and proc.user_cycles == 0

    def test_predicate_flipped_with_no_frame_running_raises(self, cpu):
        """The contract: only frames on this processor may make a spin
        done. A bare engine callback flipping the flag is caught at the
        next park wake."""
        engine, proc = cpu
        flag = [False]

        def gen():
            yield Spin(10, lambda: flag[0])

        proc.push_frame(Frame(gen(), "g"))
        engine.call_at(55, lambda: flag.__setitem__(0, True))
        with pytest.raises(SimulationError, match="became done while parked"):
            engine.run()

    def test_chunk_below_two_cycles_rejected(self):
        with pytest.raises(ValueError):
            Spin(1, lambda: True)
