"""Property: a parked ``Spin`` is the explicit compute loop, exactly.

``Spin(c, done)`` promises the behaviour of ``while not done(): yield
c`` whenever ``done`` reads only state that frames on the same
processor write. Each example runs one random preemption schedule
twice, once per form, and requires:

* the same loop-exit cycle;
* the same order (and cycles) of every callback and frame step other
  than the spinning frame's own wakes;
* equal ``user_cycles``/``kernel_cycles`` once the spin has ended.

The schedules mix the paths that suspend a spinning frame: kernel
interrupts, user upcalls (nested), gang-scheduler context switches
(``capture_user_frames`` / ``install_user_frames`` from kernel frames)
and the Glaze drain push, whose retry is a timed ``call_after(1)``
while the processor is in kernel. Preemption times are biased onto the
spin's chunk boundaries and the cycles either side of them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.processor import Frame, Processor, Spin
from repro.sim.engine import Engine

#: Cycles the flag-setting upcall waits before retrying delivery while
#: the processor is in kernel or the main frame is switched out.
_SETTER_RETRY = 7


def simulate(use_spin: bool, chunk: int, pre: int, post: int, plan):
    """Run one schedule; return (trace, final user/kernel cycles,
    events executed)."""
    engine = Engine()
    cpu = Processor(engine, 0)
    trace = []
    flag = [False]

    def note(*what):
        trace.append((engine.now,) + what)

    def main():
        yield pre
        note("spin")
        if use_spin:
            yield Spin(chunk, lambda: flag[0])
        else:
            while not flag[0]:
                yield chunk
        note("exit", cpu.user_cycles, cpu.kernel_cycles)
        yield post
        note("main done")

    main_frame = Frame(main(), "main")

    def user_handler(label, length, sets):
        note(label)
        yield length
        if sets:
            flag[0] = True
        note(label, "end")

    def deliver_setter(item):
        # Run-queue callback: retries until a user frame can take it.
        label, length = item
        if main_frame.finished:
            note(label, "dropped")
            return
        if cpu.in_kernel or cpu.user_depth() == 0:
            note(label, "deferred")
            engine.call_after(
                _SETTER_RETRY,
                lambda: engine.call_soon(deliver_setter, item))
            return
        cpu.push_frame(Frame(user_handler(label, length, True), label))

    def try_push(label):
        # The Glaze drain-push shape: a timed one-cycle retry while the
        # processor is in kernel, then a direct push.
        if cpu.in_kernel:
            engine.call_after(1, try_push, label)
            return
        if cpu.user_depth() == 0:
            note(label, "dropped")
            return
        cpu.push_frame(Frame(user_handler(label, 3, False), label))

    def kernel_handler(label, length, push):
        note(label)
        if push:
            engine.call_soon(try_push, label + ":push")
        yield length
        note(label, "end")

    def installer(label, frames):
        note(label)
        yield 3
        cpu.install_user_frames(frames)
        note(label, "end")

    def switcher(label, hold):
        note(label)
        yield 5
        frames = cpu.capture_user_frames()
        note(label, "captured", len(frames))
        engine.call_after(hold, lambda: cpu.raise_kernel(
            lambda: Frame(installer(label + ":in", frames), "in",
                          kernel=True)))

    def upcall_factory(label, length):
        def factory():
            if cpu.user_depth() == 0:
                return None  # the job is switched out
            return Frame(user_handler(label, length, False), label)
        return factory

    for i, (kind, when, length, extra) in enumerate(plan):
        label = f"{kind}{i}"
        if kind == "kernel":
            engine.call_at(when, lambda label=label, length=length,
                           push=extra: cpu.raise_kernel(
                lambda: Frame(kernel_handler(label, length, push), label,
                              kernel=True)))
        elif kind == "upcall":
            engine.call_at(when, lambda f=upcall_factory(label, length):
                           cpu.raise_user_upcall(f))
        elif kind == "switch":
            engine.call_at(when, lambda label=label, hold=length:
                           cpu.raise_kernel(
                lambda: Frame(switcher(label, hold), label, kernel=True)))
        else:  # "set": the only writer of the spin's flag
            engine.call_at(when, lambda item=(label, length):
                           engine.call_soon(deliver_setter, item))

    cpu.push_frame(main_frame)
    engine.run(until=10_000_000)
    return trace, (cpu.user_cycles, cpu.kernel_cycles), engine.events_executed


@st.composite
def schedules(draw):
    chunk = draw(st.integers(min_value=2, max_value=60))
    pre = draw(st.integers(min_value=0, max_value=120))
    post = draw(st.integers(min_value=0, max_value=40))

    def when():
        # A chunk boundary of an unpreempted spin, or a cycle beside
        # one, or anywhere.
        on_grid = st.builds(
            lambda k, d: max(0, pre + k * chunk + d),
            st.integers(min_value=0, max_value=40),
            st.sampled_from([-1, 0, 0, 0, 1]))
        return draw(st.one_of(on_grid,
                              st.integers(min_value=0, max_value=2500)))

    plan = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(["kernel", "upcall", "switch", "set"]))
        length = draw(st.one_of(
            st.integers(min_value=0, max_value=150),
            st.sampled_from([chunk, 2 * chunk, chunk - 1, chunk + 1])))
        plan.append((kind, when(), length, draw(st.booleans())))
    # The flag is always set eventually, so every spin ends.
    plan.append(("set", when(), draw(st.integers(min_value=1, max_value=30)),
                 False))
    return chunk, pre, post, plan


@given(schedules())
@settings(max_examples=300, deadline=None)
def test_spin_matches_explicit_compute_loop(schedule):
    chunk, pre, post, plan = schedule
    loop_trace, loop_cycles, loop_events = simulate(False, chunk, pre,
                                                    post, plan)
    spin_trace, spin_cycles, spin_events = simulate(True, chunk, pre,
                                                    post, plan)
    assert any(entry[1] == "main done" for entry in loop_trace)
    assert spin_trace == loop_trace
    assert spin_cycles == loop_cycles
    assert spin_events <= loop_events
