"""Property: context switches never lose or duplicate user work.

Random capture/install schedules (the gang scheduler's primitive)
against a user frame doing a known amount of compute must always end
with exactly that much user time charged, regardless of how often and
when the frame is switched out.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.processor import Frame, Processor
from repro.sim.engine import Engine


@given(
    chunks=st.lists(st.integers(min_value=1, max_value=80),
                    min_size=1, max_size=12),
    switches=st.lists(
        st.tuples(st.integers(min_value=0, max_value=600),   # when
                  st.integers(min_value=1, max_value=300)),  # held out
        max_size=5,
    ),
)
@settings(max_examples=120, deadline=None)
def test_capture_install_conserves_user_work(chunks, switches):
    engine = Engine()
    cpu = Processor(engine, 0)
    finished = []

    def user():
        for c in chunks:
            yield c
        finished.append(engine.now)

    cpu.push_frame(Frame(user(), "user"))

    def switcher(hold):
        yield 5  # kernel switch cost
        frames = cpu.capture_user_frames()
        engine.call_after(hold, lambda: cpu.install_user_frames(frames))

    for when, hold in switches:
        engine.call_at(
            when,
            lambda h=hold: cpu.raise_kernel(
                lambda: Frame(switcher(h), "cs", kernel=True)
            ),
        )
    engine.run(max_events=1_000_000)

    total = sum(chunks)
    assert finished, "user frame never completed"
    assert cpu.user_cycles == total
    # The end time is at least the work plus all hold-out windows that
    # actually interrupted it; never less than the work itself.
    assert finished[0] >= total
