"""Property tests for the two-case simulation fast path.

The fast path's whole contract is *invisibility*: with
``REPRO_NO_FASTPATH=1`` every layer (engine run queue, fabric quiescent
send, NI direct dispatch) takes the general path instead, and the
resulting :class:`~repro.analysis.metrics.RunMetrics` must be
bit-identical — across random workload configurations, with and
without fault injection. Any divergence means the fast path changed
simulation semantics, not just simulator speed.
"""

import os
import random
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.runner.registry import bind_spec, execute_spec
from repro.sim.engine import Engine


def run_metrics(spec, force_general):
    """Execute ``spec``, optionally forcing the general (heap-only,
    no-fast-path) engine via the env flag read at construction time."""
    saved = os.environ.pop("REPRO_NO_FASTPATH", None)
    if force_general:
        os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        metrics, _extra = execute_spec(spec)
    finally:
        os.environ.pop("REPRO_NO_FASTPATH", None)
        if saved is not None:
            os.environ["REPRO_NO_FASTPATH"] = saved
    return asdict(metrics)


@given(group_size=st.integers(min_value=2, max_value=4),
       t_betw=st.integers(min_value=100, max_value=4_000),
       seed=st.integers(min_value=1, max_value=100))
@settings(max_examples=8, deadline=None)
def test_synth_metrics_identical_with_fastpath_disabled(
        group_size, t_betw, seed):
    """Quiescent runs: fast paths fully engaged vs fully disabled."""
    spec = bind_spec("synth", group_size=group_size, t_betw=t_betw,
                     seed=seed, messages_per_node=40)
    assert run_metrics(spec, False) == run_metrics(spec, True)


@given(plan=st.builds(
           FaultPlan,
           seed=st.integers(min_value=0, max_value=10_000),
           drop=st.floats(min_value=0.0, max_value=0.3),
           duplicate=st.floats(min_value=0.0, max_value=0.3),
           reorder=st.integers(min_value=0, max_value=400),
           spike=st.floats(min_value=0.0, max_value=0.2),
           spike_cycles=st.integers(min_value=100, max_value=3_000),
           stall=st.floats(min_value=0.0, max_value=0.2),
           stall_cycles=st.integers(min_value=50, max_value=800),
       ),
       seed=st.integers(min_value=1, max_value=50))
@settings(max_examples=8, deadline=None)
def test_faulted_metrics_identical_with_fastpath_disabled(plan, seed):
    """Faulted runs: the injector already forces fabric and NI onto
    their general paths, so this pins the remaining live fast case —
    the engine run queue — against the heap under heavy same-cycle
    traffic from retries and stalls."""
    spec = bind_spec("faulted", num_nodes=3, messages=4, seed=seed,
                     faults=plan.describe(), retries=True)
    assert run_metrics(spec, False) == run_metrics(spec, True)


def test_multiprog_fast_scale_identical_with_fastpath_disabled():
    """One real multiprogrammed workload (timeslicing, kernel traps,
    buffered-mode transitions) — fast vs forced-general, bit-identical."""
    spec = bind_spec("multiprog", name="barrier", skew=0.1, seed=1,
                     num_nodes=4, scale="fast")
    assert run_metrics(spec, False) == run_metrics(spec, True)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_engine_trace_identical_with_fastpath_disabled(seed):
    """Random self-rescheduling programs execute in the same order on
    the run-queue engine and the heap-only engine."""

    def program(engine):
        order = []
        rng = random.Random(seed)

        def work(tag):
            order.append((engine.now, tag))
            if len(order) >= 300:
                return
            for k in range(rng.randrange(3)):
                delay = rng.randrange(4)
                child = (tag * 31 + k) & 0xFFFF
                if rng.random() < 0.5:
                    engine.schedule(engine.now + delay, work, child)
                else:
                    entry = engine.call_at(engine.now + delay, work, child)
                    if rng.random() < 0.2:
                        entry.cancel()

        for i in range(4):
            engine.schedule(rng.randrange(3), work, i)
        engine.run(max_events=1_500)
        return order, engine.now, engine.events_executed

    saved = os.environ.pop("REPRO_NO_FASTPATH", None)
    try:
        fast_engine = Engine()
        assert fast_engine.fastpath
        fast = program(fast_engine)
        os.environ["REPRO_NO_FASTPATH"] = "1"
        general_engine = Engine()
        assert not general_engine.fastpath
        general = program(general_engine)
    finally:
        os.environ.pop("REPRO_NO_FASTPATH", None)
        if saved is not None:
            os.environ["REPRO_NO_FASTPATH"] = saved
    assert fast == general
