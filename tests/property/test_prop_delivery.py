"""Property tests for the pluggable delivery disciplines.

Two families of properties, each over every discipline (``twocase``,
``zerocopy``, ``damq``):

* **Invariants** — across random synth and faulted plans, the
  :class:`~repro.faults.DeliveryInvariantChecker` stays clean:
  conservation (no message lost or invented), no duplicate handling,
  per-pair FIFO, and only legal buffered-mode transitions for the
  discipline in force.
* **Fast-path invisibility** — with ``REPRO_NO_FASTPATH=1`` every
  engine/fabric/NI fast case is disabled and the resulting
  :class:`~repro.analysis.metrics.RunMetrics` must be bit-identical.
  The alternative disciplines always run the NI's general path
  (``allows_fastpath`` is False), so this additionally pins the engine
  and fabric fast cases under discipline-shaped admission.

Template: ``test_prop_calendar.py`` / ``test_prop_fastpath.py``.
"""

import os
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synth import SynthApplication
from repro.experiments.config import SimulationConfig
from repro.faults.plan import FaultPlan
from repro.machine.machine import Machine
from repro.ni.delivery import DELIVERY_KINDS
from repro.runner.registry import bind_spec, execute_spec

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=10_000),
    drop=st.floats(min_value=0.0, max_value=0.2),
    duplicate=st.floats(min_value=0.0, max_value=0.2),
    reorder=st.integers(min_value=0, max_value=300),
    spike=st.floats(min_value=0.0, max_value=0.2),
    spike_cycles=st.integers(min_value=100, max_value=2_000),
    stall=st.floats(min_value=0.0, max_value=0.2),
    stall_cycles=st.integers(min_value=50, max_value=600),
)


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


def _synth_machine(delivery, group_size, t_betw, seed):
    """A checker-enabled synth run under one delivery discipline.

    The ring/pool are sized small enough that random workloads actually
    hit the pressure paths (fallback, share refusal, eviction)."""
    config = SimulationConfig(
        num_nodes=3, seed=seed, delivery=delivery,
        zerocopy_ring_words=24, damq_capacity=3,
    )
    machine = Machine(config)
    app = SynthApplication(group_size=group_size, t_betw=t_betw,
                           total_messages_per_node=60, num_nodes=3,
                           seed=seed)
    job = machine.add_job(app)
    checker = machine.enable_invariant_checker()
    machine.start()
    machine.run_until_job_done(job, limit=2_000_000_000)
    return machine, job, checker


@pytest.mark.parametrize("delivery", DELIVERY_KINDS)
@given(group_size=st.integers(min_value=2, max_value=6),
       t_betw=st.integers(min_value=30, max_value=2_000),
       seed=st.integers(min_value=1, max_value=100))
@settings(max_examples=5, deadline=None)
def test_synth_invariants_clean(delivery, group_size, t_betw, seed):
    """Random synth runs keep every delivery invariant, per discipline."""
    _machine, _job, checker = _synth_machine(delivery, group_size,
                                             t_betw, seed)
    violations = checker.check()
    assert not violations, "\n".join(map(str, violations))


@pytest.mark.parametrize("delivery", DELIVERY_KINDS)
@given(plan=fault_plans, seed=st.integers(min_value=1, max_value=50))
@settings(max_examples=4, deadline=None)
def test_faulted_invariants_clean(delivery, plan, seed):
    """Faults (drops, duplicates, reorders, stalls) compose with every
    discipline: the reliable transport repairs them and the checker
    stays clean."""
    metrics, _extra = execute_spec(bind_spec(
        "faulted", num_nodes=3, messages=4, seed=seed, faults=plan.describe(),
        retries=True, delivery=delivery))
    assert metrics.invariant_violations == 0


@pytest.mark.parametrize("delivery", DELIVERY_KINDS)
@given(group_size=st.integers(min_value=2, max_value=4),
       t_betw=st.integers(min_value=100, max_value=3_000),
       seed=st.integers(min_value=1, max_value=100))
@settings(max_examples=4, deadline=None)
def test_synth_metrics_identical_with_fastpath_disabled(
        delivery, group_size, t_betw, seed):
    """Fast vs forced-general RunMetrics are bit-identical under every
    discipline."""
    spec = bind_spec("synth", group_size=group_size, t_betw=t_betw,
                     seed=seed, messages_per_node=40, delivery=delivery)
    assert run_metrics(spec, False) == run_metrics(spec, True)


@pytest.mark.parametrize("delivery", DELIVERY_KINDS)
@given(plan=fault_plans, seed=st.integers(min_value=1, max_value=50))
@settings(max_examples=3, deadline=None)
def test_faulted_metrics_identical_with_fastpath_disabled(delivery, plan,
                                                          seed):
    """Same invisibility property under fault injection."""
    spec = bind_spec("faulted", num_nodes=3, messages=4, seed=seed,
                     faults=plan.describe(), retries=True,
                     delivery=delivery)
    assert run_metrics(spec, False) == run_metrics(spec, True)


@pytest.mark.parametrize("delivery", ("zerocopy", "damq"))
def test_alternative_disciplines_never_take_ni_fast_path(delivery):
    """``allows_fastpath=False`` must actually keep the NI on its
    general path: every delivery is a general delivery."""
    machine, _job, _checker = _synth_machine(delivery, 4, 50, 1)
    for node in machine.nodes:
        assert node.ni.stats.fast_deliveries == 0
