"""Integration tests for the delivery disciplines.

Two obligations from ISSUE 7:

* **Differential equivalence** — under a quiescent schedule (no faults,
  no ring/pool overflow) all three disciplines deliver the *identical
  per-(src, dst) message sequence*; only cost and occupancy metrics may
  differ. The disciplines change how the NI admits and accounts for
  messages, never which messages arrive or in what pairwise order.
* **Checker legality regression** — a zero-copy run that takes the
  protection-fault fallback must NOT be reported as an illegal mode
  transition, while the same ``zerocopy-fault`` cause forged into a
  two-case run (or ``queue-pressure`` into a zero-copy run) must be.
"""

from typing import Dict, Generator, List, Tuple

import pytest

from repro.analysis.trace import ModeRecord
from repro.apps.base import Application
from repro.apps.synth import SynthApplication
from repro.core.two_case import TransitionReason
from repro.core.udm import UdmRuntime
from repro.experiments.config import SimulationConfig
from repro.machine.machine import Machine
from repro.ni.delivery import DELIVERY_KINDS


class AllPairsApp(Application):
    """Deterministic all-pairs traffic: every node sends ``rounds``
    tagged messages to every peer, then waits for its own expected
    arrivals. Receivers log ``(src, tag)`` in arrival order."""

    name = "allpairs"

    def __init__(self, num_nodes: int, rounds: int, gap: int = 400) -> None:
        self.num_nodes = num_nodes
        self.rounds = rounds
        self.gap = gap
        self.received: Dict[int, List[Tuple[int, int]]] = {
            n: [] for n in range(num_nodes)
        }

    def _h_recv(self, rt: UdmRuntime, msg) -> Generator:
        yield from rt.dispose_current()
        yield 10
        self.received[rt.node_index].append(tuple(msg.payload))

    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        peers = [n for n in range(self.num_nodes) if n != node_index]
        for tag in range(self.rounds):
            for dst in peers:
                yield from rt.inject(dst, self._h_recv, (node_index, tag))
            yield self.gap
        expected = self.rounds * len(peers)
        while len(self.received[node_index]) < expected:
            yield 50


def _pairwise(app: AllPairsApp) -> Dict[Tuple[int, int], List[int]]:
    """Per-(src, dst) tag sequence, in arrival order at dst."""
    sequences: Dict[Tuple[int, int], List[int]] = {}
    for dst, log in app.received.items():
        for src, tag in log:
            sequences.setdefault((src, dst), []).append(tag)
    return sequences


def _run_allpairs(delivery: str):
    # Generous ring/pool so the quiescent schedule never overflows.
    config = SimulationConfig(num_nodes=3, seed=7, delivery=delivery,
                              zerocopy_ring_words=512, damq_capacity=16)
    machine = Machine(config)
    app = AllPairsApp(num_nodes=3, rounds=20)
    job = machine.add_job(app)
    machine.start()
    machine.run_until_job_done(job, limit=2_000_000_000)
    return machine, app


def test_disciplines_deliver_identical_pairwise_sequences():
    """Quiescent differential: same messages, same per-pair order,
    under every discipline — and the run really was quiescent (no
    fallback, no eviction, no share refusal)."""
    sequences = {}
    for delivery in DELIVERY_KINDS:
        machine, app = _run_allpairs(delivery)
        for node in machine.nodes:
            stats = node.ni.discipline.stats
            assert stats.fallbacks == 0
            assert stats.fault_traps == 0
            assert stats.damq_evictions == 0
            assert stats.damq_share_refusals == 0
        sequences[delivery] = _pairwise(app)
        # Completeness: every pair carried every tag, in order.
        for pair, tags in sequences[delivery].items():
            assert tags == list(range(20)), (delivery, pair, tags)
    assert sequences["twocase"] == sequences["zerocopy"]
    assert sequences["twocase"] == sequences["damq"]


def test_disciplines_only_differ_in_cost_and_occupancy_metrics():
    """The alternative disciplines do account differently: zero-copy
    pins pages under quiescent traffic, DAMQ tracks pool occupancy,
    two-case does neither."""
    _machine, _ = _run_allpairs("twocase")
    for node in _machine.nodes:
        stats = node.ni.discipline.stats
        assert stats.zerocopy_accepts == 0
        assert stats.damq_admits == 0

    zc_machine, _ = _run_allpairs("zerocopy")
    assert sum(n.ni.discipline.stats.zerocopy_accepts
               for n in zc_machine.nodes) > 0
    for node in zc_machine.nodes:
        # Accounting returns to zero once the run drains.
        assert node.ni.discipline.stats.pinned_words == 0

    dq_machine, _ = _run_allpairs("damq")
    assert sum(n.ni.discipline.stats.damq_admits
               for n in dq_machine.nodes) > 0
    assert max(n.ni.discipline.stats.damq_peak_occupancy
               for n in dq_machine.nodes) > 0


# ----------------------------------------------------------------------
# Checker legality regression (the ISSUE 7 fix)
# ----------------------------------------------------------------------
def _run_synth_checked(delivery: str, **config_kw):
    config = SimulationConfig(num_nodes=3, seed=3, delivery=delivery,
                              **config_kw)
    machine = Machine(config)
    app = SynthApplication(group_size=8, t_betw=30,
                           total_messages_per_node=80, num_nodes=3,
                           seed=3)
    job = machine.add_job(app)
    checker = machine.enable_invariant_checker()
    machine.start()
    machine.run_until_job_done(job, limit=2_000_000_000)
    return machine, checker


def test_zerocopy_fallback_is_not_reported_illegal():
    """Regression for the per-discipline legality table: a bursty run
    on a tiny ring takes real protection-fault fallbacks, and the
    checker must accept those transitions under delivery='zerocopy'."""
    machine, checker = _run_synth_checked("zerocopy",
                                          zerocopy_ring_words=8)
    fallbacks = sum(n.ni.discipline.stats.fallbacks
                    for n in machine.nodes)
    assert fallbacks > 0, "ring was large enough to never fault"
    fault_enters = [r for r in machine.tracer.mode_records
                    if r.entered and
                    r.reason == TransitionReason.ZEROCOPY_FAULT.value]
    assert fault_enters, "fallback never recorded a mode transition"
    violations = checker.check()
    assert not [v for v in violations if v.code == "mode-reason"], \
        "\n".join(map(str, violations))


@pytest.mark.parametrize("delivery,forged", [
    ("twocase", TransitionReason.ZEROCOPY_FAULT.value),
    ("twocase", TransitionReason.QUEUE_PRESSURE.value),
    ("zerocopy", TransitionReason.QUEUE_PRESSURE.value),
    ("damq", TransitionReason.ZEROCOPY_FAULT.value),
])
def test_foreign_discipline_reason_is_flagged(delivery, forged):
    """A discipline-specific cause appearing under any *other*
    discipline means a hook fired on a machine that never constructed
    it — the checker must flag it."""
    machine, checker = _run_synth_checked(delivery)
    machine.tracer.mode_records.append(
        ModeRecord(time=0, node=0, gid=999, entered=True, reason=forged))
    violations = [v for v in checker.check() if v.code == "mode-reason"]
    assert len(violations) == 1
    assert forged in violations[0].detail
    assert f"delivery={delivery!r}" in violations[0].detail
