"""End-to-end fault injection: the ISSUE's acceptance scenarios.

Covers the demo run (drops repaired by retries, zero violations), the
negative control (retries off: the checker *observes* the planned
losses), every non-fabric fault class (NI stalls, forced expiries,
handler page-fault storms) and the adversarial hog workload.
"""

from __future__ import annotations

from repro.core.two_case import TransitionReason
from repro.experiments.config import SimulationConfig
from repro.faults.hog import HogApplication
from repro.machine.machine import Machine
from tests.conftest import run_faulted


class TestAcceptanceDemo:
    def test_drops_are_repaired_with_zero_violations(self):
        """`faultdemo --faults drop=0.05,seed=7`: completes, retries
        fire, invariants hold."""
        metrics, transport, violations, machine = run_faulted(
            num_nodes=4, messages=8, seed=7, faults="drop=0.05,seed=7",
        )
        assert machine.fault_injector is not None
        assert machine.fault_injector.drops > 0       # faults happened
        assert metrics.retries > 0                    # recovery happened
        assert violations == [], [str(v) for v in violations]
        assert not transport.gave_up
        # All 32 payloads arrived exactly once despite the drops.
        assert sum(len(transport.inbox[n]) for n in range(4)) == 32

    def test_negative_control_reports_planned_losses(self):
        """Retries off: every unrepaired drop surfaces as a
        transport-loss violation — the checker measures, not decorates."""
        metrics, transport, violations, machine = run_faulted(
            num_nodes=4, messages=8, seed=7, faults="drop=0.05,seed=7",
            retries=False,
        )
        drops = machine.fault_injector.drops
        assert drops > 0
        losses = [v for v in violations if v.code == "transport-loss"]
        assert len(losses) == drops
        assert metrics.invariant_violations == len(violations)
        assert metrics.retries == 0

    def test_duplicates_are_suppressed_exactly_once(self):
        _metrics, transport, violations, machine = run_faulted(
            num_nodes=4, messages=8, seed=3,
            faults="duplicate=0.3,seed=11",
        )
        assert machine.fault_injector.duplicates > 0
        assert transport.duplicates_suppressed > 0
        assert violations == [], [str(v) for v in violations]
        assert sum(len(transport.inbox[n]) for n in range(4)) == 32

    def test_heavy_mixed_plan_stays_clean(self):
        plan = ("drop=0.15,duplicate=0.15,reorder=300,spike=0.2,"
                "spike_cycles=1500,seed=23")
        _metrics, transport, violations, _machine = run_faulted(
            num_nodes=4, messages=8, seed=5, faults=plan,
        )
        assert violations == [], [str(v) for v in violations]
        assert not transport.gave_up


class TestNonFabricFaults:
    def test_ni_stalls_and_page_fault_storm(self):
        """Input-queue stalls and handler page faults push traffic to
        the buffered path without losing anything."""
        plan = ("stall=0.4,stall_cycles=600,page_fault_rate=0.3,seed=9")
        metrics, _transport, violations, machine = run_faulted(
            num_nodes=4, messages=8, seed=2, faults=plan,
        )
        injector = machine.fault_injector
        assert injector.stalls > 0
        assert injector.page_faults > 0
        stalls = sum(n.ni.stats.input_stalls for n in machine.nodes)
        assert stalls == injector.stalls
        # Page faults are a Section 4.3 buffered-mode trigger.
        assert metrics.buffered_messages > 0
        assert violations == [], [str(v) for v in violations]

    def test_page_fault_storm_survives_frame_exhaustion(self):
        """A sustained storm drains the frame pool; further faults must
        degrade to soft faults (working-set reclaim), not crash."""
        from tests.conftest import ScriptedApplication

        config = SimulationConfig(num_nodes=2, seed=1, frames_per_node=4)
        machine = Machine(config)

        def script(app, rt, idx):
            for _ in range(12):  # 3x the pool, on both nodes
                yield from rt.page_fault()
                yield 50

        job = machine.add_job(ScriptedApplication(script))
        machine.start()
        machine.run_until_job_done(job, limit=10_000_000)
        assert job.stats.page_faults_simulated == 24
        for node in machine.nodes:
            assert node.frame_pool.free_frames >= 0

    def test_forced_atomicity_expiries(self):
        """Seeded forced timer expiries land inside the run window and
        leave no message unaccounted (the in-transit divert race)."""
        plan = "expiries=4,expiry_horizon=20000,seed=13"
        _metrics, _transport, violations, machine = run_faulted(
            num_nodes=4, messages=8, seed=4, faults=plan,
        )
        fired = sum(n.ni.stats.forced_timeouts for n in machine.nodes)
        assert fired > 0
        assert violations == [], [str(v) for v in violations]


class TestHogWorkload:
    def test_hog_trips_every_defence(self):
        """The hog triggers revocation, buffered growth, an overflow
        advisory and a suspension — and still loses nothing."""
        machine = Machine(SimulationConfig(num_nodes=4, seed=1))
        hog = HogApplication(num_nodes=4)
        job = machine.add_job(hog)
        checker = machine.enable_invariant_checker()
        machine.start()
        machine.run(until=2_000_000)

        revoked = job.two_case.transitions_to_buffered.get(
            TransitionReason.ATOMICITY_TIMEOUT, 0)
        assert revoked >= 1
        assert job.max_buffer_pages() > 8     # past the advise threshold
        assert machine.overflow.stats.advisories >= 1
        assert machine.overflow.stats.suspensions >= 1
        violations = checker.check()
        assert violations == [], [str(v) for v in violations]

    def test_hog_cannot_wedge_other_nodes(self):
        """Flooded victim aside, the sender nodes finish their budget —
        two-case delivery keeps the hog's damage local."""
        machine = Machine(SimulationConfig(num_nodes=4, seed=1))
        hog = HogApplication(num_nodes=4, flood_messages=8)
        machine.add_job(hog)
        machine.start()
        machine.run(until=2_000_000)
        # All three senders delivered their full budget into the
        # victim's buffer (received counts handlers that ran; arrival
        # is what matters here).
        sent = machine.fabric.stats.messages_sent
        assert sent >= 3 * 8
