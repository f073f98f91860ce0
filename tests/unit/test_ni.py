"""Unit tests for the FUGU network-interface model (Tables 1-3)."""

import pytest

from repro.network.fabric import NetworkFabric
from repro.network.message import KERNEL_GID, Message
from repro.network.topology import MeshTopology
from repro.ni.interface import NetworkInterface, NiConfig
from repro.ni.timer import AtomicityTimer
from repro.ni.traps import Trap, TrapSignal
from repro.ni.uac import INTERRUPT_DISABLE, TIMER_FORCE, UserAtomicityControl
from repro.sim.engine import Engine


def build_ni(num_nodes=2, **ni_kwargs):
    engine = Engine()
    fabric = NetworkFabric(engine, MeshTopology(num_nodes))
    nis = [
        NetworkInterface(engine, node, fabric, NiConfig(**ni_kwargs))
        for node in range(num_nodes)
    ]
    return engine, fabric, nis


def deliver(engine, fabric, ni, gid=1, handler="h", payload=()):
    """Push a message straight through the fabric into an NI."""
    msg = Message(dst=ni.node_id, handler=handler, payload=payload,
                  src=0, gid=gid)
    fabric.send(msg)
    engine.run()
    return msg


class TestUac:
    def test_mask_set_and_clear(self):
        uac = UserAtomicityControl()
        uac.set_user_bits(INTERRUPT_DISABLE | TIMER_FORCE)
        assert uac.interrupt_disable and uac.timer_force
        uac.clear_user_bits(INTERRUPT_DISABLE)
        assert not uac.interrupt_disable and uac.timer_force

    def test_kernel_bits_rejected_in_mask(self):
        uac = UserAtomicityControl()
        with pytest.raises(ValueError):
            uac.set_user_bits(0b100)

    def test_snapshot_restore_roundtrip(self):
        uac = UserAtomicityControl()
        uac.interrupt_disable = True
        uac.dispose_pending = True
        snap = uac.snapshot()
        other = UserAtomicityControl()
        other.restore(snap)
        assert other.snapshot() == snap


def timer_ni(preset=100):
    """One NI whose atomicity timer the tests drive as the hardware
    does: *timer-force* enables it, clearing the bit disables it, and a
    dispose restarts a running countdown. Returns the expiry times."""
    engine, fabric, nis = build_ni(atomicity_timeout=preset)
    ni = nis[1]
    fired = []
    ni.deliver_atomicity_timeout = lambda: fired.append(engine.now)
    return engine, fabric, ni, fired


class TestAtomicityTimer:
    def test_fires_after_preset(self):
        engine, _, ni, fired = timer_ni()
        ni.beginatom(TIMER_FORCE)
        engine.run()
        assert fired == [100]

    def test_disable_cancels(self):
        engine, _, ni, fired = timer_ni()
        ni.beginatom(TIMER_FORCE)
        ni.endatom(TIMER_FORCE)
        engine.run()
        assert fired == []

    def test_restart_presets_countdown(self):
        engine, fabric, ni, fired = timer_ni()
        ni.beginatom(TIMER_FORCE)
        fabric.send(Message(dst=1, handler="h", src=0, gid=1))
        engine.run(until=60)
        ni.dispose(privileged=True)  # dispose presets the countdown
        engine.run()
        assert fired == [160]

    def test_bad_preset_rejected(self):
        with pytest.raises(ValueError):
            AtomicityTimer(Engine(), 0, lambda: None)


class TestGidMatching:
    def test_matching_gid_sets_message_available(self):
        engine, fabric, nis = build_ni()
        nis[1].set_current_gid(1)
        deliver(engine, fabric, nis[1], gid=1)
        assert nis[1].message_available
        assert not nis[1].mismatch_pending

    def test_mismatched_gid_raises_kernel_interrupt(self):
        engine, fabric, nis = build_ni()
        nis[1].set_current_gid(1)
        raised = []
        nis[1].deliver_mismatch_available = lambda: raised.append(1)
        deliver(engine, fabric, nis[1], gid=2)
        assert not nis[1].message_available
        assert nis[1].mismatch_pending
        assert raised == [1]

    def test_kernel_message_always_mismatches(self):
        engine, fabric, nis = build_ni()
        nis[1].set_current_gid(KERNEL_GID)
        deliver(engine, fabric, nis[1], gid=KERNEL_GID)
        assert nis[1].mismatch_pending
        assert not nis[1].message_available

    def test_divert_mode_steals_matching_messages(self):
        engine, fabric, nis = build_ni()
        nis[1].set_current_gid(1)
        nis[1].set_divert_mode(True)
        deliver(engine, fabric, nis[1], gid=1)
        assert nis[1].mismatch_pending
        assert not nis[1].message_available


class TestTable1Operations:
    def test_launch_requires_descriptor(self):
        engine, fabric, nis = build_ni()
        assert nis[0].launch() is None  # empty descriptor: no-op

    def test_launch_stamps_current_gid(self):
        engine, fabric, nis = build_ni()
        nis[0].set_current_gid(7)
        nis[0].describe(1, "h", (1,))
        msg = nis[0].launch()
        assert msg.gid == 7
        assert nis[0].registers.output.length == 0  # descriptor cleared

    def test_user_kernel_launch_traps(self):
        engine, fabric, nis = build_ni()
        nis[0].describe(1, "h", (), kernel_bit=True)
        with pytest.raises(TrapSignal) as exc:
            nis[0].launch(privileged=False)
        assert exc.value.trap is Trap.PROTECTION_VIOLATION

    def test_dispose_without_message_traps_bad_dispose(self):
        engine, fabric, nis = build_ni()
        nis[0].set_current_gid(1)
        with pytest.raises(TrapSignal) as exc:
            nis[0].dispose()
        assert exc.value.trap is Trap.BAD_DISPOSE

    def test_dispose_in_divert_mode_traps_dispose_extend(self):
        engine, fabric, nis = build_ni()
        nis[1].set_current_gid(1)
        deliver(engine, fabric, nis[1], gid=1)
        nis[1].set_divert_mode(True)
        with pytest.raises(TrapSignal) as exc:
            nis[1].dispose()
        assert exc.value.trap is Trap.DISPOSE_EXTEND

    def test_privileged_dispose_bypasses_divert(self):
        engine, fabric, nis = build_ni()
        nis[1].set_current_gid(1)
        deliver(engine, fabric, nis[1], gid=1)
        nis[1].set_divert_mode(True)
        msg = nis[1].dispose(privileged=True)
        assert msg is not None
        assert nis[1].head is None

    def test_endatom_with_dispose_pending_traps(self):
        engine, fabric, nis = build_ni()
        nis[0].beginatom(INTERRUPT_DISABLE)
        nis[0].set_kernel_uac(dispose_pending=True)
        with pytest.raises(TrapSignal) as exc:
            nis[0].endatom(INTERRUPT_DISABLE)
        assert exc.value.trap is Trap.DISPOSE_FAILURE

    def test_endatom_with_atomicity_extend_traps(self):
        engine, fabric, nis = build_ni()
        nis[0].beginatom(INTERRUPT_DISABLE)
        nis[0].set_kernel_uac(atomicity_extend=True)
        with pytest.raises(TrapSignal) as exc:
            nis[0].endatom(INTERRUPT_DISABLE)
        assert exc.value.trap is Trap.ATOMICITY_EXTEND

    def test_peek_returns_head_without_dequeue(self):
        engine, fabric, nis = build_ni()
        nis[1].set_current_gid(1)
        deliver(engine, fabric, nis[1], gid=1, handler="peeked")
        assert nis[1].peek().handler == "peeked"
        assert nis[1].head is not None

    def test_user_divert_write_traps(self):
        engine, fabric, nis = build_ni()
        with pytest.raises(TrapSignal) as exc:
            nis[0].set_divert_mode(True, privileged=False)
        assert exc.value.trap is Trap.PROTECTION_VIOLATION


class TestInterruptDelivery:
    def test_upcall_raised_when_enabled(self):
        engine, fabric, nis = build_ni()
        nis[1].set_current_gid(1)
        raised = []
        nis[1].deliver_message_available = lambda: raised.append(1)
        deliver(engine, fabric, nis[1], gid=1)
        assert raised == [1]

    def test_upcall_suppressed_by_interrupt_disable(self):
        engine, fabric, nis = build_ni()
        nis[1].set_current_gid(1)
        raised = []
        nis[1].deliver_message_available = lambda: raised.append(1)
        nis[1].beginatom(INTERRUPT_DISABLE)
        deliver(engine, fabric, nis[1], gid=1)
        assert raised == []
        assert nis[1].message_available  # flag still readable for polling

    def test_endatom_releases_pending_upcall(self):
        engine, fabric, nis = build_ni()
        nis[1].set_current_gid(1)
        raised = []
        nis[1].deliver_message_available = lambda: raised.append(1)
        nis[1].beginatom(INTERRUPT_DISABLE)
        deliver(engine, fabric, nis[1], gid=1)
        nis[1].endatom(INTERRUPT_DISABLE)
        assert raised == [1]

    def test_upcall_not_reraised_while_in_service(self):
        engine, fabric, nis = build_ni()
        nis[1].set_current_gid(1)
        raised = []
        nis[1].deliver_message_available = lambda: raised.append(1)
        deliver(engine, fabric, nis[1], gid=1)
        deliver(engine, fabric, nis[1], gid=1)
        assert raised == [1]
        # Completing the upcall re-arms the line for the second message.
        nis[1].dispose()
        nis[1].upcall_complete()
        assert raised == [1, 1]

    def test_timer_enabled_only_with_pending_matching_message(self):
        engine, fabric, nis = build_ni(atomicity_timeout=500)
        ni = nis[1]
        ni.set_current_gid(1)
        ni.beginatom(INTERRUPT_DISABLE)
        assert not ni.timer.enabled  # no message yet
        fabric.send(Message(dst=1, handler="h", src=0, gid=1))
        engine.run(until=engine.now + 50)  # stop before the timeout
        assert ni.timer.enabled
        ni.dispose()
        assert not ni.timer.enabled

    def test_timer_force_enables_unconditionally(self):
        engine, fabric, nis = build_ni()
        nis[0].beginatom(TIMER_FORCE)
        assert nis[0].timer.enabled

    def test_timeout_interrupt_fires(self):
        engine, fabric, nis = build_ni(atomicity_timeout=200)
        ni = nis[1]
        ni.set_current_gid(1)
        fired = []
        ni.deliver_atomicity_timeout = lambda: fired.append(engine.now)
        ni.beginatom(INTERRUPT_DISABLE)
        deliver(engine, fabric, ni, gid=1)
        engine.run()
        assert fired and fired[0] >= 200

    def test_input_queue_capacity_respected(self):
        engine, fabric, nis = build_ni(input_queue_capacity=1)
        ni = nis[1]
        ni.set_current_gid(1)
        for _ in range(3):
            fabric.send(Message(dst=1, handler="h", src=0, gid=1))
        engine.run()
        assert ni.input_queue_length == 1
        assert fabric.blocked_count(1) == 2


class TestTimerExpiryRearmRaces:
    """Expiry/re-arm interleavings on the atomicity timer, plus the
    fault hook that forces the timeout path from outside."""

    def test_enable_while_running_does_not_retime(self):
        engine, _, ni, fired = timer_ni()
        ni.beginatom(TIMER_FORCE)
        engine.run(until=60)
        ni.reevaluate()  # already counting: must NOT restart
        engine.run()
        assert fired == [100]

    def test_set_preset_does_not_retime_running_countdown(self):
        engine, _, ni, fired = timer_ni()
        ni.beginatom(TIMER_FORCE)
        engine.run(until=10)
        ni.timer.set_preset(1_000)  # takes effect at the *next* enable
        engine.run()
        assert fired == [100]
        ni.reevaluate()  # timer-force still set: a fresh countdown
        engine.run()
        assert fired == [100, 1_100]

    def test_rearm_from_inside_the_timeout_callback(self):
        engine, _, ni, fired = timer_ni()
        ni.deliver_atomicity_timeout = lambda: (
            fired.append(engine.now),
            ni.reevaluate() if len(fired) < 3 else None,
        )
        ni.beginatom(TIMER_FORCE)
        engine.run()
        assert fired == [100, 200, 300]
        assert ni.timer.timeouts == 3
        assert not ni.timer.enabled

    def test_restart_on_disabled_timer_stays_disabled(self):
        engine, fabric, ni, fired = timer_ni()
        fabric.send(Message(dst=1, handler="h", src=0, gid=1))
        engine.run()
        assert not ni.timer.enabled
        seq = engine._seq
        ni.dispose(privileged=True)  # no countdown running: no restart
        assert engine._seq == seq  # nothing armed, not even briefly
        engine.run()
        assert fired == [] and ni.timer.timeouts == 0
        assert not ni.timer.enabled

    def test_disable_inside_callback_window_then_reenable(self):
        engine, _, ni, fired = timer_ni()
        ni.beginatom(TIMER_FORCE)
        engine.run(until=100)  # fires exactly at t=100
        assert fired == [100]
        ni.endatom(TIMER_FORCE)    # already idle: must be a no-op
        ni.beginatom(TIMER_FORCE)  # full fresh countdown
        engine.run()
        assert fired == [100, 200]
        assert ni.timer.timeouts == 2

    def test_force_timeout_fires_path_without_arming_timer(self):
        engine, fabric, nis = build_ni()
        ni = nis[1]
        hits = []
        ni.deliver_atomicity_timeout = lambda: hits.append(engine.now)
        assert not ni.timer.enabled
        ni.force_timeout()
        assert hits == [0]
        assert ni.stats.forced_timeouts == 1
        assert ni.stats.atomicity_timeouts == 1
        assert not ni.timer.enabled  # fault hook bypasses the counter

    def test_force_timeout_races_a_live_countdown(self):
        """A forced expiry must not cancel the hardware countdown: the
        real expiry still fires later (the kernel's revocation path is
        idempotent and absorbs the double report)."""
        engine, fabric, nis = build_ni()
        ni = nis[1]
        hits = []
        ni.deliver_atomicity_timeout = lambda: hits.append(engine.now)
        ni.beginatom(TIMER_FORCE)
        engine.run(until=30)
        ni.force_timeout()
        assert ni.timer.enabled  # countdown survives the forced fire
        engine.run()
        assert len(hits) == 2
        assert ni.stats.forced_timeouts == 1
