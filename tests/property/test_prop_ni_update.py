"""Property: the one-pass interrupt re-evaluation is the property-based one.

``NetworkInterface._update`` reads the registers, the UAC bits and the
head's GID once and decides *mismatch-available* and
*message-available* with one compare, since with a head present the two
conditions are exact complements. This file keeps a reference copy of
the earlier formulation, which re-derived the head through ``head``,
``Message.is_kernel``, ``message_available``, ``mismatch_pending`` and
the timer condition on every call, and drives both over random
sequences of NI states:

* head absent, or a head whose GID matches *current-gid*, is the
  kernel GID, or is some other user GID;
* *divert-mode*, and *current-gid* including ``KERNEL_GID``;
* *interrupt-disable* and *timer-force*;
* both in-service latches, each delivery hook wired or ``None``, the
  user-level-ready predicate, and ``_fast_base`` on or off;
* simulated time advancing between steps, so an armed atomicity timer
  can fire, be re-armed or be cleared.

Each step must leave the same ``_fast_ok``, the same hook calls, the
same ``NiStats`` counters and latches, and the same timer state
(``armed``, ``deadline`` and the engine's ``seq`` counter, so arms take
the same heap keys). The flags must agree with the reference, and
whenever a head exists exactly one of them is set.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fabric import NetworkFabric
from repro.network.message import KERNEL_GID, Message
from repro.network.topology import MeshTopology
from repro.ni.interface import NetworkInterface, NiConfig
from repro.sim.engine import Engine

#: A user GID other than the ones ``current_gid`` is drawn from.
_OTHER_GID = 9


# ----------------------------------------------------------------------
# Reference: the earlier property-based formulation, as it was.
# ----------------------------------------------------------------------
def ref_head(ni):
    return ni._input[0] if ni._input else None


def ref_message_available(ni):
    head = ref_head(ni)
    return (
        head is not None
        and not head.is_kernel
        and not ni.registers.divert_mode
        and head.gid == ni.registers.current_gid
    )


def ref_mismatch_pending(ni):
    head = ref_head(ni)
    return head is not None and (
        ni.registers.divert_mode
        or head.is_kernel
        or head.gid != ni.registers.current_gid
    )


def ref_timer_condition(ni):
    if ni.uac.timer_force:
        return True
    return ni.uac.interrupt_disable and ref_message_available(ni)


def ref_update(ni):
    uac = ni.uac
    registers = ni.registers
    ni._fast_ok = (
        ni._fast_base
        and not uac.interrupt_disable
        and not uac.timer_force
        and not registers.divert_mode
        and registers.current_gid != KERNEL_GID
        and ni.deliver_message_available is not None
    )
    # AtomicityTimer's former enable()/disable() hop.
    timer = ni.timer
    if ref_timer_condition(ni):
        if not timer._wake.armed:
            timer._wake.arm(timer.engine.now + timer.preset, timer._fire)
    else:
        timer._wake.clear()
    if ref_mismatch_pending(ni):
        if not ni._mismatch_in_service and \
                ni.deliver_mismatch_available is not None:
            ni._mismatch_in_service = True
            ni.stats.mismatch_interrupts += 1
            ni.deliver_mismatch_available()
        return
    if (
        ref_message_available(ni)
        and not ni.uac.interrupt_disable
        and not ni._upcall_in_service
        and ni.deliver_message_available is not None
        and ni.user_level_ready()
    ):
        ni._upcall_in_service = True
        ni.stats.message_available_upcalls += 1
        ni.deliver_message_available()


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
class Side:
    """One NI on its own engine, with every hook call logged."""

    def __init__(self, timeout):
        self.engine = Engine()
        fabric = NetworkFabric(self.engine, MeshTopology(2))
        self.ni = NetworkInterface(self.engine, 1, fabric,
                                   NiConfig(atomicity_timeout=timeout))
        self.calls = []
        self.ni.deliver_atomicity_timeout = self._hook("timeout")

    def _hook(self, name):
        return lambda: self.calls.append((self.engine.now, name))

    def apply(self, state):
        ni = self.ni
        ni._input.clear()
        head = state["head"]
        if head is not None:
            gid = {"match": state["gid"], "kernel": KERNEL_GID,
                   "other": _OTHER_GID}[head]
            ni._input.append(Message(dst=1, handler="h", src=0, gid=gid))
        ni.registers.divert_mode = state["divert"]
        ni.registers.current_gid = state["gid"]
        ni.uac.interrupt_disable = state["disable"]
        ni.uac.timer_force = state["force"]
        ni._mismatch_in_service = state["mismatch_latch"]
        ni._upcall_in_service = state["upcall_latch"]
        ni.deliver_message_available = (
            self._hook("upcall") if state["upcall_hook"] else None)
        ni.deliver_mismatch_available = (
            self._hook("mismatch") if state["mismatch_hook"] else None)
        ready = state["ready"]
        ni.user_level_ready = lambda: ready
        ni._fast_base = state["fast_base"]

    def snapshot(self):
        ni = self.ni
        return {
            "fast_ok": ni._fast_ok,
            "calls": list(self.calls),
            "stats": asdict(ni.stats),
            "latches": (ni._mismatch_in_service, ni._upcall_in_service),
            "armed": ni.timer.enabled,
            "deadline": ni.timer.deadline,
            "seq": self.engine._seq,
            "now": self.engine.now,
        }


states = st.fixed_dictionaries({
    "head": st.sampled_from([None, "match", "kernel", "other"]),
    "gid": st.sampled_from([KERNEL_GID, 1, 2]),
    "divert": st.booleans(),
    "disable": st.booleans(),
    "force": st.booleans(),
    "mismatch_latch": st.booleans(),
    "upcall_latch": st.booleans(),
    "upcall_hook": st.booleans(),
    "mismatch_hook": st.booleans(),
    "ready": st.booleans(),
    "fast_base": st.booleans(),
    "advance": st.integers(min_value=0, max_value=60),
})


@given(timeout=st.integers(min_value=1, max_value=40),
       steps=st.lists(states, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_one_pass_update_matches_reference(timeout, steps):
    new, ref = Side(timeout), Side(timeout)
    for state in steps:
        for side in (new, ref):
            # A timer armed by an earlier step may fire meanwhile.
            side.engine.run(until=side.engine.now + state["advance"])
            side.apply(state)
        new.ni._update()
        ref_update(ref.ni)
        assert new.snapshot() == ref.snapshot()

        ni = new.ni
        assert ni.message_available == ref_message_available(ni)
        assert ni.mismatch_pending == ref_mismatch_pending(ni)
        if ni._input:
            assert ni.message_available != ni.mismatch_pending
        else:
            assert not ni.message_available and not ni.mismatch_pending
