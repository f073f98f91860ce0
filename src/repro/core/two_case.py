"""Two-case delivery: modes, transition reasons and statistics.

A process is, per node, in one of two delivery modes:

* ``FAST`` — direct delivery: the application reads messages straight
  out of the network-interface hardware;
* ``BUFFERED`` — the kernel diverts all arriving messages into the
  application's virtual-memory software buffer, and the application
  (transparently) reads them from there.

Section 4.3 identifies the transitions into buffered mode — all "soft",
changing cost but never semantics:

* the scheduled application held atomicity too long
  (``ATOMICITY_TIMEOUT`` — the revocation case),
* a page fault in a handler (``PAGE_FAULT``),
* a message arrived for a process that is not scheduled
  (``GID_MISMATCH`` — includes the scheduler-quantum case: at quantum
  start a process whose buffer is non-empty begins in buffered mode,
  ``QUANTUM_START``).

The mode returns to ``FAST`` when the last buffered message has been
handled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.stats import metric


class DeliveryMode(enum.Enum):
    FAST = "fast"
    BUFFERED = "buffered"


class DeliveryArchitecture(enum.Enum):
    """Which Figure 1 interface architecture the machine models.

    * ``TWO_CASE`` — the paper's system (Figure 1c/d): direct hardware
      access in the common case, software buffering as the fallback.
    * ``MEMORY_BASED`` — the Figure 1(b) baseline: the interface
      hardware demultiplexes every message into a *pinned* per-process
      memory queue; the processor always reads messages from memory.
      Easy to protect, but it pins physical memory per process and puts
      DRAM on every message's critical path — the trade-off Section 2
      lays out against direct interfaces.
    """

    TWO_CASE = "two-case"
    MEMORY_BASED = "memory-based"


class TransitionReason(enum.Enum):
    """Why a process entered buffered mode."""

    GID_MISMATCH = "gid-mismatch"       # message arrived while descheduled
    QUANTUM_START = "quantum-start"     # scheduled with a non-empty buffer
    ATOMICITY_TIMEOUT = "atomicity-timeout"  # revocation
    PAGE_FAULT = "page-fault"           # handler faulted
    QUANTUM_EXPIRY = "quantum-expiry"   # descheduled mid-atomic-section
    EXPLICIT = "explicit"               # forced by an experiment
    # Alternative delivery disciplines (see repro.ni.delivery): these
    # reasons are legal only under their own discipline — the
    # invariant checker's legality table is keyed by delivery kind.
    ZEROCOPY_FAULT = "zerocopy-fault"   # receive ring overflowed
    QUEUE_PRESSURE = "queue-pressure"   # DAMQ occupancy-pressure evict


@dataclass
class TwoCaseStats:
    """Per-job (whole machine) two-case delivery counters."""

    fast_messages: int = 0
    buffered_messages: int = 0
    #: Published per reason as ``two_case.enter.<reason>``.
    transitions_to_buffered: Dict[TransitionReason, int] = metric(
        obs=None, factory=dict)
    transitions_to_fast: int = 0

    @property
    def total_messages(self) -> int:
        return self.fast_messages + self.buffered_messages

    @property
    def buffered_fraction(self) -> float:
        total = self.total_messages
        if total == 0:
            return 0.0
        return self.buffered_messages / total

    def note_transition(self, reason: TransitionReason) -> None:
        count = self.transitions_to_buffered.get(reason, 0)
        self.transitions_to_buffered[reason] = count + 1
