"""Glaze: the behavioural model of FUGU's multiuser operating system.

Glaze (built on the Aegis exokernel in the original system) supplies the
software half of two-case delivery:

* per-node kernels servicing the NI's interrupts and traps
  (:mod:`repro.glaze.kernel`);
* virtual buffering — software message buffers in application virtual
  memory, with demand-allocated physical pages
  (:mod:`repro.glaze.buffering`, :mod:`repro.glaze.vm`);
* a loose gang scheduler with controllable clock skew
  (:mod:`repro.glaze.scheduler`);
* overflow control feeding buffer pressure back into scheduling
  (:mod:`repro.glaze.overflow`);
* job and per-node job state (:mod:`repro.glaze.jobs`).
"""

from repro.glaze.vm import PageFramePool, AddressSpace, OutOfFrames
from repro.glaze.buffering import BufferFull, PinnedQueue, VirtualBuffer
from repro.glaze.jobs import Job, JobNodeState
from repro.glaze.kernel import NodeKernel
from repro.glaze.scheduler import GangScheduler
from repro.glaze.overflow import OverflowControl, OverflowPolicy

__all__ = [
    "PageFramePool",
    "AddressSpace",
    "OutOfFrames",
    "BufferFull",
    "PinnedQueue",
    "VirtualBuffer",
    "Job",
    "JobNodeState",
    "NodeKernel",
    "GangScheduler",
    "OverflowControl",
    "OverflowPolicy",
]
