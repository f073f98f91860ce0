"""Behavioural machine model: nodes, processors, and the whole machine.

The processor executes *frames* — generator coroutines yielding an
``int`` of cycles (interruptible delays) and
:class:`~repro.sim.events.Event` waits — on a preemption stack: the scheduled job's thread at the bottom,
user-level message handlers (upcalls) above it, kernel interrupt and trap
handlers on top. This gives the paper's execution model (Figures 2 and 5)
at behavioural granularity.
"""

from repro.machine.processor import Processor, Frame, FrameState
from repro.machine.node import Node
from repro.machine.machine import Machine

__all__ = ["Processor", "Frame", "FrameState", "Node", "Machine"]
