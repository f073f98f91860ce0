"""Discrete-event simulation kernel.

A minimal, fast, deterministic event engine. Time is a global integer
cycle counter. Higher layers (machine, network, OS) are built from three
primitives:

* :class:`~repro.sim.engine.Engine` — the event heap and clock, with
  :class:`~repro.sim.engine.Deadline` for re-armable wakes.
* :class:`~repro.sim.events.Event` — one-shot triggerable events.
* processes — plain Python generators driven by
  :meth:`~repro.sim.engine.Engine.process`, yielding ``Delay`` or
  ``Event`` objects.
"""

from repro.sim.engine import (Deadline, Delay, Engine, Process,
                              SimulationError)
from repro.sim.events import Event, EventAlreadyTriggered
from repro.sim.random import DeterministicRng

__all__ = [
    "Engine",
    "Deadline",
    "Delay",
    "Process",
    "SimulationError",
    "Event",
    "EventAlreadyTriggered",
    "DeterministicRng",
]
