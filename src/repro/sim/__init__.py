"""Discrete-event simulation kernel.

A minimal, fast, deterministic event engine. Time is a global integer
cycle counter. Higher layers (machine, network, OS) are built from two
primitives:

* :class:`~repro.sim.engine.Engine` — the event heap and clock, with
  :class:`~repro.sim.engine.Deadline` for re-armable wakes.
* :class:`~repro.sim.events.Event` — one-shot triggerable events.
"""

from repro.sim.engine import Deadline, Engine, SimulationError
from repro.sim.events import Event, EventAlreadyTriggered
from repro.sim.random import DeterministicRng

__all__ = [
    "Engine",
    "Deadline",
    "SimulationError",
    "Event",
    "EventAlreadyTriggered",
    "DeterministicRng",
]
