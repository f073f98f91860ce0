"""The dedicated atomicity timer (Section 4.1, "Revocable Interrupt
Disable").

Hardware behaviour being modelled:

* a decrementing counter and a preset value (*atomicity-timeout*);
* while **disabled**, the counter sits at the preset value;
* while **enabled**, it decrements every cycle and flags an
  *atomicity-timeout* interrupt on reaching zero;
* the enable condition is computed by the NI from the UAC flags
  (interrupt-disable with a message pending, or timer-force);
* ``dispose`` "briefly disables (i.e. presets)" the timer — forward
  progress on the message queue restarts the countdown.

Because the counter is preset whenever disabled, enabling always starts
a full countdown; the event-driven model is therefore one re-armable
engine :class:`~repro.sim.engine.Deadline` rather than a per-cycle
decrement. Enable, restart and disable re-arm or clear it in place,
allocating nothing, as presetting the hardware register costs nothing.
The enable condition and the dispose restart are the network
interface's, so it drives the deadline itself, from the same pass that
evaluates its interrupt lines (``NetworkInterface._update`` and
``NetworkInterface.dispose``); this class holds the preset, the
deadline and the expiry count.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Deadline, Engine


class AtomicityTimer:
    """Restartable countdown raising ``on_timeout`` after ``preset``;
    the network interface starts, restarts and stops it."""

    def __init__(self, engine: Engine, preset: int,
                 on_timeout: Callable[[], None]) -> None:
        if preset <= 0:
            raise ValueError("atomicity timeout preset must be positive")
        self.engine = engine
        self.preset = preset
        self.on_timeout = on_timeout
        self._wake = Deadline(engine)
        self.timeouts = 0

    @property
    def enabled(self) -> bool:
        return self._wake.armed

    @property
    def deadline(self) -> Optional[int]:
        return self._wake.time

    def set_preset(self, preset: int) -> None:
        """Kernel write of the *atomicity-timeout* register.

        Takes effect at the next enable (the running countdown, if any,
        is not retimed — matches a preset-on-disable counter).
        """
        if preset <= 0:
            raise ValueError("atomicity timeout preset must be positive")
        self.preset = preset

    def _fire(self) -> None:
        self.timeouts += 1
        self.on_timeout()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"deadline={self.deadline}" if self.enabled else "disabled"
        return f"<AtomicityTimer preset={self.preset} {state}>"
