"""One-shot events for the simulation kernel.

An :class:`Event` is the basic synchronization primitive: processor frames
wait on it (by yielding it), callbacks subscribe to it, and exactly one
``trigger`` delivers a value to all waiters at the current simulation
time.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional


class EventAlreadyTriggered(RuntimeError):
    """Raised when ``trigger`` is called twice on the same event."""


class Event:
    """A one-shot event carrying an optional value.

    Events are intentionally tiny: the simulator cores below (network
    delivery, interrupt wakeups, thread joins) create millions of them in
    a long run, so the implementation avoids any indirection beyond a
    callback list.
    """

    __slots__ = ("name", "triggered", "value", "_callbacks")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._callbacks: Optional[List[Callable[[Any], None]]] = None

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)`` to run when the event triggers.

        If the event has already triggered, the callback runs
        immediately — late subscribers never miss the event.
        """
        if self.triggered:
            callback(self.value)
            return
        if self._callbacks is None:
            self._callbacks = []
        self._callbacks.append(callback)

    def unsubscribe(self, callback: Callable[[Any], None]) -> None:
        """Remove a previously subscribed callback (no-op if absent)."""
        if self._callbacks is not None:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass

    def trigger(self, value: Any = None) -> None:
        """Fire the event, delivering ``value`` to every subscriber."""
        if self.triggered:
            raise EventAlreadyTriggered(
                f"event {self.name or id(self)} triggered twice"
            )
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name or hex(id(self))} {state}>"
