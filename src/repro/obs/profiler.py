"""Opt-in wall-clock profiler for the engine hot loop.

Attaching an :class:`EngineProfiler` shadows ``engine.call_at``,
``engine.schedule`` and the ``arm`` of every
:class:`~repro.sim.engine.Deadline` built on the engine with wrappers
that time every executed callback and bucket the wall-clock cost by
the callback's defining subsystem (the first two components of its
``__module__``, e.g. ``repro.sim``, ``repro.glaze``). Detaching
restores the original methods.

This is strictly a wall-clock instrument: it never touches simulated
time, event ordering or any simulation state, so profiled runs produce
identical metrics — just slower. It exists for
``benchmarks/perf_smoke.py``, which reports per-subsystem shares and
cycles-simulated-per-second into ``BENCH_obs.json``; keep it out of
measured (non-profiling) benchmark passes, since wrapping every
callback costs real time.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List

from repro.sim.engine import _NO_ARG


def _subsystem(fn: Callable) -> str:
    module = getattr(fn, "__module__", None)
    if not module:
        return "unknown"
    parts = module.split(".")
    return ".".join(parts[:2])


class EngineProfiler:
    """Times executed callbacks, bucketed by scheduling subsystem."""

    def __init__(self, engine, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.engine = engine
        self.clock = clock
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._attached = False

    # ------------------------------------------------------------------
    def attach(self) -> "EngineProfiler":
        """Shadow ``engine.call_at``, ``engine.schedule`` and each
        deadline's ``arm`` with the timing wrappers."""
        if self._attached:
            return self
        original_call_at = self.engine.call_at    # bound class methods
        original_schedule = self.engine.schedule
        clock = self.clock
        seconds = self.seconds
        calls = self.calls

        def wrap(fn: Callable, arg: Any) -> Callable[[], None]:
            key = _subsystem(fn)

            def timed() -> None:
                start = clock()
                try:
                    if arg is _NO_ARG:
                        fn()
                    else:
                        fn(arg)
                finally:
                    seconds[key] = seconds.get(key, 0.0) + (clock() - start)
                    calls[key] = calls.get(key, 0) + 1

            return timed

        def profiled_call_at(when: int, fn: Callable, arg: Any = _NO_ARG):
            return original_call_at(when, wrap(fn, arg))

        def profiled_schedule(when: int, fn: Callable, arg: Any = _NO_ARG):
            return original_schedule(when, wrap(fn, arg))

        def profiled_arm(original_arm):
            def arm(when: int, fn: Callable, arg: Any = _NO_ARG) -> None:
                original_arm(when, wrap(fn, arg))
            return arm

        # Instance attributes shadow the class methods; everything that
        # schedules through this engine (call_after, call_soon, timeout,
        # process resumes, processor and timer wakes) funnels into one
        # of these, so they cover the machine.
        self.engine.call_at = profiled_call_at
        self.engine.schedule = profiled_schedule
        for deadline in self.engine._deadlines:
            deadline.arm = profiled_arm(deadline.arm)
        self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            del self.engine.call_at  # un-shadow the class methods
            del self.engine.schedule
            for deadline in self.engine._deadlines:
                del deadline.arm
            self._attached = False

    def __enter__(self) -> "EngineProfiler":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def report(self, wall_seconds: float = 0.0) -> Dict[str, Any]:
        """Per-subsystem shares, JSON-ready.

        ``wall_seconds`` (the caller's end-to-end measurement) adds a
        cycles-simulated-per-second figure for the whole run.
        """
        timed_total = sum(self.seconds.values())
        rows: List[Dict[str, Any]] = []
        for key in sorted(self.seconds, key=self.seconds.get,
                          reverse=True):
            rows.append({
                "subsystem": key,
                "seconds": self.seconds[key],
                "calls": self.calls[key],
                "share": (self.seconds[key] / timed_total
                          if timed_total else 0.0),
            })
        out: Dict[str, Any] = {
            "timed_seconds": timed_total,
            "subsystems": rows,
        }
        if wall_seconds > 0:
            out["wall_seconds"] = wall_seconds
            out["cycles_per_second"] = self.engine.now / wall_seconds
        return out


__all__ = ["EngineProfiler"]
