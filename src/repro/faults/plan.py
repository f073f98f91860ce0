"""Fault plans: the picklable, cache-key-friendly unit of adversity.

A :class:`FaultPlan` is pure data — every field is a JSON scalar — so a
plan composes with :class:`~repro.runner.spec.RunSpec` and the
persistent result cache exactly like any other run parameter: the
plan's canonical string rides in the spec, extending the spec hash, so
faulty and fault-free runs can never collide in ``.repro_cache/``.

Determinism contract: a ``(plan, machine seed)`` pair fully determines
the fault schedule. The injector draws every decision from named
:class:`~repro.sim.random.DeterministicRng` streams seeded by
``plan.seed``, and decisions are consumed in simulation-event order,
which the engine makes reproducible — so identical specs produce
bit-identical metrics whether run serially, in a worker process, or
replayed from the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, FrozenSet, Optional, Tuple


@dataclass(frozen=True)
class FaultPlan:
    """Scheduled perturbations for one simulated run.

    All probabilities are per-event (per message send, per delivery
    attempt, per handler invocation). ``pairs`` optionally restricts
    the *fabric* faults (drop/duplicate/reorder/spike) to a set of
    ``src-dst`` pairs, e.g. ``"0-1;2-0"``; empty means every pair.
    """

    #: Seed for every fault-decision stream (independent of the
    #: machine seed, so the same adversity can replay across configs).
    seed: int = 0
    #: Per-message drop probability (unreliable-fabric mode).
    drop: float = 0.0
    #: Per-message duplication probability.
    duplicate: float = 0.0
    #: Reorder window in cycles: arrival jitter drawn from
    #: ``U[0, reorder]`` with per-pair FIFO enforcement *disabled* for
    #: affected pairs. 0 keeps the fabric in-order.
    reorder: int = 0
    #: Latency-spike probability and magnitude (order-preserving).
    spike: float = 0.0
    spike_cycles: int = 2_000
    #: Transient NI input-queue stall: probability per delivery attempt
    #: that the interface refuses input for ``stall_cycles``.
    stall: float = 0.0
    stall_cycles: int = 500
    #: Forced atomicity-timer expiries: this many, at seeded times
    #: uniform in ``[1, expiry_horizon]``, on seeded random nodes.
    expiries: int = 0
    expiry_horizon: int = 1_000_000
    #: Probability that a handler invocation synthesizes a page fault
    #: (a Section 4.3 buffered-mode trigger) before running.
    page_fault_rate: float = 0.0
    #: Mailbox service crashes: this many, at seeded times uniform in
    #: ``[1, mailbox_crash_horizon]``. Each crash wipes one seeded
    #: mailbox node's queued mail and dedup state and bumps its epoch,
    #: which clients observe at the next reconnect and answer with a
    #: replay of their bounded submission logs (see
    #: :mod:`repro.apps.mailbox`). A no-op on machines without a
    #: registered mailbox service.
    mailbox_crashes: int = 0
    mailbox_crash_horizon: int = 2_000_000
    #: Restrict fabric faults to these ``src-dst`` pairs ("" = all).
    pairs: str = ""
    #: Never fault kernel-GID messages (OS traffic must stay reliable;
    #: the paper's protection model assumes the kernel trusts its own
    #: transport).
    spare_kernel: bool = True

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "spike", "stall",
                     "page_fault_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} is not a probability")
        for name in ("reorder", "spike_cycles", "stall_cycles",
                     "expiries", "expiry_horizon", "mailbox_crashes",
                     "mailbox_crash_horizon"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        # Canonicalize the pair restriction (validates eagerly too).
        # Whitespace, empty chunks and duplicates would otherwise make
        # describe() emit a string that parses to a *different* plan —
        # e.g. ``pairs=" 0-1 ;"`` described to ``pairs= 0-1 ;`` but
        # parsed back stripped, breaking the roundtrip the cache keys
        # rely on. Sorted, deduplicated ``src-dst;...`` is the one
        # canonical spelling of every restriction set.
        restricted = self.pair_set()
        canonical = "" if restricted is None else ";".join(
            f"{src}-{dst}" for src, dst in sorted(restricted)
        )
        if canonical != self.pairs:
            object.__setattr__(self, "pairs", canonical)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_null(self) -> bool:
        """True when the plan perturbs nothing."""
        return not (
            self.drop or self.duplicate or self.reorder or self.spike
            or self.stall or self.expiries or self.page_fault_rate
            or self.mailbox_crashes
        )

    @property
    def lossy(self) -> bool:
        """True when messages can be lost outright (retry territory)."""
        return self.drop > 0.0

    @property
    def unordered(self) -> bool:
        return self.reorder > 0

    def pair_set(self) -> Optional[FrozenSet[Tuple[int, int]]]:
        """The restricted (src, dst) set, or None for "all pairs"."""
        if not self.pairs:
            return None
        out = set()
        for chunk in self.pairs.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                src_text, dst_text = chunk.split("-")
                out.add((int(src_text), int(dst_text)))
            except ValueError:
                raise ValueError(
                    f"bad pair {chunk!r} in pairs= (want 'src-dst')"
                ) from None
        return frozenset(out)

    def affects_pair(self, src: int, dst: int) -> bool:
        restricted = self.pair_set()
        return restricted is None or (src, dst) in restricted

    # ------------------------------------------------------------------
    # Canonical text form (the CLI flag and the spec parameter)
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Canonical compact form: non-default fields, field order.

        ``FaultPlan.parse(plan.describe()) == plan`` for every plan, so
        the string is a stable cache-key fragment.
        """
        parts = []
        for field in fields(self):
            value = getattr(self, field.name)
            if value == field.default:
                continue
            if isinstance(value, bool):
                value = int(value)
            parts.append(f"{field.name}={value}")
        return ",".join(parts)

    @classmethod
    def parse(cls, text: Optional[str]) -> Optional["FaultPlan"]:
        """Parse ``"drop=0.05,seed=7"``; empty/None parses to None.

        Values are coerced by the declared field type; unknown names
        raise (a typo'd fault must never silently run fault-free).
        """
        if not text:
            return None
        types: Dict[str, type] = {f.name: f.type for f in fields(cls)}
        kwargs: Dict[str, object] = {}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ValueError(f"bad fault setting {chunk!r} (want k=v)")
            name, _, raw = chunk.partition("=")
            name = name.strip()
            if name not in types:
                known = ", ".join(sorted(types))
                raise ValueError(
                    f"unknown fault parameter {name!r}; known: {known}"
                )
            declared = types[name]
            if declared in ("float", float):
                kwargs[name] = float(raw)
            elif declared in ("int", int):
                kwargs[name] = int(raw)
            elif declared in ("bool", bool):
                kwargs[name] = raw.strip().lower() not in ("0", "false", "")
            else:
                kwargs[name] = raw.strip()
        return cls(**kwargs)


#: The fault classes the raw-UDM run kinds (standalone, multiprog)
#: accept: their applications never resend a lost message.
LOSSLESS_CLASSES = ("stall", "spike", "expiries", "page_fault_rate")


def require_lossless(faults: str) -> str:
    """``faults``, or ValueError if it drops, duplicates or reorders."""
    plan = FaultPlan.parse(faults) or FaultPlan()
    lossy = [n for n in ("drop", "duplicate", "reorder") if getattr(plan, n)]
    if lossy:
        raise ValueError(
            f"fault plan {faults!r} sets {', '.join(lossy)}: standalone "
            "and multiprog runs assume a reliable, ordered fabric; use "
            f"the lossless classes ({', '.join(LOSSLESS_CLASSES)})")
    return faults


__all__ = ["FaultPlan", "LOSSLESS_CLASSES", "require_lossless"]
