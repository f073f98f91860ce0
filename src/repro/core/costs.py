"""The cycle-cost model: Tables 4 and 5 of the paper.

Table 4 gives the per-category costs of the fast path for three
protection regimes:

* ``KERNEL`` — unprotected kernel-to-kernel messaging (54-cycle null
  interrupt receive);
* ``HARD`` — user-level messaging protected by the hardware revocable
  interrupt disable (87 cycles);
* ``SOFT`` — the same protection emulated in software on first-silicon
  CMMUs (115 cycles), the configuration the paper's application results
  were measured in.

Table 5 gives the buffered-path costs: 180 cycles minimum to insert a
message into the software buffer (3,162 when a fresh page must be
allocated), and 52 cycles to execute a null handler from the buffer —
232 cycles per buffered null message end to end.

All costs are data, not behaviour: the simulator charges them wherever
the corresponding code path runs, so experiments may re-parameterize
(e.g. Figure 10 artificially inflates the buffer-insert cost).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property

#: Version stamp of the cycle-cost model. Bump whenever any constant in
#: this module (or cost-charging behaviour anywhere in the simulator)
#: changes: the persistent result cache (`repro.runner.cache`) keys
#: every stored run on this value, so a bump invalidates stale results.
COST_MODEL_VERSION = 1


#: How many doublings an exponential transport backoff may grow before
#: it stops increasing. Both reliable-transport delay paths (the
#: retransmission timer and the NI-autonomous credit wait) share this
#: exponent, so a non-default base delay scales both the same way.
TRANSPORT_BACKOFF_DOUBLINGS = 6

#: Absolute ceiling, in cycles, on any reliable-transport backoff
#: delay — roughly half the default 500,000-cycle scheduler timeslice,
#: so a backed-off retry always lands within the next quantum instead
#: of blowing past the atomicity window. With the default 4,000-cycle
#: retry timeout the doubling cap and this ceiling coincide
#: (4,000 << 6 = 256,000), so default configurations are unchanged.
TRANSPORT_BACKOFF_CAP = 256_000


def transport_backoff_cap(base: int) -> int:
    """The ceiling for an exponential backoff starting at ``base``.

    The single named cap both :class:`ReliableTransport` delay paths
    clamp to: ``base`` doubled :data:`TRANSPORT_BACKOFF_DOUBLINGS`
    times, never above :data:`TRANSPORT_BACKOFF_CAP`.
    """
    return min(base << TRANSPORT_BACKOFF_DOUBLINGS, TRANSPORT_BACKOFF_CAP)


class AtomicityMode(enum.Enum):
    """Which protection regime the fast path runs under (Table 4)."""

    KERNEL = "kernel"
    HARD = "hard"
    SOFT = "soft"


@dataclass(frozen=True)
class FastPathCosts:
    """Per-category fast-path costs for one atomicity mode (Table 4)."""

    # Message send
    descriptor_construction: int = 6
    launch: int = 1
    send_per_payload_word: int = 3
    # Message receive via interrupt
    interrupt_overhead: int = 6
    register_save: int = 16
    gid_check: int = 0
    timer_setup: int = 0
    virtual_buffering_overhead: int = 0
    dispatch: int = 10
    null_handler: int = 5
    upcall_cleanup: int = 0
    timer_cleanup: int = 0
    register_restore: int = 17
    receive_per_payload_word: int = 2
    # Message receive via polling
    poll_check: int = 3
    poll_dispatch: int = 5
    poll_null_handler: int = 1

    # The subtotals the runtime charges per message are computed once
    # per (frozen) cost table.
    @cached_property
    def send_total(self) -> int:
        """Null-message send cost (7 in every mode)."""
        return self.descriptor_construction + self.launch

    @cached_property
    def receive_entry(self) -> int:
        """Interrupt receive cost up to handler start (Table 4 subtotal)."""
        return (
            self.interrupt_overhead
            + self.register_save
            + self.gid_check
            + self.timer_setup
            + self.virtual_buffering_overhead
            + self.dispatch
        )

    @cached_property
    def receive_exit(self) -> int:
        """Interrupt receive cost after the handler returns."""
        return (
            self.upcall_cleanup + self.timer_cleanup + self.register_restore
        )

    @property
    def receive_interrupt_total(self) -> int:
        """Null-message receive-by-interrupt cost (Table 4 total)."""
        return self.receive_entry + self.null_handler + self.receive_exit

    @property
    def receive_polling_total(self) -> int:
        """Null-message receive-by-polling cost (9 cycles)."""
        return self.poll_check + self.poll_dispatch + self.poll_null_handler


#: Table 4, column by column.
_FAST_PATH = {
    AtomicityMode.KERNEL: FastPathCosts(),
    AtomicityMode.HARD: FastPathCosts(
        gid_check=10, timer_setup=1, virtual_buffering_overhead=8,
        dispatch=13, upcall_cleanup=10, timer_cleanup=1,
    ),
    AtomicityMode.SOFT: FastPathCosts(
        gid_check=10, timer_setup=13, virtual_buffering_overhead=8,
        dispatch=13, upcall_cleanup=10, timer_cleanup=17,
    ),
}


@dataclass(frozen=True)
class BufferedPathCosts:
    """Software-buffered delivery costs (Table 5)."""

    #: Minimum buffer-insert handler (kernel side, existing page).
    insert_min: int = 180
    #: Maximum insert handler: a fresh physical page is allocated.
    insert_with_vmalloc: int = 3162
    #: Execute a null handler from the buffer (user side), including one
    #: expected cache miss fetching the header from DRAM.
    extract_null: int = 52
    #: "Add roughly 4.5 cycles per argument word to the extraction cost"
    #: — DRAM access (2/word) plus amortized cache misses (10 per 4
    #: words). Expressed in tenths to stay integral.
    extract_per_word_tenths: int = 45
    #: Artificial extra insert latency (Figure 10's sweep parameter).
    insert_extra: int = 0

    @property
    def vmalloc_cost(self) -> int:
        """Marginal cost of the on-demand page allocation."""
        return self.insert_with_vmalloc - self.insert_min

    @property
    def per_message_total(self) -> int:
        """Steady-state buffered cost per null message (232 cycles)."""
        return self.insert_min + self.insert_extra + self.extract_null

    def insert_cost(self, new_page: bool) -> int:
        base = self.insert_with_vmalloc if new_page else self.insert_min
        return base + self.insert_extra

    def insert_cost_pages(self, pages: int) -> int:
        """Insert cost when ``pages`` fresh pages must be mapped (bulk
        messages may span several)."""
        return self.insert_min + self.insert_extra \
            + pages * self.vmalloc_cost

    def extract_cost(self, payload_words: int) -> int:
        return self.extract_null + (
            self.extract_per_word_tenths * payload_words
        ) // 10


@dataclass(frozen=True)
class BulkCosts:
    """User-level DMA (bulk transfer) costs.

    The paper defers bulk transfers to FUGU's separate DMA mechanism
    [Mackenzie et al., TM-503]; these model its processor-visible
    costs: descriptor setup at the sender and completion handling at
    the receiver. The data itself moves by DMA — no per-word processor
    cycles at either end (the engine's occupancy is modelled by
    :class:`~repro.ni.dma.DmaEngine`).
    """

    setup: int = 50
    completion: int = 20


@dataclass(frozen=True)
class KernelCosts:
    """Glaze kernel overheads not itemized in the paper's tables.

    These are free parameters: the paper reports only that its scheduler
    timeslice was 500,000 cycles. Values are chosen to be plausibly
    small relative to the timeslice so the Figure 7/8 results are
    dominated by skew and buffering, not by kernel constants.
    """

    #: Gang context switch (capture + install + NI reprogramming).
    context_switch: int = 1000
    #: Entering/leaving buffered mode (divert-mode writes, bookkeeping).
    mode_transition: int = 100
    #: Servicing a mismatch interrupt before any per-message work.
    mismatch_entry: int = 50
    #: Synchronous trap entry/exit (dispose-extend emulation prologue).
    trap_overhead: int = 20
    #: Page-out of one buffer page over the second network, when the
    #: frame pool is exhausted (latency to backing store).
    page_out: int = 20000
    #: Memory-based baseline: per-message hardware demultiplex into the
    #: pinned queue (queue-pointer update; the copy itself is DMA).
    hardware_demux: int = 15
    #: Memory-based baseline: how long the hardware waits before
    #: retrying delivery into a full pinned queue.
    pinned_retry_delay: int = 500
    #: Zero-copy discipline: taking the protection-fault trap that
    #: redirects a delivery off the pinned receive ring onto the
    #: buffered path (charged once per kernel drain under zerocopy;
    #: never on the default two-case paths).
    zerocopy_fault_trap: int = 300
    #: DAMQ discipline: scanning the per-source lists to pick an
    #: eviction victim under occupancy pressure (charged by the
    #: mismatch drain the eviction triggers; never under two-case).
    damq_evict_scan: int = 40


@dataclass(frozen=True)
class CostModel:
    """The full machine cost model used by runtime, kernel and apps."""

    mode: AtomicityMode = AtomicityMode.HARD
    fast: FastPathCosts = field(default=None)  # type: ignore[assignment]
    buffered: BufferedPathCosts = field(default_factory=BufferedPathCosts)
    kernel: KernelCosts = field(default_factory=KernelCosts)
    bulk: BulkCosts = field(default_factory=BulkCosts)

    def __post_init__(self) -> None:
        if self.fast is None:
            object.__setattr__(self, "fast", _FAST_PATH[self.mode])

    @staticmethod
    def for_mode(mode: AtomicityMode) -> "CostModel":
        return CostModel(mode=mode)

    def with_buffer_insert_extra(self, extra: int) -> "CostModel":
        """Figure 10: add artificial latency to the buffer handler."""
        return replace(self, buffered=replace(self.buffered,
                                              insert_extra=extra))

    # Convenience pass-throughs used throughout the runtime -------------
    def send_cost(self, payload_words: int) -> int:
        return (
            self.fast.send_total
            + self.fast.send_per_payload_word * payload_words
        )

    def receive_handler_extra(self, payload_words: int) -> int:
        return self.fast.receive_per_payload_word * payload_words
