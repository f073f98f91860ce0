"""The virtual software message buffer (Section 4.2).

One :class:`VirtualBuffer` exists per (job, node). The kernel's
mismatch-available handler inserts diverted messages at the tail (via
DMA); the application — transparently, through the runtime's virtualized
extract — consumes from the head. Messages are always processed in
order ("In our current implementation, queued messages are always
processed in order").

Pages are demand-allocated from the job's address space as messages
accumulate, and unmapped as the *head* page fully drains, so physical
consumption tracks the live window of buffered messages — the property
Section 5.1 measures ("less than seven pages/node in all cases").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.network.message import Message
from repro.glaze.vm import AddressSpace, OutOfFrames
from repro.stats import MAX, metric


class BufferFull(Exception):
    """Raised by a pinned queue when an insert exceeds its capacity.

    Pinned queues cannot grow: the hardware leaves the message in the
    network (backpressure) until the application drains — the
    memory-based interface's flow-control behaviour.
    """


class _BufferPage:
    """One buffer page: fill level and count of live messages."""

    __slots__ = ("vpn", "words_used", "messages_live")

    def __init__(self, vpn: int, capacity: int) -> None:
        self.vpn = vpn
        self.words_used = 0
        self.messages_live = 0


@dataclass
class BufferStats:
    inserted: int = 0
    consumed: int = 0
    pages_allocated: int = 0
    pages_released: int = 0
    max_pages: int = metric(fold=MAX)
    max_queued_messages: int = metric(fold=MAX)


class VirtualBuffer:
    """FIFO message buffer in a job's demand-paged virtual memory."""

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        self.page_size_words = space.page_size_words
        self._queue: Deque[Tuple[Message, _BufferPage]] = deque()
        self._pages: Deque[_BufferPage] = deque()
        self.stats = BufferStats()

    # ------------------------------------------------------------------
    # Producer side (kernel)
    # ------------------------------------------------------------------
    def pages_needed(self, message: Message) -> int:
        """Fresh pages an insert of this message would map.

        The kernel asks first so it can charge the Table 5 vmalloc cost
        per page actually allocated. Direct messages never straddle a
        page boundary (first-fit, like the original allocator); bulk
        messages larger than a page start on a fresh page and span as
        many as they need.
        """
        words = message.length_words
        if words <= self.page_size_words:
            if not self._pages:
                return 1
            tail = self._pages[-1]
            return 1 if tail.words_used + words > self.page_size_words \
                else 0
        return (words + self.page_size_words - 1) // self.page_size_words

    def needs_new_page(self, message: Message) -> bool:
        """Would inserting this message require at least one fresh page?"""
        return self.pages_needed(message) > 0

    def _map_page(self) -> "_BufferPage":
        vpn = self.space.map_fresh_page()  # may raise OutOfFrames
        page = _BufferPage(vpn, self.page_size_words)
        self._pages.append(page)
        self.stats.pages_allocated += 1
        if len(self._pages) > self.stats.max_pages:
            self.stats.max_pages = len(self._pages)
        return page

    def insert(self, message: Message) -> int:
        """Append a message; returns the number of fresh pages mapped.

        Raises :class:`~repro.glaze.vm.OutOfFrames` when a page is
        needed and the node's frame pool is empty — the caller owns the
        guaranteed-delivery (page-out) response. Bulk messages may span
        several pages; each holds a live reference until the message is
        consumed.
        """
        words = message.length_words
        touched: list = []
        new_pages = 0
        if words <= self.page_size_words:
            if self.pages_needed(message):
                self._map_page()
                new_pages = 1
            page = self._pages[-1]
            page.words_used += words
            touched.append(page)
        else:
            remaining = words
            while remaining > 0:
                page = self._map_page()
                new_pages += 1
                take = min(self.page_size_words, remaining)
                page.words_used += take
                remaining -= take
                touched.append(page)
        for page in touched:
            page.messages_live += 1
        message.buffered = True
        self._queue.append((message, tuple(touched)))
        self.stats.inserted += 1
        if len(self._queue) > self.stats.max_queued_messages:
            self.stats.max_queued_messages = len(self._queue)
        return new_pages

    # ------------------------------------------------------------------
    # Consumer side (application, via the runtime)
    # ------------------------------------------------------------------
    @property
    def head(self) -> Optional[Message]:
        return self._queue[0][0] if self._queue else None

    def __iter__(self):
        return (message for message, _pages in self._queue)

    def pop(self) -> Message:
        """Consume the head message, releasing its page(s) when drained."""
        if not self._queue:
            raise IndexError("pop from empty virtual buffer")
        message, pages = self._queue.popleft()
        for page in pages:
            page.messages_live -= 1
        self.stats.consumed += 1
        # Release fully-drained pages from the head of the page list.
        # Only a page that is no longer the insertion tail may go: the
        # tail keeps accepting messages even after a transient drain.
        while (
            self._pages
            and self._pages[0].messages_live == 0
            and (len(self._pages) > 1 or not self._queue)
        ):
            drained = self._pages.popleft()
            self.space.unmap_page(drained.vpn)
            self.stats.pages_released += 1
        return message

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        return not self._queue

    @property
    def pages_in_use(self) -> int:
        return len(self._pages)

    def audit(self) -> None:
        """Internal consistency check (used by property tests)."""
        live = sum(page.messages_live for page in self._pages)
        references = sum(len(pages) for _msg, pages in self._queue)
        if live != references:
            raise AssertionError(
                f"page live counts {live} != queued page references "
                f"{references}"
            )
        if self.pages_in_use != self.space.mapped_pages:
            raise AssertionError(
                f"buffer pages {self.pages_in_use} != mapped pages "
                f"{self.space.mapped_pages}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VirtualBuffer msgs={len(self._queue)} "
            f"pages={self.pages_in_use}>"
        )


class PinnedQueue:
    """A pinned per-process message queue: the memory-based baseline.

    The Figure 1(b) interface allocates a fixed set of physical pages
    per process up front and the hardware DMAs every arriving message
    into them. Capacity is a hardware ring: when the queue is full the
    message stays in the network until the application drains
    (:class:`BufferFull`). No pages are ever demand-allocated or
    released — the memory cost the paper's virtual buffering avoids.

    Exposes the same consumer/producer interface as
    :class:`VirtualBuffer` so the kernel and runtime are agnostic to
    the architecture.
    """

    def __init__(self, space: AddressSpace, pinned_pages: int) -> None:
        if pinned_pages < 1:
            raise ValueError("a pinned queue needs at least one page")
        self.space = space
        self.page_size_words = space.page_size_words
        self.pinned_pages = pinned_pages
        self.capacity_words = pinned_pages * space.page_size_words
        # Pin the pages now; they are never returned.
        self._vpns = [space.map_fresh_page() for _ in range(pinned_pages)]
        self.words_in_use = 0
        self._queue: Deque[Message] = deque()
        self.stats = BufferStats(max_pages=pinned_pages,
                                 pages_allocated=pinned_pages)

    # -- producer (the interface hardware) ------------------------------
    def pages_needed(self, message: Message) -> int:
        return 0  # pinned: never demand-allocates

    def needs_new_page(self, message: Message) -> bool:
        return False

    def insert(self, message: Message) -> int:
        words = message.length_words
        if words > self.capacity_words:
            raise ValueError(
                f"message of {words} words can never fit a "
                f"{self.capacity_words}-word pinned queue"
            )
        if self.words_in_use + words > self.capacity_words:
            raise BufferFull(
                f"pinned queue full ({self.words_in_use}/"
                f"{self.capacity_words} words)"
            )
        self.words_in_use += words
        message.buffered = True
        self._queue.append(message)
        self.stats.inserted += 1
        if len(self._queue) > self.stats.max_queued_messages:
            self.stats.max_queued_messages = len(self._queue)
        return 0

    # -- consumer (the application) --------------------------------------
    @property
    def head(self) -> Optional[Message]:
        return self._queue[0] if self._queue else None

    def pop(self) -> Message:
        if not self._queue:
            raise IndexError("pop from empty pinned queue")
        message = self._queue.popleft()
        self.words_in_use -= message.length_words
        self.stats.consumed += 1
        return message

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self):
        return iter(self._queue)

    @property
    def empty(self) -> bool:
        return not self._queue

    @property
    def pages_in_use(self) -> int:
        return self.pinned_pages  # always: that is the point

    def audit(self) -> None:
        words = sum(m.length_words for m in self._queue)
        if words != self.words_in_use:
            raise AssertionError(
                f"word accounting {self.words_in_use} != queue {words}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PinnedQueue msgs={len(self._queue)} "
            f"words={self.words_in_use}/{self.capacity_words}>"
        )
