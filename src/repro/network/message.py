"""Messages as defined by the UDM model (Section 3 of the paper).

A message is a variable-length sequence of words. The first word is the
routing header (destination plus, in FUGU, the hardware-stamped GID and a
kernel bit); the second is an optional handler address; the remainder is
unconstrained payload. FUGU's single-message output buffer limits direct
messages to 16 words — larger transfers use the separate DMA mechanism,
which is out of this paper's scope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Tuple

#: GID reserved for operating-system (kernel) messages. User code may
#: never launch a message carrying this GID (protection-violation trap).
KERNEL_GID = 0

#: Hardware limit on direct-message length, in words (header + handler +
#: payload), from Section 4.1.
MAX_MESSAGE_WORDS = 16

#: Upper bound on one bulk (DMA) transfer, in words. "Larger messages
#: utilize an associated user-level DMA mechanism" (Section 4.1); the
#: bound models the DMA descriptor's length field.
MAX_BULK_WORDS = 4096

_message_ids = itertools.count(1)


@dataclass
class Message:
    """One UDM message in flight or in a queue.

    ``handler`` is the user handler address; behaviourally we carry the
    handler callable (or a symbolic name for protocol dispatch) rather
    than a raw address — the simulator equivalent of the Active Messages
    handler word.
    """

    dst: int
    handler: Any
    payload: Tuple[Any, ...] = ()
    src: int = -1
    gid: int = KERNEL_GID
    #: True for bulk (user-level DMA) transfers, which may exceed the
    #: 16-word direct-message limit and move data without per-word
    #: processor cost at either end.
    bulk: bool = False
    #: Simulation bookkeeping, not architectural state.
    msg_id: int = field(default_factory=_message_ids.__next__)
    inject_time: int = -1
    deliver_time: int = -1
    #: True if this message was delivered via the software-buffered path.
    buffered: bool = False

    @property
    def length_words(self) -> int:
        """Total message length in words: header + handler + payload."""
        return 2 + len(self.payload)

    @property
    def payload_words(self) -> int:
        return len(self.payload)

    @property
    def is_kernel(self) -> bool:
        return self.gid == KERNEL_GID

    def validate(self) -> None:
        """Raise ValueError for messages the hardware could not carry."""
        limit = MAX_BULK_WORDS if self.bulk else MAX_MESSAGE_WORDS
        if self.length_words > limit:
            if self.bulk:
                raise ValueError(
                    f"bulk transfer of {self.length_words} words exceeds "
                    f"the {MAX_BULK_WORDS}-word DMA descriptor limit"
                )
            raise ValueError(
                f"message of {self.length_words} words exceeds the "
                f"{MAX_MESSAGE_WORDS}-word direct-message limit; use DMA"
            )
        if self.dst < 0:
            raise ValueError(f"invalid destination node {self.dst}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.handler, "__name__", self.handler)
        return (
            f"<Msg#{self.msg_id} {self.src}->{self.dst} gid={self.gid} "
            f"h={name} |{len(self.payload)}w|>"
        )
