"""The "null" multiprogramming partner (Section 5.1).

"We use a null application rather than two copies of a real application
because the experiment is more easily controlled." It computes forever
and never communicates; its only role is to occupy the other timeslice
so the measured application runs multiprogrammed.
"""

from __future__ import annotations

from typing import Generator

from repro.apps.base import Application
from repro.core.udm import UdmRuntime


class NullApplication(Application):
    """Pure computation; never sends or receives a message."""

    name = "null"
    communicates = False

    def __init__(self, chunk_cycles: int = 10_000) -> None:
        if chunk_cycles <= 0:
            raise ValueError("chunk size must be positive")
        self.chunk_cycles = chunk_cycles

    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        while True:
            yield self.chunk_cycles

    def describe(self) -> str:
        return "null application (infinite compute loop)"
