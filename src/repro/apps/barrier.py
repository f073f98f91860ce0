"""The ``barrier`` synthetic application (Table 6).

"At the other extreme, a synthetic application, barrier, included for
illustration, consists entirely of barriers and thus synchronizes
constantly." The paper ran 10,000 barriers on eight nodes (240,177
messages, T_betw 615, T_hand 149).

Because it only makes progress when all processes are simultaneously
scheduled, its multiprogrammed slowdown is "almost exactly the inverse
of the skew" — the Figure 8 anchor case.
"""

from __future__ import annotations

from typing import Generator

from repro.apps.base import Application, CollectiveOps
from repro.core.udm import UdmRuntime


class BarrierApplication(Application):
    """``iterations`` back-to-back barriers with a little local work."""

    name = "barrier"

    def __init__(self, iterations: int = 1000, num_nodes: int = 8,
                 work_between: int = 100) -> None:
        if iterations < 1:
            raise ValueError("need at least one barrier")
        self.iterations = iterations
        self.num_nodes = num_nodes
        self.work_between = work_between
        self.collectives = CollectiveOps(num_nodes)
        self.completed = [0] * num_nodes

    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        for iteration in range(self.iterations):
            yield self.work_between
            total = yield from self.collectives.barrier(rt, contribute=1)
            if total != self.num_nodes:
                raise AssertionError(
                    f"barrier {iteration} released with {total} arrivals"
                )
            self.completed[node_index] = iteration + 1

    def describe(self) -> str:
        return f"{self.iterations} barriers on {self.num_nodes} nodes"
