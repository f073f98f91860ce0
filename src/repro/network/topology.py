"""Mesh topology and latency model.

Alewife (and hence FUGU) used a 2-D mesh with wormhole routing. The
experiments in the paper are insensitive to routing detail, so the
topology contributes only a deterministic end-to-end latency:

    latency = base + per_hop * hops(src, dst) + per_word * length

with dimension-order (X then Y) hop counts. Deterministic per-pair
latency also guarantees in-order delivery per (src, dst) pair, matching
Alewife's in-order network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class MeshTopology:
    """A ``width x height`` 2-D mesh of nodes, numbered row-major."""

    num_nodes: int
    base_latency: int = 10
    per_hop_latency: int = 2
    per_word_latency: int = 1

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("need at least one node")

    @cached_property
    def width(self) -> int:
        return max(1, math.isqrt(self.num_nodes))

    def hops(self, src: int, dst: int) -> int:
        """Dimension-order hop count between two nodes."""
        num_nodes = self.num_nodes
        if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
            self._check(src)
            self._check(dst)
        width = self.width
        return (abs(src % width - dst % width)
                + abs(src // width - dst // width))

    def latency(self, src: int, dst: int, length_words: int) -> int:
        """End-to-end network transit latency in cycles."""
        if src == dst:
            # Loopback through the NI still pays the base pipeline cost.
            return self.base_latency
        return (
            self.base_latency
            + self.per_hop_latency * self.hops(src, dst)
            + self.per_word_latency * length_words
        )

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"node {node} out of range for {self.num_nodes}-node mesh"
            )
