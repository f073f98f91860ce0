"""Molecular-dynamics application on CRL (Table 6's ``Water``).

Structured like the SPLASH Water kernel: molecules are partitioned
across nodes, one CRL region per node holding its molecules' state
(position and velocity). Each timestep every node reads every other
node's region to accumulate short-range pair forces against its own
molecules, then updates its own region (leapfrog integration), with
barriers separating the read and write phases.

Forces use a truncated soft Lennard-Jones in a periodic box. The
computation is real — tests check momentum conservation and box
containment — but the data set is scaled down from the paper's 512
molecules (documented in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Generator, List, Tuple

from repro.apps.base import Application, CollectiveOps
from repro.core.udm import UdmRuntime
from repro.crl.api import Crl
from repro.sim.random import DeterministicRng

#: Words per molecule in a region: x, y, z, vx, vy, vz.
WORDS_PER_MOLECULE = 6


class WaterApplication(Application):
    """Particle dynamics with per-node molecule regions over CRL."""

    name = "water"

    def __init__(self, molecules: int = 64, num_nodes: int = 8,
                 iterations: int = 3, box: float = 10.0,
                 cutoff: float = 3.0, dt: float = 0.002,
                 seed: int = 11, cycles_per_pair: int = 40) -> None:
        if molecules % num_nodes != 0:
            raise ValueError("molecules must divide evenly across nodes")
        self.molecules = molecules
        self.num_nodes = num_nodes
        self.iterations = iterations
        self.box = box
        self.cutoff = cutoff
        self.dt = dt
        self.cycles_per_pair = cycles_per_pair
        self.per_node = molecules // num_nodes
        self.crl = Crl(num_nodes)
        self.collectives = CollectiveOps(num_nodes)
        self._init_molecules(seed)

    def _init_molecules(self, seed: int) -> None:
        rng = DeterministicRng(seed, "water-init")
        for node in range(self.num_nodes):
            data: List[float] = []
            for _ in range(self.per_node):
                data.extend([
                    rng.random() * self.box,
                    rng.random() * self.box,
                    rng.random() * self.box,
                    (rng.random() - 0.5) * 0.1,
                    (rng.random() - 0.5) * 0.1,
                    (rng.random() - 0.5) * 0.1,
                ])
            self.crl.create(node, home=node,
                            size_words=self.per_node * WORDS_PER_MOLECULE,
                            init=data)

    # ------------------------------------------------------------------
    # Physics
    # ------------------------------------------------------------------
    def _minimum_image(self, d: float) -> float:
        box = self.box
        if d > box / 2:
            return d - box
        if d < -box / 2:
            return d + box
        return d

    def _pair_force(self, pi: Tuple[float, float, float],
                    pj: Tuple[float, float, float]) -> Tuple[float, float, float]:
        """Soft truncated LJ force on molecule i from molecule j."""
        dx = self._minimum_image(pi[0] - pj[0])
        dy = self._minimum_image(pi[1] - pj[1])
        dz = self._minimum_image(pi[2] - pj[2])
        r2 = dx * dx + dy * dy + dz * dz
        if r2 >= self.cutoff * self.cutoff or r2 == 0.0:
            return (0.0, 0.0, 0.0)
        r2 = max(r2, 0.25)  # softening avoids numerical blowups
        inv2 = 1.0 / r2
        inv6 = inv2 * inv2 * inv2
        scale = 24.0 * inv6 * (2.0 * inv6 - 1.0) * inv2
        return (scale * dx, scale * dy, scale * dz)

    @staticmethod
    def _positions(data: List[float]) -> List[Tuple[float, float, float]]:
        return [
            (data[i], data[i + 1], data[i + 2])
            for i in range(0, len(data), WORDS_PER_MOLECULE)
        ]

    # ------------------------------------------------------------------
    # Main
    # ------------------------------------------------------------------
    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        crl = self.crl
        for _step in range(self.iterations):
            # Phase 1: gather all positions (reads other regions).
            own = yield from crl.read_region(rt, node_index)
            my_pos = self._positions(own)
            forces = [(0.0, 0.0, 0.0)] * self.per_node
            pair_count = 0
            for other in range(self.num_nodes):
                if other == node_index:
                    others_pos = my_pos
                else:
                    snapshot = yield from crl.read_region(rt, other)
                    others_pos = self._positions(snapshot)
                for i, pi in enumerate(my_pos):
                    fx, fy, fz = forces[i]
                    for j, pj in enumerate(others_pos):
                        if other == node_index and i == j:
                            continue
                        dfx, dfy, dfz = self._pair_force(pi, pj)
                        fx += dfx
                        fy += dfy
                        fz += dfz
                        pair_count += 1
                    forces[i] = (fx, fy, fz)
                yield (self.cycles_per_pair * self.per_node
                       * len(others_pos))
            yield from self.collectives.barrier(rt)

            # Phase 2: integrate own molecules.
            yield from crl.start_write(rt, node_index)
            data = crl.data(rt, node_index)
            dt = self.dt
            for i in range(self.per_node):
                base = i * WORDS_PER_MOLECULE
                fx, fy, fz = forces[i]
                data[base + 3] += fx * dt
                data[base + 4] += fy * dt
                data[base + 5] += fz * dt
                data[base + 0] = (data[base + 0] + data[base + 3] * dt) \
                    % self.box
                data[base + 1] = (data[base + 1] + data[base + 4] * dt) \
                    % self.box
                data[base + 2] = (data[base + 2] + data[base + 5] * dt) \
                    % self.box
            yield from crl.end_write(rt, node_index)
            yield 30 * self.per_node
            yield from self.collectives.barrier(rt)

    # ------------------------------------------------------------------
    # Verification helpers
    # ------------------------------------------------------------------
    def total_momentum(self) -> Tuple[float, float, float]:
        px = py = pz = 0.0
        for node in range(self.num_nodes):
            data = self.crl.protocol.home_data[node]
            for i in range(0, len(data), WORDS_PER_MOLECULE):
                px += data[i + 3]
                py += data[i + 4]
                pz += data[i + 5]
        return px, py, pz

    def all_positions(self) -> List[Tuple[float, float, float]]:
        out = []
        for node in range(self.num_nodes):
            data = self.crl.protocol.home_data[node]
            out.extend(self._positions(data))
        return out

    def describe(self) -> str:
        return (
            f"{self.molecules} molecules, {self.iterations} steps, "
            f"{self.num_nodes} nodes"
        )
