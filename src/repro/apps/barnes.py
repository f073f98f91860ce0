"""Barnes-Hut N-body simulation on CRL (Table 6's ``Barnes``).

A 2-D Barnes-Hut gravity code with the SPLASH communication structure
mapped onto CRL regions:

* one body region per node (positions, velocities, masses of its share
  of the bodies), homed at that node;
* one tree region (homed at node 0) holding the serialized quadtree.

Each iteration: node 0 gathers every body region (CRL reads), builds
the quadtree, and publishes it through the tree region (CRL write); a
barrier; then every node reads the tree — a large, fragmented data
transfer, exactly the "fewer larger data packets" component of CRL
traffic — computes forces for its own bodies with the θ-criterion
traversal, integrates, and writes its body region back; final barrier.

The tree and traversal are real; tests validate Barnes-Hut forces
against the direct O(n²) sum. Data sets are scaled from the paper's
2048 bodies (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional, Tuple

from repro.apps.base import Application, CollectiveOps
from repro.core.udm import UdmRuntime
from repro.crl.api import Crl
from repro.sim.random import DeterministicRng

#: Words per body in a body region: x, y, vx, vy, mass.
WORDS_PER_BODY = 5
#: Words per serialized tree node:
#: kind, cmx, cmy, mass, half, child0, child1, child2, child3.
WORDS_PER_TREE_NODE = 9

_INTERNAL = 0.0
_LEAF = 1.0
_EMPTY = -1.0


class QuadTree:
    """A 2-D Barnes-Hut quadtree built over point masses."""

    def __init__(self, cx: float, cy: float, half: float) -> None:
        self.cx = cx
        self.cy = cy
        self.half = half
        self.kind = _EMPTY
        self.mass = 0.0
        self.cmx = 0.0
        self.cmy = 0.0
        self.children: List[Optional["QuadTree"]] = [None] * 4
        self._body: Optional[Tuple[float, float, float]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def insert(self, x: float, y: float, mass: float) -> None:
        if self.kind == _EMPTY:
            self.kind = _LEAF
            self._body = (x, y, mass)
            return
        if self.kind == _LEAF:
            old = self._body
            self._body = None
            self.kind = _INTERNAL
            self._insert_child(*old)
        self._insert_child(x, y, mass)

    def _insert_child(self, x: float, y: float, mass: float) -> None:
        quadrant = (1 if x >= self.cx else 0) + (2 if y >= self.cy else 0)
        child = self.children[quadrant]
        if child is None:
            h = self.half / 2
            ccx = self.cx + (h if quadrant & 1 else -h)
            ccy = self.cy + (h if quadrant & 2 else -h)
            child = QuadTree(ccx, ccy, h)
            self.children[quadrant] = child
        if child.half < 1e-9:
            # Degenerate coincident points: merge into the leaf.
            if child.kind == _LEAF:
                bx, by, bm = child._body
                child._body = (bx, by, bm + mass)
                return
        child.insert(x, y, mass)

    def summarize(self) -> None:
        """Compute mass and center of mass bottom-up."""
        if self.kind == _LEAF:
            self.cmx, self.cmy, self.mass = self._body
            return
        if self.kind == _EMPTY:
            return
        mass = wx = wy = 0.0
        for child in self.children:
            if child is None:
                continue
            child.summarize()
            mass += child.mass
            wx += child.cmx * child.mass
            wy += child.cmy * child.mass
        self.mass = mass
        if mass > 0:
            self.cmx = wx / mass
            self.cmy = wy / mass

    def node_count(self) -> int:
        if self.kind == _EMPTY:
            return 0
        total = 1
        if self.kind == _INTERNAL:
            for child in self.children:
                if child is not None:
                    total += child.node_count()
        return total

    # ------------------------------------------------------------------
    # Serialization into a flat word list (the tree region format)
    # ------------------------------------------------------------------
    def serialize(self, out: List[float]) -> int:
        """Append this subtree; returns this node's index."""
        index = len(out) // WORDS_PER_TREE_NODE
        out.extend([0.0] * WORDS_PER_TREE_NODE)
        base = index * WORDS_PER_TREE_NODE
        out[base + 0] = self.kind
        out[base + 1] = self.cmx
        out[base + 2] = self.cmy
        out[base + 3] = self.mass
        out[base + 4] = self.half
        child_indices = [-1.0] * 4
        if self.kind == _INTERNAL:
            for q, child in enumerate(self.children):
                if child is not None and child.kind != _EMPTY:
                    child_indices[q] = float(child.serialize(out))
        out[base + 5:base + 9] = child_indices
        return index


def traverse_force(tree_words: List[float], index: int, x: float, y: float,
                   theta: float, softening: float) -> Tuple[float, float, int]:
    """Barnes-Hut force at (x, y) from the serialized subtree ``index``.

    Returns (fx, fy, nodes_visited); visit counts drive the simulated
    compute cost so the charged cycles track the real work.
    """
    base = index * WORDS_PER_TREE_NODE
    kind = tree_words[base]
    cmx = tree_words[base + 1]
    cmy = tree_words[base + 2]
    mass = tree_words[base + 3]
    half = tree_words[base + 4]
    dx = cmx - x
    dy = cmy - y
    dist2 = dx * dx + dy * dy + softening
    dist = math.sqrt(dist2)
    if kind == _LEAF or (2 * half) / dist < theta:
        if mass == 0.0 or dist2 <= softening:
            return (0.0, 0.0, 1)
        scale = mass / (dist2 * dist)
        return (dx * scale, dy * scale, 1)
    fx = fy = 0.0
    visited = 1
    for q in range(4):
        child = int(tree_words[base + 5 + q])
        if child < 0:
            continue
        cfx, cfy, cv = traverse_force(tree_words, child, x, y, theta,
                                      softening)
        fx += cfx
        fy += cfy
        visited += cv
    return (fx, fy, visited)


class BarnesApplication(Application):
    """Barnes-Hut over CRL with a published (region-resident) tree."""

    name = "barnes"

    TREE_RID_OFFSET = 1000

    def __init__(self, bodies: int = 64, num_nodes: int = 8,
                 iterations: int = 3, theta: float = 0.7,
                 dt: float = 0.01, seed: int = 13,
                 cycles_per_visit: int = 12,
                 cycles_per_insert: int = 25) -> None:
        if bodies % num_nodes != 0:
            raise ValueError("bodies must divide evenly across nodes")
        self.bodies = bodies
        self.num_nodes = num_nodes
        self.iterations = iterations
        self.theta = theta
        self.dt = dt
        self.softening = 0.05
        self.cycles_per_visit = cycles_per_visit
        self.cycles_per_insert = cycles_per_insert
        self.per_node = bodies // num_nodes
        self.box_half = 12.0
        self.crl = Crl(num_nodes)
        self.collectives = CollectiveOps(num_nodes)
        #: Serialized-tree capacity: worst-case quadtree fanout bound.
        self.tree_words = (4 * bodies + 8) * WORDS_PER_TREE_NODE + 1
        #: The tree is published through several medium-sized regions
        #: rather than one huge one, as CRL applications shard large
        #: shared structures: each grant handler then streams a bounded
        #: number of fragments and never outlives the atomicity timer.
        self.tree_chunk_words = 320
        self.tree_chunks = (
            (self.tree_words + self.tree_chunk_words - 1)
            // self.tree_chunk_words
        )
        self._init_bodies(seed)
        for chunk in range(self.tree_chunks):
            self.crl.create(self.TREE_RID_OFFSET + chunk, home=0,
                            size_words=self.tree_chunk_words)

    def _init_bodies(self, seed: int) -> None:
        rng = DeterministicRng(seed, "barnes-init")
        for node in range(self.num_nodes):
            data: List[float] = []
            for _ in range(self.per_node):
                radius = rng.random() * self.box_half * 0.6
                angle = rng.random() * 2 * math.pi
                data.extend([
                    radius * math.cos(angle),
                    radius * math.sin(angle),
                    (rng.random() - 0.5) * 0.2,
                    (rng.random() - 0.5) * 0.2,
                    0.5 + rng.random(),
                ])
            self.crl.create(node, home=node,
                            size_words=self.per_node * WORDS_PER_BODY,
                            init=data)

    # ------------------------------------------------------------------
    # Tree building (runs on node 0)
    # ------------------------------------------------------------------
    def build_tree(self, all_bodies: List[Tuple[float, float, float]]
                   ) -> List[float]:
        root = QuadTree(0.0, 0.0, self.box_half * 2)
        for x, y, mass in all_bodies:
            root.insert(x, y, mass)
        root.summarize()
        words: List[float] = []
        root.serialize(words)
        if len(words) + 1 > self.tree_words:
            raise RuntimeError("serialized tree exceeds the tree region")
        return words

    # ------------------------------------------------------------------
    # Main
    # ------------------------------------------------------------------
    # -- tree publication through the chunked regions -------------------
    def _publish_tree(self, rt: UdmRuntime,
                      words: List[float]) -> Generator:
        """Write the serialized tree (length-prefixed) into the chunk
        regions; only chunks the tree actually covers are written."""
        flat = [float(len(words))] + words
        for chunk in range(self.tree_chunks):
            base = chunk * self.tree_chunk_words
            if base >= len(flat):
                break
            rid = self.TREE_RID_OFFSET + chunk
            piece = flat[base:base + self.tree_chunk_words]
            yield from self.crl.start_write(rt, rid)
            data = self.crl.data(rt, rid)
            data[:len(piece)] = piece
            yield from self.crl.end_write(rt, rid)

    def _fetch_tree(self, rt: UdmRuntime) -> Generator:
        """Read the chunk regions back into one flat serialized tree."""
        first = yield from self.crl.read_region(rt, self.TREE_RID_OFFSET)
        used = int(first[0])
        flat = list(first)
        chunk = 1
        while len(flat) < used + 1:
            rid = self.TREE_RID_OFFSET + chunk
            piece = yield from self.crl.read_region(rt, rid)
            flat.extend(piece)
            chunk += 1
        return flat[1:1 + used]

    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        crl = self.crl
        for _step in range(self.iterations):
            if node_index == 0:
                gathered: List[Tuple[float, float, float]] = []
                for node in range(self.num_nodes):
                    snapshot = yield from crl.read_region(rt, node)
                    for i in range(0, len(snapshot), WORDS_PER_BODY):
                        gathered.append((snapshot[i], snapshot[i + 1],
                                         snapshot[i + 4]))
                words = self.build_tree(gathered)
                yield self.cycles_per_insert * len(gathered)
                yield from self._publish_tree(rt, words)
            yield from self.collectives.barrier(rt)

            # Force phase: read the published tree, update own bodies.
            tree = yield from self._fetch_tree(rt)
            yield from crl.start_write(rt, node_index)
            data = crl.data(rt, node_index)
            visits = 0
            for i in range(self.per_node):
                base = i * WORDS_PER_BODY
                fx, fy, visited = traverse_force(
                    tree, 0, data[base], data[base + 1],
                    self.theta, self.softening,
                )
                visits += visited
                data[base + 2] += fx * self.dt
                data[base + 3] += fy * self.dt
                data[base + 0] += data[base + 2] * self.dt
                data[base + 1] += data[base + 3] * self.dt
            yield from crl.end_write(rt, node_index)
            yield self.cycles_per_visit * visits
            yield from self.collectives.barrier(rt)

    # ------------------------------------------------------------------
    # Verification helpers
    # ------------------------------------------------------------------
    def all_bodies(self) -> List[Tuple[float, float, float, float, float]]:
        out = []
        for node in range(self.num_nodes):
            data = self.crl.protocol.home_data[node]
            for i in range(0, len(data), WORDS_PER_BODY):
                out.append(tuple(data[i:i + WORDS_PER_BODY]))
        return out

    def describe(self) -> str:
        return (
            f"{self.bodies} bodies, {self.iterations} iterations, "
            f"theta={self.theta}, {self.num_nodes} nodes"
        )
