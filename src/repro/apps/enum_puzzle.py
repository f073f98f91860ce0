"""The ``enum`` application: triangular peg-solitaire enumeration.

Table 6 describes enum as "a fine-grain, data-parallel application that
exchanges numerous unacknowledged short messages and synchronizes only
infrequently" — the triangle puzzle with 6 pegs per side. It is the
paper's stressor for asynchronous messaging: with little
synchronization, the fraction of buffered messages grows linearly with
schedule skew (Figure 7) while runtime stays nearly flat (Figure 8).

The puzzle: a triangular board with ``side`` rows (row *r* has *r + 1*
holes). All holes start pegged except the apex. A move jumps a peg over
an adjacent peg into an empty hole (along any of the six triangular
directions), removing the jumped peg. A solution leaves exactly one
peg. Each node enumerates the game subtrees rooted at its share of the
first-level moves (a static work partition); every ``updates_per_batch``
expansions it fires an unacknowledged statistics-update message at a
node chosen by hashing the position — the data-parallel update traffic.
One final barrier (with a fused reduction) collects the solution count.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Generator, List, Optional, Tuple

from repro.apps.base import Application, CollectiveOps
from repro.core.udm import UdmRuntime

Position = Tuple[int, int]
Board = frozenset


def triangle_cells(side: int) -> List[Position]:
    """All hole coordinates of a triangular board with ``side`` rows."""
    return [(r, c) for r in range(side) for c in range(r + 1)]


#: The six jump directions on a triangular grid: (dr, dc) per step.
_DIRECTIONS = [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]


@lru_cache(maxsize=8)
def _jump_table(cells: frozenset) -> Dict[Position, Tuple[Tuple[Position, Position], ...]]:
    """For each cell, its ``(over, dest)`` pairs whose ``dest`` is on
    the board, in ``_DIRECTIONS`` order: static geometry, built once
    per board shape. Read-only: every caller shares the result."""
    return {
        (r, c): tuple(((r + dr, c + dc), (r + 2 * dr, c + 2 * dc))
                      for dr, dc in _DIRECTIONS
                      if (r + 2 * dr, c + 2 * dc) in cells)
        for (r, c) in cells
    }


def legal_moves(board: Board, cells: frozenset) -> List[Tuple[Position, Position, Position]]:
    """All (source, jumped, destination) jumps available on ``board``
    (a subset of ``cells``), source-major in ``board`` iteration order,
    then in ``_DIRECTIONS`` order."""
    jumps = _jump_table(cells)
    moves = []
    for src in board:
        for over, dest in jumps[src]:
            if over in board and dest not in board:
                moves.append((src, over, dest))
    return moves


def apply_move(board: Board,
               move: Tuple[Position, Position, Position]) -> Board:
    src, over, dest = move
    return (board - {src, over}) | {dest}


class EnumApplication(Application):
    """Distributed enumeration of triangle-puzzle solutions."""

    name = "enum"

    def __init__(self, side: int = 5, num_nodes: int = 8,
                 updates_per_batch: int = 8, expansion_cycles: int = 90,
                 max_expansions_per_node: Optional[int] = 20_000) -> None:
        if side < 3:
            raise ValueError("triangle puzzle needs at least 3 rows")
        self.side = side
        self.num_nodes = num_nodes
        self.updates_per_batch = updates_per_batch
        self.expansion_cycles = expansion_cycles
        self.max_expansions_per_node = max_expansions_per_node
        self.collectives = CollectiveOps(num_nodes)
        self.cells = frozenset(triangle_cells(side))
        #: Distributed statistics: per-node counters updated by
        #: unacknowledged messages from peers.
        self.stat_counters: List[int] = [0] * num_nodes
        self.total_solutions: Optional[int] = None
        self.total_expansions: List[int] = [0] * num_nodes

    # ------------------------------------------------------------------
    # The unacknowledged statistics-update handler
    # ------------------------------------------------------------------
    def _h_stat_update(self, rt: UdmRuntime, msg) -> Generator:
        count = msg.payload[0]
        yield from rt.dispose_current()
        yield 150
        self.stat_counters[rt.node_index] += count

    # ------------------------------------------------------------------
    # Main
    # ------------------------------------------------------------------
    def partition_roots(self, node_index: int) -> List[Board]:
        """Statically partition the search space.

        The top of the game tree is narrow (the apex opening has only
        two first moves), so expand breadth-first until the frontier is
        wide enough to give every node several subtrees, then deal the
        frontier out round-robin. Every node runs the same
        deterministic expansion, so no communication is needed to agree
        on the partition.
        """
        initial = frozenset(self.cells - {(0, 0)})
        frontier: List[Board] = [initial]
        while 0 < len(frontier) < 4 * self.num_nodes:
            next_frontier: List[Board] = []
            for board in frontier:
                moves = legal_moves(board, self.cells)
                next_frontier.extend(apply_move(board, m) for m in moves)
            if not next_frontier:
                break
            frontier = next_frontier
        frontier.sort(key=lambda b: tuple(sorted(b)))
        return [
            board for i, board in enumerate(frontier)
            if i % self.num_nodes == node_index
        ]

    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        my_roots = self.partition_roots(node_index)
        solutions = 0
        expansions = 0
        pending_updates = 0
        budget = self.max_expansions_per_node
        # Iterative DFS over this node's subtrees.
        stack: List[Board] = list(my_roots)
        while stack:
            if budget is not None and expansions >= budget:
                break
            board = stack.pop()
            expansions += 1
            pending_updates += 1
            moves = legal_moves(board, self.cells)
            if not moves:
                if len(board) == 1:
                    solutions += 1
            else:
                stack.extend([apply_move(board, m) for m in moves])
            yield self.expansion_cycles
            if pending_updates >= self.updates_per_batch:
                # Fire-and-forget update to a position-hashed node.
                target = hash(board) % self.num_nodes
                yield from rt.inject(
                    target, self._h_stat_update, (pending_updates,)
                )
                pending_updates = 0
        if pending_updates:
            target = node_index  # final flush goes to the local counter
            yield from rt.inject(
                target, self._h_stat_update, (pending_updates,)
            )
        self.total_expansions[node_index] = expansions
        # The only synchronization: one final fused-reduction barrier.
        total = yield from self.collectives.barrier(rt, contribute=solutions)
        self.total_solutions = total

    def describe(self) -> str:
        return (
            f"triangle puzzle, {self.side} pegs/side, "
            f"{self.num_nodes} nodes"
        )
