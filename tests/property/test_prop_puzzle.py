"""Property tests for the triangle-puzzle mechanics (enum substrate)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps.enum_puzzle import (
    apply_move, legal_moves, triangle_cells,
)


def board_strategy(side=5):
    cells = triangle_cells(side)
    return st.sets(st.sampled_from(cells), min_size=2).map(frozenset)


_DIRECTIONS = [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]


def oracle_legal_moves(board, cells):
    """Reference: move generation by per-move tuple arithmetic."""
    moves = []
    for (r, c) in board:
        for dr, dc in _DIRECTIONS:
            over = (r + dr, c + dc)
            dest = (r + 2 * dr, c + 2 * dc)
            if over in board and dest in cells and dest not in board:
                moves.append(((r, c), over, dest))
    return moves


@given(data=st.data(), side=st.integers(min_value=4, max_value=6))
@settings(max_examples=300, deadline=None)
def test_legal_moves_match_oracle_in_order(data, side):
    board = data.draw(board_strategy(side))
    cells = frozenset(triangle_cells(side))
    # Order matters: the DFS pushes moves in list order.
    assert legal_moves(board, cells) == oracle_legal_moves(board, cells)


@given(board=board_strategy())
@settings(max_examples=200, deadline=None)
def test_moves_remove_exactly_one_peg(board):
    cells = frozenset(triangle_cells(5))
    for move in legal_moves(board, cells):
        after = apply_move(board, move)
        assert len(after) == len(board) - 1
        assert after <= cells  # never leaves the board


@given(board=board_strategy())
@settings(max_examples=200, deadline=None)
def test_moves_are_well_formed_jumps(board):
    cells = frozenset(triangle_cells(5))
    for src, over, dest in legal_moves(board, cells):
        assert src in board
        assert over in board
        assert dest in cells and dest not in board
        # dest is colinear, two steps from src with over between.
        assert (dest[0] - src[0], dest[1] - src[1]) == (
            2 * (over[0] - src[0]), 2 * (over[1] - src[1])
        )


@given(board=board_strategy(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_applying_a_move_makes_reverse_jump_available(board, data):
    cells = frozenset(triangle_cells(5))
    moves = legal_moves(board, cells)
    assume(moves)
    move = data.draw(st.sampled_from(moves))
    after = apply_move(board, move)
    src, over, dest = move
    assert dest in after
    assert src not in after and over not in after


@given(side=st.integers(min_value=3, max_value=7))
@settings(max_examples=20, deadline=None)
def test_cell_count_is_triangular(side):
    assert len(triangle_cells(side)) == side * (side + 1) // 2
