"""Blocked dense LU decomposition on CRL (Table 6's ``LU``).

A port of the SPLASH-2 LU kernel structure: the matrix is split into
B×B blocks scattered over the processors in a 2-D cookie-cutter
pattern; each step factors the diagonal block, solves the perimeter
blocks against it, and updates the interior with block
multiply-subtracts. Blocks live in CRL regions homed at (and updated
by) their owners, so the traffic is owner-writes plus
reader-invalidation pulls — the paper's "operating-system-like" mix of
request-reply control messages and larger fragmented data transfers.

The paper's data set is a 250x250 matrix in 10x10 blocks; ours defaults
to 64x64 in 8x8 blocks (documented scaling, see EXPERIMENTS.md). The
factorization is numerically real: tests verify L·U reassembles the
input matrix.
"""

from __future__ import annotations

from typing import Generator, List

from repro.apps.base import Application, CollectiveOps
from repro.core.udm import UdmRuntime
from repro.crl.api import Crl
from repro.sim.random import DeterministicRng


def _block_rid(i: int, j: int, grid: int) -> int:
    return i * grid + j


class LuApplication(Application):
    """SPLASH-2-style blocked LU without pivoting, over CRL."""

    name = "lu"

    def __init__(self, n: int = 64, block: int = 8, num_nodes: int = 8,
                 seed: int = 7, cycles_per_flop: int = 1) -> None:
        if n % block != 0:
            raise ValueError("matrix size must be a multiple of the block")
        self.n = n
        self.block = block
        self.grid = n // block
        self.num_nodes = num_nodes
        self.cycles_per_flop = cycles_per_flop
        self.crl = Crl(num_nodes)
        self.collectives = CollectiveOps(num_nodes)
        # 2-D processor grid for the cookie-cutter distribution.
        self.pr = self._rows_of(num_nodes)
        self.pc = num_nodes // self.pr
        self.original: List[List[float]] = []
        self._init_matrix(seed)

    @staticmethod
    def _rows_of(p: int) -> int:
        rows = 1
        candidate = 1
        while candidate * candidate <= p:
            if p % candidate == 0:
                rows = candidate
            candidate += 1
        return rows

    def owner(self, i: int, j: int) -> int:
        """Owner (and region home) of block (i, j)."""
        return (i % self.pr) * self.pc + (j % self.pc)

    def _init_matrix(self, seed: int) -> None:
        rng = DeterministicRng(seed, "lu-init")
        n, b, grid = self.n, self.block, self.grid
        matrix = [[rng.random() for _ in range(n)] for _ in range(n)]
        for d in range(n):
            matrix[d][d] += n  # diagonal dominance: no pivoting needed
        self.original = [row[:] for row in matrix]
        for bi in range(grid):
            for bj in range(grid):
                data: List[float] = []
                for r in range(b):
                    data.extend(matrix[bi * b + r][bj * b:(bj + 1) * b])
                self.crl.create(
                    _block_rid(bi, bj, grid), home=self.owner(bi, bj),
                    size_words=b * b, init=data,
                )

    # ------------------------------------------------------------------
    # Block kernels (operate on row-major b*b lists)
    # ------------------------------------------------------------------
    def _factor_diag(self, a: List[float]) -> None:
        """In-place LU of the diagonal block (unit lower-triangular L)."""
        b = self.block
        for k in range(b):
            pivot = a[k * b + k]
            for i in range(k + 1, b):
                a[i * b + k] /= pivot
                lik = a[i * b + k]
                row_i = i * b
                row_k = k * b
                for j in range(k + 1, b):
                    a[row_i + j] -= lik * a[row_k + j]

    def _solve_row(self, diag: List[float], a: List[float]) -> None:
        """A_kj := L_kk^{-1} A_kj (forward substitution, unit diagonal)."""
        b = self.block
        for i in range(1, b):
            row_i = i * b
            for k in range(i):
                lik = diag[row_i + k]
                row_k = k * b
                for j in range(b):
                    a[row_i + j] -= lik * a[row_k + j]

    def _solve_col(self, diag: List[float], a: List[float]) -> None:
        """A_ik := A_ik U_kk^{-1} (column back-substitution)."""
        b = self.block
        for j in range(b):
            ujj = diag[j * b + j]
            for i in range(b):
                a[i * b + j] /= ujj
            for j2 in range(j + 1, b):
                ujj2 = diag[j * b + j2]
                for i in range(b):
                    a[i * b + j2] -= a[i * b + j] * ujj2

    def _update(self, a: List[float], left: List[float],
                up: List[float]) -> None:
        """A_ij -= A_ik · A_kj."""
        b = self.block
        for i in range(b):
            row_i = i * b
            for k in range(b):
                lik = left[row_i + k]
                if lik == 0.0:
                    continue
                row_k = k * b
                for j in range(b):
                    a[row_i + j] -= lik * up[row_k + j]

    # ------------------------------------------------------------------
    # Main
    # ------------------------------------------------------------------
    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        crl = self.crl
        grid, b = self.grid, self.block
        flop = self.cycles_per_flop
        for k in range(grid):
            kk = _block_rid(k, k, grid)
            if self.owner(k, k) == node_index:
                yield from crl.start_write(rt, kk)
                self._factor_diag(crl.data(rt, kk))
                yield from crl.end_write(rt, kk)
                yield flop * (2 * b ** 3) // 3
            yield from self.collectives.barrier(rt)

            # Perimeter row and column solves against the diagonal block.
            for j in range(k + 1, grid):
                if self.owner(k, j) == node_index:
                    rid = _block_rid(k, j, grid)
                    yield from crl.start_read(rt, kk)
                    diag = crl.data(rt, kk)
                    yield from crl.start_write(rt, rid)
                    self._solve_row(diag, crl.data(rt, rid))
                    yield from crl.end_write(rt, rid)
                    yield from crl.end_read(rt, kk)
                    yield flop * b ** 3
            for i in range(k + 1, grid):
                if self.owner(i, k) == node_index:
                    rid = _block_rid(i, k, grid)
                    yield from crl.start_read(rt, kk)
                    diag = crl.data(rt, kk)
                    yield from crl.start_write(rt, rid)
                    self._solve_col(diag, crl.data(rt, rid))
                    yield from crl.end_write(rt, rid)
                    yield from crl.end_read(rt, kk)
                    yield flop * b ** 3
            yield from self.collectives.barrier(rt)

            # Interior update.
            for i in range(k + 1, grid):
                for j in range(k + 1, grid):
                    if self.owner(i, j) != node_index:
                        continue
                    rid = _block_rid(i, j, grid)
                    left = _block_rid(i, k, grid)
                    up = _block_rid(k, j, grid)
                    yield from crl.start_read(rt, left)
                    yield from crl.start_read(rt, up)
                    yield from crl.start_write(rt, rid)
                    self._update(crl.data(rt, rid), crl.data(rt, left),
                                 crl.data(rt, up))
                    yield from crl.end_write(rt, rid)
                    yield from crl.end_read(rt, up)
                    yield from crl.end_read(rt, left)
                    yield flop * 2 * b ** 3
            yield from self.collectives.barrier(rt)

    # ------------------------------------------------------------------
    # Verification helpers (used by tests)
    # ------------------------------------------------------------------
    def factored_matrix(self) -> List[List[float]]:
        """Reassemble the factored matrix from the regions' home data."""
        n, b, grid = self.n, self.block, self.grid
        out = [[0.0] * n for _ in range(n)]
        for bi in range(grid):
            for bj in range(grid):
                data = self.crl.protocol.home_data[_block_rid(bi, bj, grid)]
                for r in range(b):
                    row = out[bi * b + r]
                    row[bj * b:(bj + 1) * b] = data[r * b:(r + 1) * b]
        return out

    def reconstruct(self) -> List[List[float]]:
        """Multiply the packed L·U factors back together."""
        n = self.n
        lu = self.factored_matrix()
        out = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for k in range(min(i, j) + 1):
                    lik = lu[i][k] if k < i else 1.0
                    ukj = lu[k][j]
                    acc += lik * ukj
                out[i][j] = acc
        return out

    def describe(self) -> str:
        return (
            f"{self.n}x{self.n} blocked LU, {self.block}x{self.block} "
            f"blocks, {self.num_nodes} nodes"
        )
