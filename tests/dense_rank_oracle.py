"""Dense rank oracles for the sparse rank engine in `arrtop.exactla`:
Gaussian elimination mod p in numpy int64 over F_p, fraction-free
Bareiss elimination on Python ints over Q, and the pivots of the dense
Gauss-Jordan `rref` over Q; and the transpose, whose rank must equal the
matrix's.

Rows mod p must hold residues in [0, p) with p <= fields.MAX_PRIME, so
that (p - 1)**2 fits in int64."""

from math import lcm

import numpy as np

from arrtop.exactla import FMatrixSparse, rref
from arrtop.fields import FieldSpec


def rank_dense(rows) -> int:
    """Rank over Q of a list of rational rows, by Gauss-Jordan."""
    return len(rref(rows, FieldSpec.rationals())[1])


def transpose(m):
    t = FMatrixSparse(m.ncols, m.nrows)
    t.entries = {(j, i): v for (i, j), v in m.entries.items()}
    return t


def _rank_mod_p(rows, p: int) -> int:
    if not rows or not rows[0]:
        return 0
    m = np.array(rows, dtype=np.int64) % p
    nrows, ncols = m.shape
    rank = 0
    for col in range(ncols):
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, col]), -1, p)
        m[rank] = (m[rank] * inv) % p
        below = np.nonzero(m[rank + 1:, col])[0] + rank + 1
        if below.size:
            m[below] = (m[below] - np.outer(m[below, col], m[rank])) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def dense_rank_mod_p(matrix, p: int) -> int:
    """Rank of an FMatrixSparse with integer entries over F_p."""
    rows = [[0] * matrix.ncols for _ in range(matrix.nrows)]
    for (i, j), v in matrix.entries.items():
        rows[i][j] = v % p
    return _rank_mod_p(rows, p)


def _rank_bareiss(rows) -> int:
    """Fraction-free elimination on integer rows; mutates `rows`.  Every
    division is exact (Bareiss, Math. Comp. 22, 1968)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        p = pr[col]
        for i in range(rank + 1, nrows):
            ri = rows[i]
            f = ri[col]
            if f:
                for j in range(col + 1, ncols):
                    ri[j] = (p * ri[j] - f * pr[j]) // prev
                ri[col] = 0
            elif p != prev:
                # fraction-free invariant: untouched rows still rescale
                for j in range(col + 1, ncols):
                    ri[j] = (p * ri[j]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_bareiss(matrix) -> int:
    """Rank over Q of an FMatrixSparse with int or Fraction entries: dense
    rows, each scaled to integers by the lcm of its denominators."""
    rows = [[0] * matrix.ncols for _ in range(matrix.nrows)]
    for (i, j), v in matrix.entries.items():
        rows[i][j] = v
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        row[:] = [int(v * scale) for v in row]
    return _rank_bareiss(rows)
