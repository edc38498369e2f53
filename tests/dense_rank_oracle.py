"""Dense Gaussian elimination mod p in numpy int64: the test oracle for
the sparse F_p rank engine in `arrtop.exactla`.

Rows must hold residues in [0, p) with p <= fields.MAX_PRIME, so that
(p - 1)**2 fits in int64."""

import numpy as np


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
