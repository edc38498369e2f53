"""Exact linear algebra over Q and F_p.

Two layers:

* small dense helpers: one Gauss-Jordan elimination over Q or F_p, on
  plain operators with one `% p` per entry over F_p, which gives affine
  solves for the coordinate changes of the geometry and the inverse of a
  square matrix; and identity, product and a - I, and
* the one rank engine: sparse Gaussian elimination on Python ints for
  every field, fraction-free over Q and mod p over F_p, which takes every
  rank on the rows a matrix hands it (a twisted boundary specializes them
  then) and gives homology dimensions, by compression, behind d² = 0.

There are no tolerances anywhere; every result is an exact integer or
rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .fields import FieldSpec

class ChainComplexError(Exception):
    """A chain complex failed a gate: d∘d ≠ 0, exponents out of range, cells off the count."""


# ---------------------------------------------------------------------------
# dense helpers; square matrices over a field are tuples of row tuples


def rref(rows, fieldspec: FieldSpec):
    """Reduced row echelon form by Gauss-Jordan over Q or F_p.

    Returns (rref_rows, pivot_columns).  Input rows hold field elements
    (ints or Fractions over Q, residues over F_p) and are not modified;
    over Q the output holds Fractions.
    """
    p = fieldspec.p
    m = [[x % p for x in row] if p else [Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p) if p else 1 / m[r][c]
        prow = m[r] = [x * inv % p if p else x * inv for x in m[r]]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                m[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(m[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _reduced(rows, p):
    """rows as a matrix, each entry reduced mod p unless p is None (Q)."""
    return tuple(tuple(x % p for x in row) if p else tuple(row) for row in rows)


@cache                                  # immutable, so built once per (field, r)
def identity_matrix(fieldspec: FieldSpec, r: int):
    one, zero = fieldspec.one, fieldspec.zero
    return tuple(tuple(one if i == j else zero for j in range(r)) for i in range(r))


def mat_mul(fieldspec: FieldSpec, a, b):
    return _reduced(((dot(row, col) for col in zip(*b)) for row in a), fieldspec.p)


def mat_sub_identity(fieldspec: FieldSpec, a):
    """a - I."""
    return _reduced(((x - 1 if i == j else x for j, x in enumerate(row))
                     for i, row in enumerate(a)), fieldspec.p)


def mat_inverse(fieldspec: FieldSpec, a):
    """Inverse of a matrix of field elements: the right block of
    rref([a | I]); raises ValueError when `a` is singular."""
    r = len(a)
    m, pivots = rref([[*row, *e] for row, e in zip(a, identity_matrix(fieldspec, r))], fieldspec)
    if pivots != list(range(r)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[r:]) for row in m)


# ---------------------------------------------------------------------------
# sparse matrices and rank


@dataclass
class FMatrixSparse:
    """Sparse matrix: at most one entry per position, no stored zeros."""

    nrows: int
    ncols: int
    entries: dict = field(default_factory=dict)

    @classmethod
    def from_rows(cls, rows):
        """The matrix whose rows are the given sequences of numbers."""
        return cls(len(rows), len(rows[0]) if rows else 0,
                   {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v})

    def rows(self, drop, fieldspec: FieldSpec):
        """Fresh {i: {j: v}} of the nonzero rows not in `drop`: mod p over F_p
        (FieldSpec.element), over Q ints, each row times its denominators' lcm."""
        p, rows = fieldspec.p, {}
        for (i, j), v in self.entries.items():
            if i not in drop and (v := fieldspec.element(v) if p else v):
                rows.setdefault(i, {})[j] = v
        for row in () if p else rows.values():
            scale = lcm(*(v.denominator for v in row.values()))
            for j, v in row.items():
                row[j] = v.numerator * (scale // v.denominator)
        return rows


def _make_primitive(row: dict):
    """Divide an integer row {col: value} by the gcd of its entries."""
    content = gcd(*row.values())
    if content > 1:
        for j in row:
            row[j] //= content


def _sparse_rank(rows: dict, fieldspec: FieldSpec, pivots: set) -> int:
    """Rank by sparse elimination over Q or F_p, in place on rows {i: {col:
    value}} of field elements (ints over Q), as rows(drop, fieldspec) gives;
    each step adds its column to `pivots`, which span the rows' column space.

    Rows come nonzero (rows() drops the empty ones), so at most one row
    has rank len(rows) and, as pivot, that row's least column, which is
    what _eliminate would pick: no column index is built for it."""
    if len(rows) <= 1:
        for row in rows.values():
            pivots.add(min(row))
        return len(rows)
    return _eliminate(rows, fieldspec, pivots)


def _eliminate(rows: dict, fieldspec: FieldSpec, pivots: set) -> int:
    """_sparse_rank's elimination, for any number of rows.

    Each column keeps the set of rows that use it.  Pivot columns are
    taken by increasing initial count (ties by index), each with the
    shortest of its rows (ties by index), both ordered as plain tuples, so
    the mostly-±1 boundaries fill in little.  Arithmetic is on Python
    ints, so no prime overflows.

    Over Q elimination is fraction-free: each row is first divided by the
    gcd of its entries (a twisted complex carries its integer scale in
    every entry); row i becomes (a/g)·row_i − (f/g)·pivot row, where a and
    f are the pivot column's entries and g = gcd(a, f), and the result is
    divided by its gcd again, which keeps coefficients from growing."""
    p = fieldspec.p
    cols = {}
    for i, row in rows.items():
        for j in row:
            users = cols.get(j)
            if users is None:
                cols[j] = {i}
            else:
                users.add(i)
        if not p:
            _make_primitive(row)
    for _count, c in sorted([(len(users), c) for c, users in cols.items()]):
        users = cols[c]
        if not users:
            continue
        piv = next(iter(users)) if len(users) == 1 else min([(len(rows[i]), i) for i in users])[1]
        prow = rows.pop(piv)
        for j in prow:
            cols[j].discard(piv)
        pivots.add(c)
        if not users:
            continue
        a = prow.pop(c)
        if p:
            inv = pow(a, -1, p)
            prow = [(j, v * inv % p) for j, v in prow.items()]
        else:
            prow = list(prow.items())
        for i in users:
            row = rows[i]
            f = row.pop(c)
            if p:
                for j, v in prow:
                    x = row.get(j)
                    if x is None:
                        row[j] = -f * v % p
                        cols[j].add(i)
                    else:
                        x = (x - f * v) % p
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                            cols[j].discard(i)
                continue
            g = gcd(a, f) if a > 0 else -gcd(a, f)
            s, f = a // g, f // g
            if s != 1:
                for j in row:
                    row[j] *= s
            for j, v in prow:
                x = row.get(j)
                if x is None:
                    row[j] = -f * v
                    cols[j].add(i)
                else:
                    x -= f * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        cols[j].discard(i)
            _make_primitive(row)
    return len(pivots)


def rank(matrix, fieldspec: FieldSpec, drop=(), pivots=None) -> int:
    """Exact rank over the given field of the rows not in `drop` of a boundary
    (FMatrixSparse, twisted), which rows(drop, fieldspec) builds only now;
    `pivots` receives the pivot columns (see _sparse_rank)."""
    return _sparse_rank(matrix.rows(drop, fieldspec), fieldspec,
                        set() if pivots is None else pivots)


# ---------------------------------------------------------------------------
# chain complexes


@dataclass(slots=True)
class ComplexDims:
    """Per-degree cell dimensions, boundary ranks and homology dims."""

    dims: list
    ranks: list          # ranks[k-1] = rank of boundary C_k -> C_{k-1}, k = 1..n
    homology: list


class GatedBoundaries(tuple):
    """Boundary matrices proven to compose to zero: specializations, at
    pairwise-commuting monodromy, of a boundary over Λ = Z[t_1^±1..t_d^±1]
    whose composition was checked zero over Λ, each multiplied by one
    common nonzero scalar (over Q, the twisted complex's integer scale),
    which keeps the composition zero and every rank.  complex_dims takes
    this type as the proof and skips its own composition check; its ranks
    rest on that proof, because each boundary hands over (and specializes)
    only its rows off the pivot columns of the one below."""


def verify_composition(matrices, fieldspec: FieldSpec):
    """Check d_k ∘ d_{k+1} = 0 over `fieldspec` in every degree;
    `matrices[k-1]` is the boundary C_k -> C_{k-1}."""
    p = fieldspec.p
    cols = [{} for _ in matrices]                # cols[k - 1][j] = [(i, value), ...]
    for m, by_column in zip(matrices, cols):
        for (i, j), v in m.entries.items():
            by_column.setdefault(j, []).append((i, v))
    for k, (lower_cols, upper_cols) in enumerate(zip(cols, cols[1:]), start=1):
        for j, col in upper_cols.items():
            acc = {}
            for m, v in col:
                for i, w in lower_cols.get(m, ()):
                    acc[i] = acc.get(i, 0) + w * v
            for i, val in acc.items():
                val = val % p if p else val
                if val:
                    raise ChainComplexError(
                        f"boundary composition nonzero in degrees {k + 1}->{k - 1} "
                        f"at ({i},{j}): {val}")


def complex_dims(matrices, dims, fieldspec: FieldSpec) -> ComplexDims:
    """Homology dimensions of a chain complex.

    `matrices[k-1]` is the boundary C_k -> C_{k-1} (shape dims[k-1] x dims[k])
    for k = 1..n; `dims` lists the chain-group dimensions.  Composition to
    zero is verified first (GatedBoundaries carry a proof over Λ instead)
    and a violation is a hard error, never a wrong answer.  Each rank is
    then taken by the one sparse engine, over Q or F_p alike, bottom up
    by compression (Bauer–Kerber–Reininghaus 2014): d_k hands over (a twisted
    one specializes) only its rows off d_{k-1}'s pivot columns J, independent,
    so dropping J is injective on ker d_{k-1}, which holds im d_k as d² = 0.
    Homology follows in one pass over the ranks, which raises on a negative
    dimension."""
    n = len(dims) - 1
    if len(matrices) != n:
        raise ValueError(f"expected {n} boundary matrices, got {len(matrices)}")
    for k, mat in enumerate(matrices, start=1):
        if mat.nrows != dims[k - 1] or mat.ncols != dims[k]:
            raise ValueError(f"boundary {k} has shape {mat.nrows}x{mat.ncols}, "
                             f"expected {dims[k - 1]}x{dims[k]}")
    if not isinstance(matrices, GatedBoundaries):
        verify_composition(matrices, fieldspec)
    ranks, pivots = [], set()
    for m in matrices:
        drop, pivots = pivots, set()
        ranks.append(rank(m, fieldspec, drop, pivots))
    homology, below = [], 0              # h_k = dims_k - rank d_k - rank d_{k+1}
    for c, above in zip(dims, ranks + [0]):
        if (h := c - below - above) < 0:
            raise ChainComplexError(f"negative homology dimension in degree {len(homology)}")
        homology.append(h)
        below = above
    return ComplexDims(list(dims), ranks, homology)
