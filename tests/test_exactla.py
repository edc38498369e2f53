from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arrtop import exactla
from arrtop.exactla import (
    P,
    ChainComplexError,
    FMatrixSparse,
    complex_dims,
    invert_dense,
    rank,
    rank_dense,
    rref,
    solve_affine,
)
from arrtop.fields import FieldSpec

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F7 = FieldSpec.prime(7)


def sparse_from_rows(rows, nrows=None, ncols=None):
    m = FMatrixSparse(nrows or len(rows), ncols or len(rows[0]))
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                m.entries[(i, j)] = v
    return m


def test_rank_examples():
    assert rank(sparse_from_rows([[1, 2], [2, 4]]), Q) == 1
    assert rank(sparse_from_rows([[1, 1], [1, 1]]), F2) == 1
    assert rank(sparse_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), Q) == 3
    assert rank(FMatrixSparse(4, 5), Q) == 0


def test_rank_with_fractions():
    m = sparse_from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]])
    assert rank(m, Q) == 2
    singular = sparse_from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                 [Fraction(3, 2), Fraction(1)]])
    assert rank(singular, Q) == 1


small_matrices = st.lists(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5),
    min_size=1, max_size=5).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_equals_transpose_rank(rows):
    m = sparse_from_rows(rows)
    assert rank(m, Q) == rank(m.transpose(), Q)
    assert rank(m, F7) == rank(m.transpose(), F7)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_bareiss_agrees_with_rref(rows):
    # dual route: fraction-free elimination vs Fraction row reduction
    m = sparse_from_rows(rows)
    assert rank(m, Q) == rank_dense([[Fraction(x) for x in row] for row in rows])


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.sampled_from([2, 3, 7, 101]))
def test_modular_rank_bounded_by_rational_rank(rows, p):
    m = sparse_from_rows(rows)
    assert rank(m, FieldSpec.prime(p)) <= rank(m, Q)


def test_solve_affine_inconsistent():
    assert solve_affine([((Fraction(1),), Fraction(0)),
                         ((Fraction(1),), Fraction(1))], 1) is None


def test_rref_pivots():
    _, pivots = rref([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]])
    assert pivots == [1]


def test_complex_dims_zero_boundaries():
    zero = FMatrixSparse(2, 2)
    out = complex_dims([zero], [2, 2], Q)
    assert out.homology == [2, 2]
    assert out.ranks == [0]


def test_complex_dims_circle():
    # two vertices, two edges, boundary of the circle model
    d1 = sparse_from_rows([[-1, 1], [1, -1]])
    out = complex_dims([d1], [2, 2], Q)
    assert out.homology == [1, 1]


def test_complex_dims_rejects_nonzero_composition():
    d2 = sparse_from_rows([[1], [0]])      # C_2 -> C_1
    d1 = sparse_from_rows([[1, 0]])        # C_1 -> C_0
    with pytest.raises(ChainComplexError):
        complex_dims([d1, d2], [1, 2, 1], Q)


def test_complex_dims_shape_mismatch():
    with pytest.raises(ValueError):
        complex_dims([FMatrixSparse(3, 2)], [2, 2], Q)


def test_complex_dims_euler_property():
    d1 = sparse_from_rows([[-1, 1, 0], [1, -1, 1], [0, 0, -1]])
    out = complex_dims([d1], [3, 3], Q)
    assert out.dims[0] - out.dims[1] == out.homology[0] - out.homology[1]


# ---------------------------------------------------------------------------
# ranks over Q certified from ranks mod P


def rank_calls(monkeypatch):
    """Field kinds of every rank call complex_dims makes from now on."""
    calls = []
    real = exactla.rank

    def counting(matrix, fieldspec):
        calls.append(fieldspec.kind)
        return real(matrix, fieldspec)

    monkeypatch.setattr(exactla, "rank", counting)
    return calls


def test_certified_ranks_need_no_bareiss(monkeypatch):
    calls = rank_calls(monkeypatch)
    d1 = sparse_from_rows([[1, -1]])
    d2 = sparse_from_rows([[Fraction(1, 2)], [Fraction(1, 2)]])
    out = complex_dims([d1, d2], [1, 2, 1], Q)
    assert out.ranks == [1, 1] and out.homology == [0, 0, 0]
    assert calls == ["Fp", "Fp"]


def test_modular_gap_runs_bareiss_and_tightens_neighbour(monkeypatch):
    # d1 vanishes mod P, so its gap needs Bareiss; its exact rank then
    # closes the gap it left on d2
    calls = rank_calls(monkeypatch)
    d1 = sparse_from_rows([[P, -P]])
    d2 = sparse_from_rows([[1, 1], [1, 1]])
    out = complex_dims([d1, d2], [1, 2, 2], Q)
    assert out.ranks == [1, 1] and out.homology == [0, 0, 1]
    assert calls == ["Fp", "Fp", "Q"]


def _mat_mul(a, b, inner):
    return [[sum((row[t] * b[t][j] for t in range(inner)), Fraction(0))
             for j in range(len(b[0]) if b else 0)] for row in a]


@st.composite
def based_complexes(draw):
    """(boundaries, dims, ranks, homology) of a chain complex with d² = 0:
    a direct sum of elementary complexes (Q in one degree; Q --c--> Q
    across two) under a random invertible change of basis in every
    degree.  Coefficients divisible by P make modular ranks drop."""
    n = draw(st.integers(min_value=1, max_value=3))
    scalars = st.sampled_from([1, -1, 2, Fraction(1, 3), P, -2 * P, Fraction(1, P),
                               Fraction(P, 2)])
    spheres = draw(st.lists(st.integers(min_value=0, max_value=n), max_size=3))
    disks = draw(st.lists(st.tuples(st.integers(min_value=1, max_value=n), scalars),
                          max_size=4))
    cells = [[] for _ in range(n + 1)]
    for k in spheres:
        cells[k].append(None)
    d = [[] for _ in range(n + 1)]           # d[k]: entries of C_k -> C_{k-1}
    for k, c in disks:
        d[k].append((len(cells[k - 1]), len(cells[k]), c))
        cells[k - 1].append(None)
        cells[k].append(None)
    dims = [len(c) for c in cells]

    def invertible(size):
        entries = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), P])
        diag = st.sampled_from([1, -1, 2, Fraction(1, 3), P])
        low = [[Fraction(1 if i == j else (draw(entries) if j < i else 0))
                for j in range(size)] for i in range(size)]
        up = [[Fraction(draw(diag) if i == j else (draw(entries) if j > i else 0))
               for j in range(size)] for i in range(size)]
        return _mat_mul(low, up, size)

    bases = [invertible(size) for size in dims]
    mats = []
    for k in range(1, n + 1):
        block = [[Fraction(0)] * dims[k] for _ in range(dims[k - 1])]
        for i, j, c in d[k]:
            block[i][j] = Fraction(c)
        inv = invert_dense(bases[k]) if dims[k] else []
        changed = _mat_mul(_mat_mul(bases[k - 1], block, dims[k - 1]), inv, dims[k])
        mats.append(sparse_from_rows(changed, dims[k - 1], dims[k]) if dims[k - 1]
                    else FMatrixSparse(0, dims[k]))
    ranks = [len(d[k]) for k in range(1, n + 1)]
    return mats, dims, ranks, [spheres.count(k) for k in range(n + 1)]


@settings(max_examples=80, deadline=None)
@given(based_complexes())
def test_certified_ranks_match_bareiss(complex_):
    mats, dims, ranks, homology = complex_
    out = complex_dims(mats, dims, Q)
    assert out.ranks == [rank(m, Q) for m in mats] == ranks
    assert out.homology == homology
