"""complex_dims ranks each boundary by compression: d_k leaves out the rows
at the pivot columns of d_{k-1}, which keeps its rank once d² = 0.

The oracles are the per-matrix ranks, each taken in full by `rank`, and
the dense ranks of `dense_rank_oracle`: on random complexes with d² = 0
over Q, F_2 and F_7, on every F_p system of the sweep-fp corpus (dbraid5,
seed 1) and on the full untwisted boundaries of the seed-0 corpus and of
dbraid5.  Then the order of work: one `rank` call per boundary through
the module binding, and the composition check of a plain list before
any of them."""

from fractions import Fraction
from math import lcm

import pytest
from dense_rank_oracle import dense_rank_mod_p, rank_bareiss
from hypothesis import given, settings, strategies as st
from salvetti_oracle import full_untwisted_matrices

from arrtop import exactla
from arrtop.exactla import (ChainComplexError, FMatrixSparse, GatedBoundaries, complex_dims,
                            rank, rref)
from arrtop.fields import FieldSpec
from arrtop.geometry import decone
from arrtop.harness import CorpusSpec, braid_essentialized, generate_corpus, systems_for_arrangement
from arrtop.realfaces import enumerate_faces
from arrtop.salvetti import build_salvetti, twisted_complex

Q, F2, F7 = FieldSpec.rationals(), FieldSpec.prime(2), FieldSpec.prime(7)


def sparse(rows, nrows, ncols):
    return FMatrixSparse(nrows, ncols, {(i, j): v for i, row in enumerate(rows)
                                        for j, v in enumerate(row) if v})


def dense(m):
    rows = [[0] * m.ncols for _ in range(m.nrows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def oracle_rank(m, field):
    return dense_rank_mod_p(m, field.p) if field.p else rank_bareiss(m)


def product(a, b, inner, ncols, p):
    return [[(sum(row[t] * b[t][j] for t in range(inner)) % p if p else
              sum((row[t] * b[t][j] for t in range(inner)), Fraction(0)))
             for j in range(ncols)] for row in a]


def kernel_basis(rows, ncols, field):
    """The columns of a matrix whose columns span ker(rows), by rref."""
    p = field.p
    m, pivots = rref(rows, field) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = [[0] * len(free) for _ in range(ncols)]
    for t, f in enumerate(free):
        basis[f][t] = 1
        for r, c in enumerate(pivots):
            basis[c][t] = -m[r][f] % p if p else -m[r][f]
    return basis, len(free)


@st.composite
def chain_complexes(draw):
    """(field, boundaries, dims) with d² = 0 over Q, F_2 or F_7.  Each
    d_k is B·(X·Y), B a basis of ker d_{k-1} (the identity for k = 1) and
    X·Y a random product through 0..4 inner dimensions, so boundaries are
    often zero or rank deficient; any degree may be empty.  Over Q the
    entries are Fractions, or each boundary is scaled to ints by its own
    lcm of denominators (a nonzero scalar per boundary keeps d² = 0)."""
    field = draw(st.sampled_from([Q, F2, F7]))
    p = field.p
    elems = (st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 5)]) if not p
             else st.one_of(st.just(0), st.integers(0, p - 1)))
    n = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(0, 7), min_size=n + 1, max_size=n + 1))
    to_ints = not p and draw(st.booleans())
    mats, lower = [], None
    for k in range(1, n + 1):
        nrows, ncols = dims[k - 1], dims[k]
        if lower is None:
            basis, width = [[int(i == j) for j in range(nrows)] for i in range(nrows)], nrows
        else:
            basis, width = kernel_basis(lower, nrows, field)
        inner = draw(st.integers(0, 4))
        x = [[draw(elems) for _ in range(inner)] for _ in range(width)]
        y = [[draw(elems) for _ in range(ncols)] for _ in range(inner)]
        rows = product(basis, product(x, y, inner, ncols, p), width, ncols, p)
        lower = rows
        if to_ints:
            scale = lcm(*(v.denominator for row in rows for v in row))
            rows = [[int(v * scale) for v in row] for row in rows]
        mats.append(sparse(rows, nrows, ncols))
    return field, mats, dims


@settings(max_examples=200, deadline=None)
@given(chain_complexes())
def test_compressed_ranks_are_the_full_ranks(case):
    field, mats, dims = case
    full = [rank(m, field) for m in mats]
    assert full == [oracle_rank(m, field) for m in mats]
    assert complex_dims(mats, dims, field).ranks == full
    assert complex_dims(GatedBoundaries(mats), dims, field).ranks == full


@settings(max_examples=200, deadline=None)
@given(chain_complexes(), st.data())
def test_pivot_columns_are_a_basis_and_dropped_rows_are_left_out(case, data):
    field, mats, _dims = case
    m = mats[-1]
    drop = set(data.draw(st.lists(st.integers(0, max(m.nrows - 1, 0)), max_size=4)))
    pivots = set()
    r = rank(m, field, drop, pivots)
    kept = sparse([row for i, row in enumerate(dense(m)) if i not in drop],
                  m.nrows - len(drop & set(range(m.nrows))), m.ncols)
    assert r == len(pivots) == oracle_rank(kept, field)
    # the pivot columns are independent and span every column
    pivot_cols = sparse([[row[j] for j in sorted(pivots)] for row in dense(kept)],
                        kept.nrows, len(pivots))
    assert oracle_rank(pivot_cols, field) == len(pivots)


def test_compression_on_a_disk():
    # a circle of two vertices and two edges, glued to a disk: d_1's pivot
    # column is an edge, which d_2 leaves out, and rank d_2 is still 1
    d1 = sparse([[-1, 1], [1, -1]], 2, 2)
    d2 = sparse([[1], [1]], 2, 1)
    pivots = set()
    assert rank(d1, F7, (), pivots) == 1 and len(pivots) == 1
    assert rank(d2, F7, pivots) == 1
    for field in (Q, F2, F7):
        assert complex_dims([d1, d2], [2, 2, 1], field).homology == [1, 0, 0]


def test_each_boundary_drops_the_pivots_of_the_one_just_below():
    # C = Q in degrees 0..3 with d_1 = 1, d_2 = 0, d_3 = 1: d_3 keeps its
    # row, which is d_1's pivot column but not d_2's
    one, zero = sparse([[1]], 1, 1), FMatrixSparse(1, 1)
    for field in (Q, F2, F7):
        out = complex_dims([one, zero, one], [1, 1, 1, 1], field)
        assert out.ranks == [1, 0, 1] and out.homology == [0, 0, 0, 0]


@pytest.fixture(scope="module")
def dbraid5():
    arr = decone(braid_essentialized(5), 0)
    return arr, build_salvetti(enumerate_faces(arr))


@pytest.fixture(scope="module")
def corpus_complexes():
    return [build_salvetti(enumerate_faces(item.arrangement))
            for item in generate_corpus(CorpusSpec(seed=0))]


def assert_compressed_ranks(matrices, dims, field, monkeypatch):
    """complex_dims' ranks are the full ranks (and the dense oracle's);
    returns the number of rows compression left out."""
    calls = []
    real = exactla.rank
    monkeypatch.setattr(exactla, "rank",
                        lambda m, f, drop, pivots: calls.append(len(drop)) or real(m, f, drop, pivots))
    ranks = complex_dims(GatedBoundaries(matrices), dims, field).ranks
    monkeypatch.setattr(exactla, "rank", real)
    assert len(calls) == len(matrices)
    full = [rank(m, field) for m in matrices]
    assert ranks == full == [oracle_rank(m, field) for m in matrices]
    return sum(calls)


def test_every_fp_system_of_the_sweep(dbraid5, monkeypatch):
    arr, sc = dbraid5
    spec = CorpusSpec(seed=1, min_nontrivial=200)
    systems = [system for _sys_id, system in systems_for_arrangement(arr, spec, "dbraid5")
               if system.field.kind == "Fp"]
    assert len(systems) > 150 and {s.rank for s in systems} == {1, 2}
    dropped = 0
    for system in systems:
        tc = twisted_complex(sc, system)
        dropped += assert_compressed_ranks(tc.matrices, tc.dims, system.field, monkeypatch)
    assert dropped > 0


@pytest.mark.parametrize("field", [Q, F2, F7], ids=["Q", "F2", "F7"])
def test_full_untwisted_boundaries(corpus_complexes, dbraid5, field, monkeypatch):
    # the seed-0 corpus and dbraid5 (cells [60, 216, 270, 120])
    dropped = 0
    for sc in [*corpus_complexes, dbraid5[1]]:
        dropped += assert_compressed_ranks(full_untwisted_matrices(sc), sc.cell_counts, field,
                                           monkeypatch)
    assert dropped > 0


def test_one_rank_call_per_boundary_through_the_module_binding(call_counter):
    d1 = sparse([[-1, 1], [1, -1]], 2, 2)
    d2 = sparse([[1], [1]], 2, 1)
    calls = call_counter(exactla, "rank")
    for mats in ([d1, d2], GatedBoundaries([d1, d2])):
        complex_dims(mats, [2, 2, 1], F7)
    assert [args[0] for args in calls] == [d1, d2, d1, d2]
    assert all(args[1] is F7 for args in calls)


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
def test_a_plain_list_is_checked_before_any_rank(field, call_counter):
    calls = call_counter(exactla, "rank")
    d1 = sparse([[1, 1]], 1, 2)
    d2 = sparse([[1], [0]], 2, 1)                # d1·d2 = 1 in every field
    with pytest.raises(ChainComplexError, match="nonzero"):
        complex_dims([d1, d2], [1, 2, 1], field)
    assert calls == []
