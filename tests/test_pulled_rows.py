"""Twisted boundaries hand rows to the rank engine: each one specializes
only the rows that exactla.rank pulls, after compression, and `entries`
materializes all of them.

The plan's eager specialization in salvetti_oracle.py is the oracle of
every pulled row, and dense_rank_oracle.py's dense ranks are the oracle
of the ranks.  The build's t = 1 gate on minimal complexes is checked
here too, by perturbing one coefficient at a time."""

from fractions import Fraction
from functools import cache

import pytest
from conftest import oracle_arrangements
from dense_rank_oracle import dense_rank_mod_p, rank_bareiss
from salvetti_oracle import plan_twisted_complex

from arrtop import exactla, salvetti
from arrtop.exactla import ChainComplexError, FMatrixSparse, GatedBoundaries, complex_dims, rank
from arrtop.fields import FieldSpec
from arrtop.geometry import betti_numbers, decone, intersection_poset
from arrtop.harness import braid_essentialized
from arrtop.localsys import build_local_system, identity_matrix, scalar_system
from arrtop.realfaces import enumerate_faces
from arrtop.salvetti import build_salvetti, twisted_complex

Q, F101 = FieldSpec.rationals(), FieldSpec.prime(101)
GENERIC = (2, Fraction(1, 3), -1, 5, Fraction(-3, 2), 7)


def systems(field, d):
    """Rank 1 at generic scalars, diagonal rank 2, unipotent rank 2 (one
    2 x 2 block) and constant rank 3 (three blocks of size one)."""
    x = [field.element(GENERIC[i % len(GENERIC)]) for i in range(d)]
    y = [field.element(GENERIC[(i + 1) % len(GENERIC)]) for i in range(d)]
    u = [field.element((1, Fraction(1, 2), -2)[i % 3]) for i in range(d)]
    found = (scalar_system(field, x),
             build_local_system(field, 2, [[[a, 0], [0, b]] for a, b in zip(x, y)]),
             build_local_system(field, 2, [[[1, k], [0, 1]] for k in u]),
             build_local_system(field, 3, [identity_matrix(field, 3)] * d))
    assert [s.partition for s in found[1:]] == [((0,), (1,)), ((0, 1),),
                                                ((0,), (1,), (2,))]
    return found


def dense_rank(matrix, field):
    return rank_bareiss(matrix) if field.kind == "Q" else dense_rank_mod_p(matrix, field.p)


@cache
def dbraid5():
    """The sweep's complex, the decone of braid5, built once."""
    return build_salvetti(enumerate_faces(decone(braid_essentialized(5), 0)))


@pytest.mark.parametrize("field", [Q, F101], ids=["Q", "F101"])
def test_pulled_rows_are_the_eager_specialization(field):
    # every oracle complex (dbraid5, braid5 and gen-8-3 among them): the
    # materialized entries, the rows pulled whole and after compression,
    # and the compressed ranks against the plan's eager specialization
    for arr in oracle_arrangements():
        sc = build_salvetti(enumerate_faces(arr))
        for system in systems(field, arr.d):
            tc, oracle = twisted_complex(sc, system), plan_twisted_complex(sc, system)
            pivots = set()
            for m, o in zip(tc.matrices, oracle.matrices, strict=True):
                eager = FMatrixSparse(o.nrows, o.ncols,
                                      {key: tc.scale * v for key, v in o.entries.items()})
                assert (m.nrows, m.ncols) == (eager.nrows, eager.ncols)
                assert m.entries == eager.entries
                drop, pivots = pivots, set()
                assert m.rows((), field) == eager.rows((), field)
                assert m.rows(drop, field) == eager.rows(drop, field)
                rank(m, field, drop, pivots)         # the pivots the next degree drops
            ranks = complex_dims(GatedBoundaries(tc.matrices), tc.dims, field).ranks
            assert ranks == [dense_rank(o, field) for o in oracle.matrices]


class _LoggedRow:
    """A target row's plan entries, which log the target when read."""

    def __init__(self, target, entries, log):
        self.target, self.entries, self.log = target, entries, log

    def __iter__(self):
        self.log.append(self.target)
        return iter(self.entries)


def test_a_dropped_row_is_never_specialized(monkeypatch):
    sc = dbraid5()
    tc = twisted_complex(sc, systems(F101, sc.fc.arrangement.d)[0])
    full = [rank(FMatrixSparse(m.nrows, m.ncols, m.entries), F101) for m in tc.matrices]
    evaluated = []
    for m in tc.matrices:
        evaluated.append([])
        m.plan = [(t, _LoggedRow(t, entries, evaluated[-1])) for t, entries in m.plan]
    pulls, real_rank = [], exactla.rank

    def logged_rank(matrix, fieldspec, drop=(), pivots=None):
        got = real_rank(matrix, fieldspec, drop, pivots)
        pulls.append((set(drop), set(pivots), got))
        return got

    monkeypatch.setattr(exactla, "rank", logged_rank)
    complex_dims(GatedBoundaries(tc.matrices), tc.dims, F101)
    below = set()
    for m, rows, (drop, pivots, got), want in zip(tc.matrices, evaluated, pulls, full,
                                                  strict=True):
        # d_k drops exactly d_{k-1}'s pivot columns and evaluates every
        # other row once, at the full matrix's rank
        assert drop == below
        assert rows == [t for t, _entries in m.plan if t not in drop]
        assert got == want
        below = pivots
    assert [len(drop) for drop, _pivots, _got in pulls] == [0, *full[:-1]]
    assert sum(full[:-1]) > 0


@pytest.mark.parametrize("index", range(4))
def test_twisted_betti_reaches_the_traced_call_chain(call_counter, index):
    # the benchmark's traced run needs salvetti.twisted_complex,
    # exactla.complex_dims<salvetti and exactla.rank<exactla, and its
    # twisted_complex hook counts every nonzero entry through `entries`
    sc = dbraid5()
    system = systems(F101, sc.fc.arrangement.d)[index]
    assembled = call_counter(salvetti, "twisted_complex")
    dims = call_counter(salvetti, "complex_dims")
    ranks = call_counter(exactla, "rank")
    salvetti.twisted_betti(sc, system)
    assert len(assembled) == len(dims) == 1
    assert len(ranks) == len(sc.boundary) - 1
    tc = twisted_complex(sc, system)
    oracle = plan_twisted_complex(sc, system)
    nnz = sum(len(m.entries) for m in tc.matrices)
    assert nnz == sum(len(o.entries) for o in oracle.matrices)
    # dbraid5 is minimal: the constant system sees a zero boundary
    assert (nnz > 0) == (index < 3)


def test_minimal_gate_raises_on_any_perturbed_coefficient():
    sc = dbraid5()
    betti = betti_numbers(intersection_poset(sc.fc.arrangement))
    assert [len(layer) for layer in sc.boundary] == betti        # minimal
    salvetti._check_reduced(sc.boundary, betti)
    polys = [poly for layer in sc.boundary for row in layer for poly in row.values()]
    assert polys
    for poly in polys:
        m = next(iter(poly))
        poly[m] += 1
        try:
            with pytest.raises(ChainComplexError, match="minimal"):
                salvetti._check_reduced(sc.boundary, betti)
        finally:
            poly[m] -= 1
    salvetti._check_reduced(sc.boundary, betti)


def test_minimal_gate_skips_a_complex_above_the_betti_numbers():
    # one cell more than b_i(U) in some degree: no minimality, no claim at t = 1
    sc = dbraid5()
    betti = betti_numbers(intersection_poset(sc.fc.arrangement))
    boundary = [list(layer) for layer in sc.boundary]
    boundary[0].append({})
    one = salvetti._packing(sc.fc.arrangement.d)[0]
    boundary[1][0] = {**boundary[1][0], len(sc.boundary[0]): {one: 1}}
    salvetti._check_reduced(boundary, betti)
