import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from dense_rank_oracle import dense_rank_mod_p, rank_bareiss, rank_dense, transpose
from salvetti_oracle import full_twisted_complex
from hypothesis import given, settings, strategies as st

import arrtop
from arrtop import exactla
from arrtop.exactla import (
    ChainComplexError,
    FMatrixSparse,
    complex_dims,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_sub_identity,
    rank,
    rref,
)
from arrtop.fields import MAX_PRIME, FieldSpec, _is_prime
from arrtop.harness import CorpusSpec, generate_corpus
from arrtop.localsys import LocalSystem
from arrtop.realfaces import enumerate_faces
from arrtop.salvetti import build_salvetti

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F7 = FieldSpec.prime(7)
P = 2**31 - 1           # a large prime; Q coefficients divisible by it are drawn below


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


def test_q_rank_of_fraction_rows_leaves_entries_unchanged():
    # each row is made integral at ingest by the lcm of its own
    # denominators (6, 12 and 12 here), in the engine's rows, not in `entries`
    rows = [[Fraction(1, 2), Fraction(-1, 3), 0], [Fraction(5, 6), 1, Fraction(1, 4)],
            [Fraction(4, 3), Fraction(2, 3), Fraction(1, 4)]]
    for m in (sparse_from_rows(rows), sparse_from_rows([[2, -3, 0], [0, 6, 4], [2, 3, 4]])):
        before = dict(m.entries)
        assert rank(m, Q) == 2
        assert m.entries == before
    assert rank_dense(rows) == 2


small_matrices = st.lists(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5),
    min_size=1, max_size=5).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_equals_transpose_rank(rows):
    m = sparse_from_rows(rows)
    assert rank(m, Q) == rank(transpose(m), Q)
    assert rank(m, F7) == rank(transpose(m), F7)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_bareiss_agrees_with_rref(rows):
    # the Q oracle itself, by a second route: fraction-free elimination vs
    # Fraction row reduction
    m = sparse_from_rows(rows)
    assert rank_bareiss(m) == rank_dense([[Fraction(x) for x in row] for row in rows])


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.sampled_from([2, 3, 7, 101]))
def test_modular_rank_bounded_by_rational_rank(rows, p):
    m = sparse_from_rows(rows)
    assert rank(m, FieldSpec.prime(p)) <= rank(m, Q)


def test_rref_pivots():
    _, pivots = rref([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]], Q)
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
# dense square matrices over a field, on plain operators, against the
# sparse rank engine and FieldSpec.element


@st.composite
def square_matrices(draw):
    """(field, a): an r x r matrix of field elements, r = 1..4, over Q or
    F_p; zeros are common and the last row is often a combination of the
    first two, so a is often singular."""
    p = draw(st.sampled_from([None, 2, 3, 7, 101, P]))
    field = Q if p is None else FieldSpec.prime(p)
    r = draw(st.integers(min_value=1, max_value=4))
    if p is None:
        elems = st.sampled_from([0, 0, 1, -1, 2, 5, Fraction(1, 2), Fraction(-2, 3)])
    else:
        elems = st.one_of(st.sampled_from([0, 0, 1, p - 1]),
                          st.integers(min_value=0, max_value=p - 1))
    rows = [[draw(elems) for _ in range(r)] for _ in range(r)]
    if r > 2 and draw(st.booleans()):
        c = draw(elems)
        rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
    return field, tuple(tuple(field.element(x) for x in row) for row in rows)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_dense_inverse_over_a_field(case):
    field, a = case
    r, p = len(a), field.p
    invertible = rank(sparse_from_rows(a, r, r), field) == r
    try:
        inv = mat_inverse(field, a)
    except ValueError:
        assert not invertible
    else:
        assert invertible
        assert mat_mul(field, a, inv) == mat_mul(field, inv, a) == identity_matrix(field, r)
        assert all(0 <= x < p if p else type(x) is Fraction for row in inv for x in row)
    a_minus_i = tuple(tuple(field.element(x - (i == j)) for j, x in enumerate(row))
                      for i, row in enumerate(a))
    assert mat_sub_identity(field, a) == a_minus_i


def test_dense_helpers_reduce_mod_p():
    assert mat_sub_identity(F7, ((0, 3), (5, 1))) == ((6, 3), (5, 0))
    assert mat_mul(F7, ((3,),), ((5,),)) == ((1,),)
    assert mat_inverse(F7, ((3, 0), (0, 6))) == ((5, 0), (0, 6))
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(F7, ((2, 4), (1, 2)))


def test_verify_composition_reduces_mod_p():
    d1 = sparse_from_rows([[1, 1]])              # C_1 -> C_0
    seven = sparse_from_rows([[3], [4]])         # d1 d2 = 7, zero in F_7
    eight = sparse_from_rows([[4], [4]])         # d1 d2 = 8, one in F_7
    exactla.verify_composition([d1, seven], F7)
    with pytest.raises(ChainComplexError, match="nonzero"):
        exactla.verify_composition([d1, eight], F7)
    with pytest.raises(ChainComplexError, match="nonzero"):
        exactla.verify_composition([d1, seven], Q)


# ---------------------------------------------------------------------------
# sparse ranks over Q against the dense Bareiss oracle


def _mat_mul(a, b, inner):
    return [[sum((row[t] * b[t][j] for t in range(inner)), Fraction(0))
             for j in range(len(b[0]) if b else 0)] for row in a]


@st.composite
def based_complexes(draw):
    """(boundaries, dims, ranks, homology) of a chain complex with d² = 0:
    a direct sum of elementary complexes (Q in one degree; Q --c--> Q
    across two) under a random invertible change of basis in every
    degree.  Coefficients divisible by P make ranks mod P drop, so any
    modular shortcut in the Q ranks would show."""
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
        inv = mat_inverse(Q, bases[k]) if dims[k] else []
        changed = _mat_mul(_mat_mul(bases[k - 1], block, dims[k - 1]), inv, dims[k])
        mats.append(sparse_from_rows(changed, dims[k - 1], dims[k]) if dims[k - 1]
                    else FMatrixSparse(0, dims[k]))
    ranks = [len(d[k]) for k in range(1, n + 1)]
    return mats, dims, ranks, [spheres.count(k) for k in range(n + 1)]


@settings(max_examples=80, deadline=None)
@given(based_complexes())
def test_complex_dims_over_q_match_based_complexes(complex_):
    mats, dims, ranks, homology = complex_
    out = complex_dims(mats, dims, Q)
    assert out.ranks == ranks
    assert out.homology == homology


@settings(max_examples=80, deadline=None)
@given(small_matrices, based_complexes())
def test_sparse_q_rank_matches_bareiss_oracle(rows, complex_):
    for m in [sparse_from_rows(rows), *complex_[0]]:
        assert rank(m, Q) == rank_bareiss(m)


def test_sparse_q_rank_on_a_dense_integer_block():
    # coefficient growth: on this dense block the largest entry reaches
    # about 760 bits with the content division and about 14000 without it;
    # two rows are combinations of others, so the rank is not full
    rng = random.Random(0)
    rows = [[rng.randint(-9, 9) for _ in range(80)] for _ in range(80)]
    rows[40] = [x - 3 * y for x, y in zip(rows[0], rows[1])]
    rows[79] = [2 * x + y for x, y in zip(rows[40], rows[2])]
    m = sparse_from_rows(rows)
    assert rank(m, Q) == rank_bareiss(m) == 78


# ---------------------------------------------------------------------------
# the sparse F_p engine against the dense numpy oracle


def test_fp_rank_maps_fractions_to_residues():
    # 1/2 is 4 in F_7, 7/2 is 0; truncating either gives the wrong rank
    assert rank(sparse_from_rows([[Fraction(1, 2)]]), F7) == 1
    assert rank(sparse_from_rows([[Fraction(7, 2)]]), F7) == 0
    assert rank(sparse_from_rows([[Fraction(1, 2), Fraction(3, 2)],
                                  [1, 3]]), F7) == 1
    with pytest.raises(ValueError, match="no image in F_7"):
        rank(sparse_from_rows([[Fraction(1, 7)]]), F7)


LARGEST_PRIME = next(q for q in range(MAX_PRIME, 0, -1) if _is_prime(q))


@st.composite
def low_rank_matrices_mod_p(draw):
    """(matrix, p): a product A·B of sparse matrices with small entries
    (so its rank is often below min(nrows, ncols)), with multiples of p up
    to 2**70 added to some positions, stored zeros among them; rows and
    columns are often empty."""
    p = draw(st.sampled_from([2, 3, 101, P, LARGEST_PRIME]))
    nrows, ncols = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    inner = draw(st.integers(0, 5))
    small = st.sampled_from([0, 0, 0, 1, -1, 2])
    a = [[draw(small) for _ in range(inner)] for _ in range(nrows)]
    b = [[draw(small) for _ in range(ncols)] for _ in range(inner)]
    lift = st.one_of(st.just(0), st.integers(-2**70 // p, 2**70 // p))
    m = FMatrixSparse(nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            v = sum(a[i][t] * b[t][j] for t in range(inner)) + p * draw(lift)
            if v:
                m.entries[(i, j)] = v
    return m, p


@settings(max_examples=200, deadline=None)
@given(low_rank_matrices_mod_p())
def test_sparse_fp_rank_matches_dense_oracle(case):
    m, p = case
    field = FieldSpec.prime(p)
    assert rank(m, field) == dense_rank_mod_p(m, p) == rank(transpose(m), field)


def _unipotent_system(field, d, scalars, powers):
    """A rank-3 system over F_p: monodromy c·(I + N)^k, N the nilpotent
    Jordan block, so every pair commutes."""
    p = field.p

    def matrix(c, k):
        return tuple(tuple(c * (1 if a == b else k if b == a + 1 else k * (k - 1) // 2
                                if b == a + 2 else 0) % p for b in range(3))
                     for a in range(3))

    return LocalSystem(field, 3, tuple(matrix(scalars[h % len(scalars)],
                                              powers[h % len(powers)])
                                       for h in range(d)))


@pytest.mark.parametrize("arr_id", ["braid4", "gen-4-3"])
def test_sparse_fp_rank_matches_dense_oracle_on_corpus(arr_id):
    item = next(it for it in generate_corpus(CorpusSpec(seed=0))
                if it.arrangement_id == arr_id)
    sc = build_salvetti(enumerate_faces(item.arrangement))
    sample = {}
    for _sys_id, system in item.systems:
        if system.field.kind == "Fp":
            sample.setdefault((system.field.p, system.rank), []).append(system)
    systems = [s for group in sample.values() for s in group[:2]]
    d = item.arrangement.d
    systems += [_unipotent_system(FieldSpec.prime(p), d, scalars, (1, 0, 2))
                for p, scalars in ((2, (1,)), (7, (1, 3)), (101, (2, 5, 1)))]
    assert {s.rank for s in systems} == {1, 2, 3}
    for system in systems:                # full-size matrices, not the reduced ones
        for m in full_twisted_complex(sc, system).matrices:
            assert rank(m, system.field) == dense_rank_mod_p(m, system.field.p)


def test_library_imports_no_numpy():
    # one F_p engine: a dense int64 path would need numpy
    for path in sorted(Path(arrtop.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "numpy" for n in names), path.name


def test_faces_and_feasibility_solve_for_no_flats():
    # flats come from the intersection poset, which cuts each flat's
    # integer frame from its parent's and solves for none; it also
    # projects every hyperplane onto each flat, so feasibility takes rows
    # in flat coordinates and computes no dot product, and faces take
    # every sign from the poset's integer rows: no Fraction dot product,
    # no hyperplane evaluated at a point, and integer witnesses, no Fraction at all.
    # Feasibility builds its witness on ints, the poset's rows are integer
    # dot products with each flat's integer frame, and every rank in the
    # library goes through the one sparse engine: no dense rank anywhere.
    # Specialization is one readable path on ints: no generated source and
    # no Fraction in salvetti.py
    solvers = {"rank_dense", "nullspace", "rref", "solve_affine"}

    def module(name):
        path = Path(arrtop.__file__).parent / name
        return ast.parse(path.read_text(), str(path))

    def function(name):
        return next(node for node in module("geometry.py").body
                    if isinstance(node, ast.FunctionDef) and node.name == name)

    checked = [
        ("realfaces.py", module("realfaces.py"), solvers | {"dot", "eval", "Fraction"}),
        ("feasibility.py", module("feasibility.py"), solvers | {"dot", "Fraction"}),
        ("salvetti.py", module("salvetti.py"), {"exec", "eval", "compile", "Fraction"}),
        ("geometry._flat_rows", function("_flat_rows"), {"dot", "eval", "Fraction"}),
        ("geometry._build_poset", function("_build_poset"), {"solve_affine", "Fraction"}),
        ("geometry._cut", function("_cut"), {"solve_affine", "Fraction"})]
    checked += [(path.name, module(path.name), {"rank_dense"})
                for path in sorted(Path(arrtop.__file__).parent.glob("*.py"))]
    for name, tree, banned in checked:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used = {a.name for a in node.names}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            elif isinstance(node, ast.Name):
                used = {node.id}
            else:
                continue
            assert not used & banned, (name, sorted(used & banned))


@st.composite
def few_row_matrices(draw):
    """(matrix, field): 0, 1 or 2-4 nonzero rows among up to 5, up to 6
    columns, over Q, F_2, F_7 or F_101."""
    field = draw(st.sampled_from([Q, F2, F7, FieldSpec.prime(101)]))
    ncols, nonzero = draw(st.integers(1, 6)), draw(st.sampled_from([0, 1, 2, 3, 4]))
    elems = st.sampled_from([1, -1, 2, 3, 7, Fraction(1, 2), Fraction(-5, 3)])
    m = FMatrixSparse(5, ncols)
    for i in draw(st.lists(st.integers(0, 4), min_size=nonzero, max_size=nonzero, unique=True)):
        columns = draw(st.lists(st.integers(0, ncols - 1), min_size=1, unique=True))
        # entries in the field's own elements, each a unit, so the row stays nonzero
        m.entries.update({(i, j): field.element(draw(elems.filter(
            lambda x: field.p is None or Fraction(x).numerator % field.p != 0
            and Fraction(x).denominator % field.p != 0)))
            for j in columns})
    return m, field


@settings(max_examples=300, deadline=None)
@given(few_row_matrices())
def test_the_few_row_shortcut_gives_the_general_loops_rank_and_pivots(case):
    # a matrix handed at most one row is ranked without a column index;
    # the general loop, forced here, must give the same rank and pivots
    m, field = case
    fast, slow = set(), set()
    got = exactla.rank(m, field, pivots=fast)
    assert got == exactla._eliminate(m.rows((), field), field, slow) and fast == slow
    nonzero = {i for i, _j in m.entries}
    if len(nonzero) <= 1:                 # rank = rows, pivot = the row's least column
        assert (got, fast) == (len(nonzero), {min(j for _i, j in m.entries)} if nonzero else set())
    rows = [[m.entries.get((i, j), 0) for j in range(m.ncols)] for i in range(m.nrows)]
    assert got == (rank_dense(rows) if field.p is None else dense_rank_mod_p(m, field.p))
