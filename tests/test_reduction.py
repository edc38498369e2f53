"""The Salvetti complex reduced over Λ = Z[t^±1].

twisted_complex specializes only the reduced boundary; the full
specialization in salvetti_oracle.py is its oracle, and over Q the
plan's Fraction evaluation there is the oracle of its integer scale."""

from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st
from salvetti_oracle import (as_polynomials, compacted, full_twisted_betti, greedy_complex,
                             plan_twisted_complex, unpruned_morse)

from arrtop import cli, salvetti
from arrtop.exactla import ChainComplexError, complex_dims
from arrtop.fields import FieldSpec
from arrtop.geometry import betti_numbers, decone, intersection_poset
from arrtop.harness import (
    CorpusSpec,
    braid_essentialized,
    generate_corpus,
    named_arrangements,
    random_generic,
    systems_for_arrangement,
)
from arrtop.localsys import build_local_system, mat_inverse, mat_mul, scalar_system
from arrtop.realfaces import enumerate_faces
from arrtop.salvetti import build_salvetti, twisted_betti, twisted_complex

Q = FieldSpec.rationals()
FIELDS = (Q, FieldSpec.prime(2), FieldSpec.prime(7), FieldSpec.prime(101))
Q_SCALARS = (1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3))
# denominators 2, 3 and 6, of both signs
Q_SCALARS_236 = Q_SCALARS + (Fraction(1, 6), Fraction(-5, 6), Fraction(-3, 2),
                             Fraction(1, 3))

_complexes = {}


def complex_named(name):
    """gen3, cen3, braid4, gen-4-3 and cen-5-3 (corpus seed 0), dbraid4 and
    dbraid5 (the sweep's complex), built once."""
    if name not in _complexes:
        if name in ("gen3", "cen3"):
            arr = named_arrangements()[name]
        elif name == "braid4":
            arr = braid_essentialized(4)
        elif name in ("dbraid4", "dbraid5"):
            arr = decone(braid_essentialized(int(name[-1])), 0)
        else:
            arr = next(item.arrangement for item in generate_corpus(CorpusSpec(seed=0))
                       if item.arrangement_id == name)
        _complexes[name] = build_salvetti(enumerate_faces(arr))
    return _complexes[name]


@st.composite
def commuting_systems(draw, d, fields=FIELDS, q_scalars=Q_SCALARS):
    """Rank 1-3 over one of `fields`: diagonal, or scalar times a power of
    one unipotent Jordan block (not semisimple), conjugated by a
    unitriangular product, possibly inverted, half of them with total
    turn 1; over Q the scalars come from `q_scalars`."""
    field = draw(st.sampled_from(fields))
    r = draw(st.integers(1, 3))
    scalar = (st.sampled_from(q_scalars) if field.kind == "Q"
              else st.integers(1, field.p - 1))
    small = st.integers(-2, 2)
    if draw(st.booleans()):
        mats = [[[draw(scalar) if a == b else 0 for b in range(r)] for a in range(r)]
                for _ in range(d)]
    else:
        mats = []
        for _ in range(d):
            c, k = draw(scalar), draw(st.integers(0, 3))
            mats.append([[c * comb(k, b - a) if b >= a else 0 for b in range(r)]
                         for a in range(r)])
    mats = [[[field.element(x) for x in row] for row in m] for m in mats]
    if draw(st.booleans()):
        # total turn 1: central arrangements then keep homology
        turn = mats[0]
        for m in mats[1:-1]:
            turn = mat_mul(field, turn, m)
        mats[-1] = mat_inverse(field, turn)
    low = [[field.element(1 if a == b else draw(small) if b < a else 0)
            for b in range(r)] for a in range(r)]
    up = [[field.element(1 if a == b else draw(small) if b > a else 0)
           for b in range(r)] for a in range(r)]
    base = mat_mul(field, low, up)
    base_inv = mat_inverse(field, base)
    mats = [mat_mul(field, mat_mul(field, base, m), base_inv) for m in mats]
    system = build_local_system(field, r, mats)
    return system.inverse_system() if draw(st.booleans()) else system


# over Q block i of a block-diagonal system draws its scalars with
# denominator 2, 3 or 6 by i, so that blocks differ in their denominators
Q_BY_DENOMINATOR = tuple(tuple(Fraction(n, den) for n in (1, -1, 5, -7)) for den in (2, 3, 6))


def conjugated_jordan(draw, field, s, d, scalar):
    """d commuting s x s matrices c_i * J^k_i, J the unipotent Jordan block
    (I plus the shift), conjugated by one unitriangular product."""
    small = st.integers(-2, 2)
    mats = []
    for _ in range(d):
        c, k = draw(scalar), draw(st.integers(0, 3))
        mats.append([[field.element(c * comb(k, b - a) if b >= a else 0) for b in range(s)]
                     for a in range(s)])
    low = [[field.element(1 if a == b else draw(small) if b < a else 0)
            for b in range(s)] for a in range(s)]
    up = [[field.element(1 if a == b else draw(small) if b > a else 0)
           for b in range(s)] for a in range(s)]
    base = mat_mul(field, low, up)
    base_inv = mat_inverse(field, base)
    return [mat_mul(field, mat_mul(field, base, m), base_inv) for m in mats]


@st.composite
def block_diagonal_systems(draw, d, fields=FIELDS, turn_one=False):
    """Rank 2-4 over one of `fields`, block diagonal on a random partition
    whose blocks a random basis permutation interleaves ({0, 2} and {1},
    say).  Each block is a commuting family of its own: diagonal scalars,
    or a scalar times a Jordan power conjugated inside the block.  Over Q
    the blocks' denominators differ (Q_BY_DENOMINATOR), so the whole
    matrix's D is no block's own.  turn_one makes the product of all
    matrices 1; the system is possibly inverted."""
    field = draw(st.sampled_from(fields))
    r = draw(st.integers(2, 4))
    order = draw(st.permutations(range(r)))
    cuts = sorted(draw(st.sets(st.integers(1, r - 1))))
    blocks = [sorted(order[a:b]) for a, b in zip([0, *cuts], [*cuts, r])]
    mats = [[[field.zero] * r for _ in range(r)] for _ in range(d)]
    for i, block in enumerate(blocks):
        s = len(block)
        scalar = (st.sampled_from(Q_BY_DENOMINATOR[i % 3]) if field.kind == "Q"
                  else st.integers(1, field.p - 1))
        if s == 1 or draw(st.booleans()):
            parts = [[[field.element(draw(scalar)) if a == b else field.zero for b in range(s)]
                      for a in range(s)] for _ in range(d)]
        else:
            parts = conjugated_jordan(draw, field, s, d, scalar)
        for m, part in zip(mats, parts):
            for x, a in enumerate(block):
                for y, b in enumerate(block):
                    m[a][b] = part[x][y]
    if turn_one:
        turn = mats[0]
        for m in mats[1:-1]:
            turn = mat_mul(field, turn, m)
        mats[-1] = [list(row) for row in mat_inverse(field, turn)]
    system = build_local_system(field, r, mats)
    return system.inverse_system() if draw(st.booleans()) else system


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reduced_betti_equal_the_full_oracle(data):
    sc = complex_named(data.draw(st.sampled_from(["gen3", "cen3", "braid4", "gen-4-3"])))
    system = data.draw(commuting_systems(sc.fc.arrangement.d))
    assert twisted_betti(sc, system) == full_twisted_betti(sc, system)


def jordan_system(field, r, d, scalars=(1,)):
    """M_i = c_i * J^k_i, J = I + N/2 with N the r x r nilpotent shift, k_i
    cycling through 1, 2, -1 and c_i through `scalars`: commuting, for
    r > 1 not semisimple and with blocks that are not symmetric."""
    j = [[field.element(1 if a == b else Fraction(1, 2) if b == a + 1 else 0)
          for b in range(r)] for a in range(r)]
    powers = {1: j, 2: mat_mul(field, j, j), -1: mat_inverse(field, j)}
    return build_local_system(field, r, [
        [[field.element(scalars[i % len(scalars)]) * x for x in row]
         for row in powers[(1, 2, -1)[i % 3]]] for i in range(d)])


def assert_scale_times_the_plan_oracle(sc, system):
    """Every matrix is scale times the plan's evaluation in the field's own
    elements (Fractions over Q), entry for entry, in ints; scale is 1 over
    F_p; the Betti numbers are the oracle's."""
    tc, oracle = twisted_complex(sc, system), plan_twisted_complex(sc, system)
    assert type(tc.scale) is int and tc.scale >= 1 and tc.dims == oracle.dims
    assert tc.scale == 1 or system.field.kind == "Q"
    for m, o in zip(tc.matrices, oracle.matrices, strict=True):
        assert (m.nrows, m.ncols) == (o.nrows, o.ncols)
        assert all(type(v) is int for v in m.entries.values())
        assert m.entries == {key: tc.scale * v for key, v in o.entries.items()}
    # the oracle's composition is checked over the field, not taken from Λ
    hom = complex_dims(oracle.matrices, oracle.dims, system.field).homology
    assert twisted_betti(sc, system) == hom + [0] * (sc.fc.arrangement.dim + 1 - len(hom))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_q_specialization_is_scale_times_the_fraction_plan(data):
    sc = complex_named(data.draw(st.sampled_from(["gen3", "cen3", "braid4", "gen-4-3"])))
    system = data.draw(commuting_systems(sc.fc.arrangement.d, fields=(Q,),
                                         q_scalars=Q_SCALARS_236))
    assert_scale_times_the_plan_oracle(sc, system)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_specialization_is_the_plan_entry_for_entry_over_every_field(data):
    # ranks 1-3 over Q, F_2, F_7 and F_101, Jordan blocks among them: a
    # transposed block key or a product taken in the wrong order fails
    sc = complex_named(data.draw(st.sampled_from(["gen3", "cen3", "braid4", "gen-4-3"])))
    assert_scale_times_the_plan_oracle(sc, data.draw(commuting_systems(sc.fc.arrangement.d)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_block_diagonal_specialization_is_the_plan(data):
    # blocks interleaved by a permutation, over Q of different denominators:
    # each block at its own size writes the plan's entries at its keys,
    # times the complex's one scale
    name = data.draw(st.sampled_from(["gen3", "cen3", "braid4", "gen-4-3", "dbraid5"]))
    sc = complex_named(name)
    assert_scale_times_the_plan_oracle(sc, data.draw(block_diagonal_systems(sc.fc.arrangement.d)))


@pytest.mark.parametrize("name", ["braid4", "dbraid5"])
@pytest.mark.parametrize("field", [FieldSpec.prime(7), Q], ids=["F7", "Q"])
def test_interleaved_blocks_of_sizes_two_and_one_match_the_plan(name, field):
    # blocks {0, 2}, a Jordan block with denominators 2, and {1}, scalars
    # with denominator 3: a block of size > 1 beside one of size 1
    sc = complex_named(name)
    d = sc.fc.arrangement.d
    h, t = field.element(Fraction(1, 2)), field.element(Fraction(1, 3))
    mats = [[[h, 0, h * k], [0, t * (k % 5 + 1), 0], [0, 0, h]] for k in range(d)]
    for system in (build_local_system(field, 3, mats),
                   build_local_system(field, 3, mats).inverse_system()):
        assert system.partition == ((0, 2), (1,))
        assert (twisted_complex(sc, system).scale > 1) == (field.kind == "Q")
        assert_scale_times_the_plan_oracle(sc, system)


def whole_matrix_scale(sc, system):
    """The scale had every generator's values been taken over the lcm of
    the denominators of its whole r x r matrix: the lcm over the monomials
    of the products of those lcms along their chains."""
    gen_dens = [lcm(*(x.denominator for row in (system.monodromy if s > 0 else system.inverse)[i]
                      for x in row)) for i, s in sc.generators]
    dens = [1]
    for parent, g in sc.monomials:
        dens.append(dens[parent] * gen_dens[g])
    return lcm(*dens)


@pytest.mark.parametrize("name", ["braid4", "dbraid5"])
def test_a_per_block_scale_below_the_whole_matrix_lcm_matches_the_plan(name):
    # diag(1/2, 2) and diag(2, 1/2) in turn: every generator's matrix has
    # denominator 2, but each block only on half the generators, so a
    # monomial mixing both kinds needs a smaller power of 2 per block
    sc = complex_named(name)
    half, two = Fraction(1, 2), Fraction(2)
    mats = [[[half, 0], [0, two]] if i % 2 else [[two, 0], [0, half]]
            for i in range(sc.fc.arrangement.d)]
    for system in (build_local_system(Q, 2, mats), build_local_system(Q, 2, mats).inverse_system()):
        assert system.partition == ((0,), (1,))
        assert 1 < twisted_complex(sc, system).scale < whole_matrix_scale(sc, system)
        assert_scale_times_the_plan_oracle(sc, system)


@pytest.mark.parametrize("field", [FieldSpec.prime(101), Q], ids=["F101", "Q"])
@pytest.mark.parametrize("r", [4, 5])
def test_sweep_complex_matches_the_plan_at_ranks_4_and_5(field, r):
    sc = complex_named("dbraid5")
    system = jordan_system(field, r, sc.fc.arrangement.d)
    assert any(s < 0 for _i, s in sc.generators)
    assert (twisted_complex(sc, system).scale > 1) == (field.kind == "Q")
    assert_scale_times_the_plan_oracle(sc, system)


@pytest.mark.parametrize("name", ["gen3", "cen3", "braid4", "gen-4-3", "dbraid5"])
def test_plan_lists_each_generator_once_in_first_use_order(name):
    sc = complex_named(name)
    d = sc.fc.arrangement.d
    # the plan lists each reduced entry once, under its target row, rows
    # in target order
    assert [[t for t, _row in layer] for layer in sc.rows] == \
        [sorted({t for row in layer for t in row}) for layer in sc.boundary[1:]]
    assert [sorted((t, pos) for t, row in layer for pos, _terms in row) for layer in sc.rows] \
        == [sorted((t, pos) for pos, row in enumerate(layer) for t in row)
            for layer in sc.boundary[1:]]
    used = [g for _parent, g in sc.monomials]
    assert list(dict.fromkeys(used)) == list(range(len(sc.generators)))
    assert len(set(sc.generators)) == len(sc.generators)
    assert all(0 <= i < d and s in (1, -1) for i, s in sc.generators)
    # monomial j is its parent times its generator: one new exponent each,
    # and every exponent of the reduced boundary among them
    one = salvetti._packing(d)[0]
    exponents = [one]
    for parent, g in sc.monomials:
        i, s = sc.generators[g]
        exponents.append(exponents[parent] + (s << (salvetti._BITS * i)))
    assert len(set(exponents)) == len(exponents)
    assert {m for layer in sc.boundary for row in layer for poly in row.values()
            for m in poly} <= set(exponents)


@pytest.mark.parametrize("field", [FieldSpec.prime(7), Q], ids=["F7", "Q"])
def test_nothing_leaks_between_ranks(field):
    # whatever the reduced complex keeps per (rank, partition), a complex
    # that has assembled other ranks, and at rank 3 a diagonal system and a
    # Jordan system in turn, gives what a freshly built one gives
    arr = braid_essentialized(4)
    sc = build_salvetti(enumerate_faces(arr))
    diagonal = [[[field.element((2, 3, -1, 5)[(i + a) % 4]) if a == b else 0
                  for b in range(3)] for a in range(3)] for i in range(arr.d)]
    systems = [jordan_system(field, r, arr.d, scalars=(2, 3, -1)) for r in (2, 1, 3, 2, 1)]
    systems += [build_local_system(field, 3, diagonal), jordan_system(field, 3, arr.d, (2, -1)),
                build_local_system(field, 3, diagonal).inverse_system()]
    for system in systems:
        got = twisted_complex(sc, system)
        fresh = twisted_complex(build_salvetti(enumerate_faces(arr)), system)
        assert (got.dims, got.scale) == (fresh.dims, fresh.scale)
        assert [m.entries for m in got.matrices] == [m.entries for m in fresh.matrices]


@pytest.mark.parametrize("name", ["gen3", "braid4"])
def test_q_scale_clears_denominators_2_3_and_6(name):
    sc = complex_named(name)
    d = sc.fc.arrangement.d
    scalars = [(Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6))[i % 3] for i in range(d)]
    jordan = [[Fraction(-1, 6), Fraction(1, 2)], [0, Fraction(-1, 6)]]
    for system in (scalar_system(Q, scalars),
                   build_local_system(Q, 2, [jordan] * d)):
        for s in (system, system.inverse_system()):
            assert twisted_complex(sc, s).scale > 1
            assert_scale_times_the_plan_oracle(sc, s)


@pytest.mark.parametrize("name", ["braid4", "dbraid4"])
def test_reduced_betti_equal_the_full_oracle_on_a_corpus_sample(name):
    sc = complex_named(name)
    systems = systems_for_arrangement(sc.fc.arrangement, CorpusSpec(seed=0), name)
    sample = [system for _sys_id, system in systems[:3] + systems[3::5]]  # const-r1..3 first
    assert {s.field.kind for s in sample} == {"Q", "Fp"}
    assert {s.rank for s in sample} == {1, 2, 3}
    for system in sample:
        assert twisted_betti(sc, system) == full_twisted_betti(sc, system)


@pytest.mark.parametrize("name", ["gen3", "cen3", "braid4", "gen-4-3", "dbraid4"])
def test_reduced_counts_lie_between_cells_and_betti(name):
    sc = complex_named(name)
    b = betti_numbers(intersection_poset(sc.fc.arrangement))
    reduced = [len(layer) for layer in sc.boundary]
    assert len(reduced) == len(sc.cell_counts) == len(b)
    assert all(c >= x >= y for c, x, y in zip(sc.cell_counts, reduced, b))
    euler = [sum((-1) ** k * c for k, c in enumerate(counts))
             for counts in (sc.cell_counts, reduced, b)]
    assert euler[0] == euler[1] == euler[2]
    # the first round's order numbers the critical cells of the full
    # complex 0, 1, ... in their order there
    boundary = salvetti._full_complex(sc.fc)[0]
    order, _up = salvetti._check_matching(boundary, salvetti._match(boundary))
    for layer, c, n in zip(order, sc.cell_counts, reduced):
        critical = [pos for pos, i in enumerate(layer) if i < 0]
        assert [~layer[pos] for pos in critical] == list(range(len(critical)))
        assert len(critical) >= n and (not critical or critical[-1] < c)


@pytest.mark.parametrize("change", ["coefficient", "exponent"])
def test_reduced_gate_catches_one_corrupted_entry(gen3, monkeypatch, change):
    real_morse = salvetti._morse
    corrupted = []

    def corrupting(boundary, *args):
        real_morse(boundary, *args)
        # an entry of boundary 2 whose target has a nonzero boundary: any
        # change δ to it changes d∘d by δ times that boundary, never zero
        row = next(row for row in boundary[2] if any(boundary[1][t] for t in row))
        poly = row[next(t for t in row if boundary[1][t])]
        m, c = next(iter(poly.items()))
        if change == "coefficient":
            poly[m] = 2 * c
        else:
            del poly[m]
            moved = m + 1                 # t_1 times the monomial
            poly[moved] = poly.get(moved, 0) + c
            if not poly[moved]:
                del poly[moved]
        corrupted.append(m)

    monkeypatch.setattr(salvetti, "_morse", corrupting)
    with pytest.raises(ChainComplexError, match="composition nonzero"):
        build_salvetti(enumerate_faces(gen3))
    assert corrupted             # the full gate passed; the reduced one raised


@pytest.mark.parametrize("name", ["gen3", "cen3", "braid4"])
def test_reduction_that_drops_a_surviving_cell_is_refused(name, monkeypatch):
    # dropping a top-degree cell keeps d² = 0 over Λ, so only the count
    # gate, reduced cells_i >= b_i(U), can see that a cycle was lost
    arr = complex_named(name).fc.arrangement
    real_morse = salvetti._morse
    dropped = []

    def dropping(boundary, *args):
        real_morse(boundary, *args)
        dropped.append(boundary[-1].pop())

    monkeypatch.setattr(salvetti, "_morse", dropping)
    with pytest.raises(ChainComplexError, match=r"below b_\d"):
        build_salvetti(enumerate_faces(arr))
    assert dropped


@pytest.mark.parametrize("name", ["braid4", "dbraid4", "gen-4-3", "cen-5-3"])
def test_pruned_morse_boundary_equals_the_unpruned_elimination(name):
    # the Morse step updates critical rows only and drops downward-matched
    # columns before any product; plain elimination of the same matching,
    # which updates every row and keeps a column until its pair goes, is
    # its oracle
    fc = complex_named(name).fc
    boundary = salvetti._full_complex(fc)[0]
    pairs = salvetti._match(boundary)
    order, up = salvetti._check_matching(boundary, pairs)
    # some τ still has a downward-matched column when its pair goes, so the
    # oracle takes products that the Morse step prunes
    assert any(order[k - 1][y] > order[k][t] and y not in up[k - 1]
               for k, _s, t in pairs for y in boundary[k][t])
    oracle = unpruned_morse(as_polynomials(boundary, fc.arrangement.d), pairs)
    salvetti._morse(boundary, order, up, fc.arrangement.d)
    assert boundary == compacted(oracle)
    assert any(row for layer in boundary[1:] for row in layer)


def _moved_first(boundary, pairs):
    """The first pair whose σ is a face of the τ of an earlier pair, moved
    to the front: that τ's pair then comes after a pair matching its face
    upwards."""
    index = {}
    for i, (k, s, t) in enumerate(pairs):
        index[k, t] = i
    i = next(i for i, (k, s, t) in enumerate(pairs)
             if any(index.get((k, x), i) < i for x, row in enumerate(boundary[k])
                    if s in row and x != t))
    return [pairs[i], *pairs[:i], *pairs[i + 1:]]


def _cycle(boundary, pairs):
    """Two degree-1 cells on one codim-1 face, both with the two chambers
    beside it in their boundary, each matched with one of them: the
    gradient path σ → τ → σ' → τ' → σ closes."""
    s0, s1 = boundary[1][0]
    t1 = next(t for t, row in enumerate(boundary[1]) if t and set(row) == {s0, s1})
    return [(1, s0, 0), (1, s1, t1)]


def _repeated(boundary, pairs):
    return [*pairs, pairs[0]]


@pytest.mark.parametrize("mutate,message", [
    (_moved_first, "face .* is matched up in an earlier pair"),
    (_cycle, "face .* is matched up in an earlier pair"),
    (_repeated, "is not an edge of a matching"),
], ids=["moved-first", "cycle", "repeated"])
def test_a_matching_off_its_certificate_is_refused_at_build(gen3, monkeypatch, mutate, message):
    real_match, morse = salvetti._match, []

    def stop(*args):
        # a matching let through would loop over rounds that change nothing
        morse.append(args)
        raise AssertionError("the matching reached the Morse step")

    monkeypatch.setattr(salvetti, "_match", lambda rows: mutate(rows, real_match(rows)))
    monkeypatch.setattr(salvetti, "_morse", stop)
    with pytest.raises(ChainComplexError, match=message):
        build_salvetti(enumerate_faces(gen3))
    assert morse == []                    # refused before any arithmetic


def test_a_pair_at_an_entry_that_is_not_a_unit_is_refused():
    # t_1 - 1 is no unit of Λ: Morse theory over Λ cannot invert it, though
    # the pair is an edge and on its own cannot close a cycle
    one = salvetti._packing(1)[0]
    rows = [[{}, {}], [{0: {one: -1}, 1: {one + 1: 1, one: -1}}]]
    with pytest.raises(ChainComplexError, match="pair 0 sits at an entry that is not a unit"):
        salvetti._check_matching(rows, [(1, 1, 0)])
    assert salvetti._check_matching(rows, [(1, 0, 0)])[1] == [{0: 0}, {}]
    # cell 0 of degree 0 goes critical first, which leaves t_1 - 1 the only
    # face entry: no coreduction takes it, so every cell stays critical
    assert salvetti._match(rows) == []


def _cen_5_3_at_seed_2():
    return next(item.arrangement for item in generate_corpus(CorpusSpec(seed=2))
                if item.arrangement_id == "cen-5-3")


def test_cen_5_3_at_seed_2_takes_two_rounds(monkeypatch):
    # its first round stops at [1, 5, 15, 11], which every gate passes; the
    # second, on the Morse complex's Laurent polynomials, reaches b_i(U)
    arr = _cen_5_3_at_seed_2()
    rounds, real_morse = [], salvetti._morse
    monkeypatch.setattr(salvetti, "_morse", lambda rows, *args: real_morse(rows, *args)
                        or rounds.append([len(layer) for layer in rows]))
    sc = build_salvetti(enumerate_faces(arr))
    assert rounds == [[1, 5, 15, 11], [1, 5, 10, 6]]
    assert [len(layer) for layer in sc.boundary] == [1, 5, 10, 6] == \
        betti_numbers(intersection_poset(arr))
    assert any(len(poly) > 1 for layer in sc.boundary for row in layer for poly in row.values())


@pytest.mark.parametrize("name", ["braid4", "gen-4-3", "dbraid4", "cen-5-3-seed-2"])
def test_each_match_scans_only_the_cells_the_last_round_left(name, monkeypatch):
    # a round hands on its critical cells alone: the first match scans the
    # full complex, each later one the critical cells of the round before,
    # and the last one, which finds no pair, b_i(U) cells
    arr = (_cen_5_3_at_seed_2() if name == "cen-5-3-seed-2"
           else complex_named(name).fc.arrangement)
    seen, real_match = [], salvetti._match
    monkeypatch.setattr(salvetti, "_match", lambda rows: seen.append(
        ([len(layer) for layer in rows], real_match(rows))) or seen[-1][1])
    sc = build_salvetti(enumerate_faces(arr))
    assert seen[0][0] == sc.cell_counts
    for (counts, pairs), (after, _pairs) in zip(seen, seen[1:]):
        matched = [0] * len(counts)
        for k, _s, _t in pairs:
            matched[k - 1] += 1
            matched[k] += 1
        assert pairs and after == [c - m for c, m in zip(counts, matched)]
    assert seen[-1] == (betti_numbers(intersection_poset(arr)), [])
    assert len(seen) == (3 if name == "cen-5-3-seed-2" else 2)


@pytest.mark.parametrize("name", ["gen3", "braid4", "dbraid4", "gen-4-3"])
def test_a_round_that_moves_a_target_is_refused_by_the_reduced_gate(name, monkeypatch):
    # a renumbering slip: one target of one critical row in degree 2 moved
    # to another cell of degree 1 with another boundary.  The counts and
    # the certificate cannot see it, nor the t = 1 check, since every
    # boundary of a minimal complex is zero there; the reduced d∘d = 0
    # gate over Λ sees p·(∂t' - ∂t) ≠ 0
    real_morse, moved = salvetti._morse, []

    def moving(rows, *args):
        real_morse(rows, *args)
        row, t, t2 = next((row, t, t2) for row in rows[2] for t in row
                          for t2 in range(len(rows[1]))
                          if t2 not in row and rows[1][t2] != rows[1][t])
        row[t2] = row.pop(t)
        moved.append((t, t2))

    monkeypatch.setattr(salvetti, "_morse", moving)
    with pytest.raises(ChainComplexError, match="composition nonzero over Λ in degrees 2->0"):
        build_salvetti(enumerate_faces(complex_named(name).fc.arrangement))
    assert len(moved) == 1           # one round, then the gates


@pytest.mark.parametrize("name", ["braid4", "dbraid4", "gen-4-3", "cen-5-3"])
def test_greedy_reduction_gives_the_same_answers(name):
    # the greedy elimination the Morse rounds replaced reduces the same full
    # boundary another way: the answers agree, the matrices need not
    sc = complex_named(name)
    greedy = greedy_complex(sc.fc)
    assert [len(layer) for layer in greedy.boundary] == [len(layer) for layer in sc.boundary]
    systems = systems_for_arrangement(sc.fc.arrangement, CorpusSpec(seed=0), name)
    sample = [system for _sys_id, system in systems[:3] + systems[3::5]]
    assert {s.field.kind for s in sample} == {"Q", "Fp"} and len(sample) >= 5
    for system in sample:
        assert twisted_betti(sc, system) == twisted_betti(greedy, system)


def test_every_complex_built_is_minimal(tmp_path, monkeypatch):
    # the Morse rounds reach b_i(U) cells in every degree on every complex
    # that verify --all builds at seeds 0-2, and on the ladder's and gen-10-4
    built, real_build = [], salvetti.build_salvetti
    monkeypatch.setattr(salvetti, "build_salvetti",
                        lambda fc: built.append(real_build(fc)) or built[-1])
    for seed, count in ((0, 48), (1, 49), (2, 47)):
        out = str(tmp_path / f"r{seed}.json")
        assert cli.main(["verify", "--all", "--seed", str(seed), "--out", out]) == 0
        assert len(built) == count
        for sc in built:
            assert [len(layer) for layer in sc.boundary] == \
                betti_numbers(intersection_poset(sc.fc.arrangement))
        built.clear()
    braid5 = braid_essentialized(5)
    built += [real_build(enumerate_faces(arr))
              for arr in (braid5, random_generic(8, 3, 1), decone(braid5, 0),
                          random_generic(10, 4, 1))]
    for sc in built:
        assert [len(layer) for layer in sc.boundary] == \
            betti_numbers(intersection_poset(sc.fc.arrangement))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    *(st.lists(st.integers(-salvetti._BIAS, salvetti._BIAS - 1), min_size=d,
               max_size=d) for _ in range(3)))))
def test_packed_exponents_add_exactly_or_flag_the_overflow(vectors):
    # a - b + c on packed exponents in range, as in the reduction's updates
    a, b, c = vectors
    one, top = salvetti._packing(len(a))

    def pack(e):
        return one + sum(x << (salvetti._BITS * i) for i, x in enumerate(e))

    total = [x - y + z for x, y, z in zip(a, b, c)]
    fits = all(-salvetti._BIAS <= x < salvetti._BIAS for x in total)
    packed = pack(a) - pack(b) + pack(c)
    assert (not packed & top) == fits
    if fits:
        assert packed == pack(total)
