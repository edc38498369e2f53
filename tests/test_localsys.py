from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from localsys_oracle import first_noncommuting_pair, full_inverses
from test_reduction import FIELDS, block_diagonal_systems, commuting_systems, conjugated_jordan

from arrtop import localsys
from arrtop.exactla import identity_matrix, mat_mul
from arrtop.fields import FieldSpec
from arrtop.geometry import decone, generic_section, intersection_poset, localize, zero_flats
from arrtop.harness import (CorpusSpec, VerifyContext, braid_essentialized,
                            check_central_structure, generate_corpus, named_arrangements)
from arrtop.localsys import (
    LocalSystem,
    LocalSystemError,
    build_local_system,
    decone_system,
    is_trivial,
    local_system_from_json,
    restrict,
    scalar_system,
    total_turn,
)
from arrtop.realfaces import enumerate_faces
from arrtop.salvetti import build_salvetti, twisted_betti, twisted_complex

Q = FieldSpec.rationals()
F7 = FieldSpec.prime(7)


def test_build_rank1(a2):
    system = scalar_system(Q, [2, 3])
    assert system.rank == 1 and system.d == 2
    del a2


def test_build_rejects_singular():
    with pytest.raises(LocalSystemError, match="matrix 2 is singular"):
        scalar_system(F7, [2, 7, 3])


def test_build_rejects_noncommuting():
    with pytest.raises(LocalSystemError, match="1 and 2 do not commute"):
        build_local_system(Q, 2, [[[1, 1], [0, 1]], [[0, 1], [1, 0]]])


def test_rank1_never_rejected_for_commutation():
    system = scalar_system(Q, [2, 3, 5, Fraction(1, 2)])
    assert system.d == 4


def test_is_trivial():
    assert is_trivial(build_local_system(Q, 2, [[[1, 0], [0, 1]]] * 3))
    assert not is_trivial(scalar_system(Q, [1, 1, 2]))
    assert not is_trivial(build_local_system(Q, 2, [[[1, 1], [0, 1]]] * 2))


def test_total_turn_scalars(cen3):
    assert total_turn(cen3, scalar_system(Q, [2, 2, 2])) == ((8,),)
    assert total_turn(cen3, scalar_system(F7, [2, 2, 2])) == ((1,),)


def test_total_turn_diagonal(bool2):
    system = build_local_system(Q, 2, [[[2, 0], [0, 3]], [[5, 0], [0, 7]]])
    assert total_turn(bool2, system) == ((10, 0), (0, 21))


def test_total_turn_rejects_noncentral(gen3):
    with pytest.raises(LocalSystemError, match="central"):
        total_turn(gen3, scalar_system(Q, [2, 2, 2]))


def test_total_turn_order_invariant(cen3):
    a = build_local_system(Q, 2, [[[2, 1], [0, 2]], [[3, 0], [0, 3]], [[1, 1], [0, 1]]])
    b = build_local_system(Q, 2, list(reversed(a.monodromy)))
    assert total_turn(cen3, a) == total_turn(cen3, b)


def test_restrict():
    system = scalar_system(Q, [2, 3, 5])
    assert restrict(system, [0, 1]).monodromy == (((2,),), ((3,),))
    assert restrict(system, [0, 1, 2]) == system
    assert restrict(restrict(system, [0, 2]), [1]).monodromy == (((5,),),)


def test_restrict_rejects_bad_maps():
    system = scalar_system(Q, [2, 3, 5])
    with pytest.raises(LocalSystemError, match="injective"):
        restrict(system, [0, 0])
    with pytest.raises(LocalSystemError, match="out of range"):
        restrict(system, [0, 3])


def test_trivial_restricts_trivial():
    system = scalar_system(Q, [1, 1, 1])
    assert is_trivial(restrict(system, [2, 0]))


def test_decone_system_f7(cen3):
    descended = decone_system(cen3, scalar_system(F7, [2, 2, 2]), 2)
    assert descended.monodromy == (((2,),), ((2,),))


def test_decone_system_rejects_nonidentity_turn(cen3):
    with pytest.raises(LocalSystemError, match="does not descend"):
        decone_system(cen3, scalar_system(Q, [2, 2, 2]), 0)


def test_decone_system_balanced(bool2):
    descended = decone_system(bool2, scalar_system(Q, [5, Fraction(1, 5)]), 1)
    assert descended.monodromy == (((5,),),)


def test_inverse_system_roundtrip():
    system = build_local_system(Q, 2, [[[1, 1], [0, 1]], [[2, 1], [0, 2]]])
    double = system.inverse_system().inverse_system()
    assert double == system


# ---------------------------------------------------------------------------
# a verify run keys each answer under a system and under its inverse system,
# the corpus's own or one derived by restrict or decone_system


def _braid4_systems():
    """braid4 and its seed-0 corpus systems, over Q and F_p, with systems
    of total turn I over Q and F_7 that descend along its decones."""
    (item,) = [item for item in generate_corpus(CorpusSpec(seed=0))
               if item.arrangement_id == "braid4"]
    systems = [system for _sys_id, system in item.systems]
    systems += [scalar_system(F7, [2, 4, 3, 5, 1, 1]),
                scalar_system(Q, [2, 3, Fraction(1, 6), 5, Fraction(1, 5), 1])]
    assert {system.field for system in systems} >= {Q, F7, FieldSpec.prime(101)}
    return item.arrangement, systems


def _index_maps(arr):
    """Each localization's index map at a zero flat, and a reordered subset."""
    return [sorted(flat.containing) for flat in zero_flats(intersection_poset(arr))] + [[4, 0, 2]]


def _derived_systems(arr, system):
    """The system restricted along each of _index_maps(arr), and descended
    along each decone when its turn is I."""
    out = [restrict(system, m) for m in _index_maps(arr)]
    if system.turn == identity_matrix(system.field, system.rank):
        out += [decone_system(arr, system, i0) for i0 in range(arr.d)]
    return out


def test_inverse_system_is_an_involution_with_equal_hashes():
    arr, systems = _braid4_systems()
    derived = [d for system in systems for d in _derived_systems(arr, system)]
    assert len(derived) > 2 * len(systems)          # decones among them
    for system in systems + derived:
        double = system.inverse_system().inverse_system()
        assert double == system and hash(double) == hash(system)
        assert {system: 0}[double] == 0


def test_restrict_commutes_with_inversion():
    arr, systems = _braid4_systems()
    for system in systems:
        for m in _index_maps(arr):
            inverse_first = restrict(system.inverse_system(), m)
            restricted_first = restrict(system, m).inverse_system()
            assert inverse_first == restricted_first
            assert hash(inverse_first) == hash(restricted_first)


def test_decone_system_commutes_with_inversion():
    arr, systems = _braid4_systems()
    identity = [s for s in systems if s.turn == identity_matrix(s.field, s.rank)]
    assert {s.field for s in identity if not is_trivial(s)} >= {Q, F7}
    for system in identity:
        for i0 in range(arr.d):
            inverse_first = decone_system(arr, system.inverse_system(), i0)
            deconed_first = decone_system(arr, system, i0).inverse_system()
            assert inverse_first == deconed_first
            assert hash(inverse_first) == hash(deconed_first)


def test_json_roundtrip():
    system = build_local_system(F7, 2, [[[1, 1], [0, 1]], [[2, 1], [0, 2]]])
    again = local_system_from_json(system.to_json())
    assert again == system


def test_json_rational_entries():
    raw = {"field": {"kind": "Q"}, "rank": 1, "monodromy": [["1/2"], ["-3"]]}
    system = local_system_from_json(raw)
    assert system.monodromy == (((Fraction(1, 2),),), ((Fraction(-3),),))


def test_json_rejects_wrong_length():
    raw = {"field": {"kind": "Q"}, "rank": 2, "monodromy": [["1", "0", "0"]]}
    with pytest.raises(LocalSystemError):
        local_system_from_json(raw)


def test_hash_is_cached_and_agrees_with_equality():
    a = scalar_system(Q, [2, 3])
    b = scalar_system(Q, [2, 3])
    assert a == b and hash(a) == hash(b) and {a: "x"}[b] == "x"
    assert a != scalar_system(Q, [3, 2])
    # the field, the rank and the matrices, hashed once and kept
    assert vars(a)["_hash"] == hash((a.field, a.rank, a.monodromy))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_equal_systems_hash_equal_also_when_derived(data):
    # each system beside a copy built afresh from its entries, and each of
    # their inverse, restricted and descended systems beside the other's
    # and beside one built from the derived matrices
    cen3 = named_arrangements()["cen3"]
    turn_one = data.draw(st.booleans())
    system = data.draw(st.one_of(block_diagonal_systems(cen3.d, turn_one=turn_one),
                                 commuting_systems(cen3.d)))
    copy = build_local_system(system.field, system.rank, system.monodromy)
    index_map = data.draw(st.lists(st.integers(0, cen3.d - 1), min_size=1, unique=True))
    pairs = [(system, copy), (system.inverse_system(), copy.inverse_system()),
             (restrict(system, index_map), restrict(copy, index_map)),
             (restrict(system.inverse_system(), index_map),
              restrict(copy, index_map).inverse_system())]
    if system.turn == identity_matrix(system.field, system.rank):
        for i0 in range(cen3.d):
            pairs += [(decone_system(cen3, system, i0), decone_system(cen3, copy, i0)),
                      (decone_system(cen3, system.inverse_system(), i0),
                       decone_system(cen3, copy, i0).inverse_system())]
    pairs += [(a, build_local_system(a.field, a.rank, a.monodromy)) for a, _b in pairs]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b) and {a: 0}[b] == 0
        assert hash(a) == hash((a.field, a.rank, a.monodromy))


def test_unequal_matrices_of_one_hash_stay_apart():
    # hash(-1) == hash(-2), so the scalars -1 and -2 collide as matrices
    assert hash(((Fraction(-1),),)) == hash(((Fraction(-2),),))
    system = scalar_system(Q, [-1, -2, -1, 3, -2])
    assert system._distinct == [(((-1,),), [0, 2]), (((-2,),), [1, 4]), (((3,),), [3])]
    half, third = Fraction(-1, 2), Fraction(1, 3)
    assert system.inverse == (((-1,),), ((half,),), ((-1,),), ((third,),), ((half,),))
    assert system != scalar_system(Q, [-2, -1, -1, 3, -2])


# ---------------------------------------------------------------------------
# each system inverts its monodromy once


def counting_inverse(monkeypatch):
    calls = []
    real = localsys.mat_inverse

    def counted(fieldspec, a):
        calls.append(a)
        return real(fieldspec, a)

    monkeypatch.setattr(localsys, "mat_inverse", counted)
    return calls


def test_monodromy_is_inverted_once_per_distinct_matrix(monkeypatch):
    # each distinct matrix is inverted once, block by block: Gauss-Jordan
    # (mat_inverse) on each of its blocks of size > 1, one field inverse
    # on each of size one
    braid4 = braid_essentialized(4)
    section = generic_section(braid4, 2, seed=0)
    complexes = [build_salvetti(enumerate_faces(arr)) for arr in (braid4, section)]
    assert section.d == braid4.d == 6
    assert any(s < 0 for sc in complexes for _i, s in sc.generators)
    calls = counting_inverse(monkeypatch)
    scalars = []
    real_invert = localsys._invert
    monkeypatch.setattr(localsys, "_invert", lambda field, m, block: (
        len(block) == 1 and scalars.append((m, block))) or real_invert(field, m, block))
    jordan, unipotent = [[2, 1], [0, 2]], [[1, 1], [0, 1]]
    # block {0, 2} beside the size-one block {1}
    mixed = [[[2, 0, 1], [0, 3, 0], [0, 0, 2]], [[1, 0, 1], [0, 5, 0], [0, 0, 1]]]
    systems = [build_local_system(Q, 2, [jordan, unipotent, jordan, jordan, unipotent, jordan]),
               scalar_system(F7, [3, 5, 3, 3, 5, 3]),
               build_local_system(F7, 3, [mixed[k] for k in (0, 1, 0, 0, 1, 0)])]
    assert systems[2].partition == ((0, 2), (1,))
    for system in systems:
        for sc in complexes:
            twisted_complex(sc, system)
    distinct = [(system, m) for system in systems for m in set(system.monodromy)]
    assert len(calls) == len(scalars) == 4
    assert sorted(map(str, calls)) == sorted(
        str([[m[a][b] for b in block] for a in block])
        for system, m in distinct for block in system.partition if len(block) > 1)
    assert sorted(map(repr, scalars)) == sorted(
        repr((m, block)) for system, m in distinct for block in system.partition
        if len(block) == 1)


def test_inverse_system_inverts_nothing(monkeypatch):
    system = build_local_system(F7, 2, [[[1, 1], [0, 1]], [[2, 1], [0, 2]]])
    calls = counting_inverse(monkeypatch)
    inverse = system.inverse_system()
    assert inverse.monodromy == system.inverse
    assert inverse.inverse is system.monodromy
    assert inverse.inverse_system() == system
    assert calls == []


def test_derived_systems_neither_check_nor_invert_again(monkeypatch):
    # a subset of a commuting family commutes, and its inverses are the
    # parent's: restricting and specializing multiply or invert no
    # monodromy matrix, and deconing multiplies only for its total turn
    braid4 = braid_essentialized(4)
    triple = next(f for f in intersection_poset(braid4).of_codim(2) if len(f.containing) == 3)
    index_map = sorted(triple.containing)
    # c·(I + N)^k with prod c = 1 and sum k = 0 mod 7: the total turn is I
    system = build_local_system(F7, 2, [[[c, c * k], [0, c]] for c, k in
                                        ((2, 1), (4, 2), (3, 3), (5, 1), (1, 0), (1, 0))])
    local = build_salvetti(enumerate_faces(localize(braid4, triple)))
    deconed = build_salvetti(enumerate_faces(decone(braid4, 0)))
    assert all(any(s < 0 for _i, s in sc.generators) for sc in (local, deconed))
    inverses = counting_inverse(monkeypatch)
    descended = decone_system(braid4, system, 0)
    products = []
    real_mul = localsys.mat_mul
    monkeypatch.setattr(localsys, "mat_mul", lambda *args: products.append(args) or real_mul(*args))
    restricted = restrict(system, index_map)
    cases = [(local, restricted, index_map), (local, restricted.inverse_system(), None),
             (deconed, descended, range(1, 6))]
    dims = [twisted_betti(sc, derived) for sc, derived, _ in cases]
    assert products == [] and inverses == []
    monkeypatch.undo()
    for (sc, derived, kept), got in zip(cases, dims):
        mats = [system.monodromy[i] for i in kept] if kept else restricted.inverse
        fresh = build_local_system(F7, 2, mats)
        assert derived == fresh and derived.inverse == fresh.inverse
        assert got == twisted_betti(sc, fresh)


def test_each_system_multiplies_its_total_turn_once(monkeypatch):
    # the central-structure check takes the total turn, then descends the
    # system along every decone, which needs that turn to be the identity:
    # the d matrices are multiplied out once, not again per decone
    braid4 = braid_essentialized(4)
    ctx = VerifyContext(seed=0)
    ctx.register("braid4", braid4)
    system = scalar_system(F7, [2, 4, 3, 5, 1, 1])        # 2·4·3·5 = 120 = 1 mod 7
    products = []
    real_mul = localsys.mat_mul
    monkeypatch.setattr(localsys, "mat_mul", lambda *args: products.append(args) or real_mul(*args))
    report = check_central_structure(ctx, "braid4", "s", system)
    assert report.status == "pass" and report.data["case"] == "turn-identity"
    assert all(f"decone{i0}" in report.data for i0 in range(braid4.d))
    assert len(products) == braid4.d
    assert total_turn(braid4, system) == system.turn == ((1,),)
    assert len(products) == braid4.d


def test_hand_built_singular_system_fails_on_first_use():
    system = LocalSystem(F7, 1, (((2,),), ((0,),)))
    with pytest.raises(LocalSystemError, match="matrix 2 is singular"):
        system.inverse
    with pytest.raises(LocalSystemError, match="matrix 2 is singular"):
        system.inverse_system()


def assert_partition_is_the_components(system):
    """system.partition covers range(r), blocks sorted and in order of their
    least index; every monodromy matrix and every inverse is zero off its
    blocks, and each block is connected by the matrices' nonzero
    off-diagonal entries, so no finer partition would do."""
    part = system.partition
    assert sorted(a for block in part for a in block) == list(range(system.rank))
    assert all(list(block) == sorted(block) for block in part) and list(part) == sorted(part)
    where = {a: i for i, block in enumerate(part) for a in block}
    for m in system.monodromy + system.inverse:
        assert all(not x or where[a] == where[b]
                   for a, row in enumerate(m) for b, x in enumerate(row))
    for block in part:
        seen, todo = {block[0]}, [block[0]]
        while todo:
            a = todo.pop()
            for b in set(block) - seen:
                if any(m[a][b] or m[b][a] for m in system.monodromy):
                    seen.add(b)
                    todo.append(b)
        assert seen == set(block)


def test_partition_of_rank_one_and_of_a_diagonal_system():
    assert scalar_system(Q, [2, 3]).partition == ((0,),)
    assert build_local_system(F7, 3, [[[2, 0, 0], [0, 3, 0], [0, 0, 2]]] * 2).partition \
        == ((0,), (1,), (2,))


def test_a_scalar_first_matrix_beside_a_jordan_matrix_gives_one_block():
    system = build_local_system(Q, 2, [[[2, 0], [0, 2]], [[1, 1], [0, 1]], [[3, 0], [0, 3]]])
    assert system.partition == ((0, 1),)
    assert system.inverse_system().partition == ((0, 1),)
    assert_partition_is_the_components(system)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_partition_is_the_components_also_on_derived_systems(data):
    cen3 = named_arrangements()["cen3"]
    system = data.draw(block_diagonal_systems(cen3.d, turn_one=data.draw(st.booleans())))
    assert_partition_is_the_components(system)
    inverse = system.inverse_system()
    assert_partition_is_the_components(inverse)
    assert inverse.partition == system.partition             # inverses share it
    index_map = data.draw(st.lists(st.integers(0, cen3.d - 1), min_size=1, unique=True))
    assert_partition_is_the_components(restrict(system, index_map))
    if system.turn == identity_matrix(system.field, system.rank):
        for i0 in range(cen3.d):
            assert_partition_is_the_components(decone_system(cen3, system, i0))


def test_is_trivial_is_decided_once_per_system(monkeypatch):
    made = []
    real = localsys.identity_matrix

    def counted(field, r):
        made.append(r)
        return real(field, r)

    monkeypatch.setattr(localsys, "identity_matrix", counted)
    trivial = LocalSystem(Q, 2, (((1, 0), (0, 1)),) * 3)
    twisted = build_local_system(F7, 2, [[[1, 1], [0, 1]]] * 3)
    for _ in range(3):
        assert is_trivial(trivial) and not is_trivial(twisted)
    assert made == [2, 2]


# ---------------------------------------------------------------------------
# validation and inversion go block by block; the full matrices are the oracle


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_by_block_inverse_is_the_full_inverse(data):
    # Q, F_2, F_7 and F_101; ranks 1-4 with blocks of every size
    d = data.draw(st.integers(1, 5))
    system = data.draw(st.one_of(block_diagonal_systems(d), commuting_systems(d)))
    for s in (system, system.inverse_system()):
        # repr: the same entries and the same types (Fractions over Q)
        assert repr(s.inverse) == repr(full_inverses(s.field, s.monodromy))
        ident = identity_matrix(s.field, s.rank)
        assert all(mat_mul(s.field, m, inv) == ident for m, inv in zip(s.monodromy, s.inverse))


@st.composite
def families_noncommuting_in_one_block(draw):
    """(field, rank, matrices): rank 3-4 over one of FIELDS, one block of
    size 2 or 3 among size-one blocks, interleaved.  Each of the d
    matrices is drawn from a pool of at most 4, so some repeat; a pool
    matrix has its own scalars off the block and, on it, one of a
    commuting family (a conjugated Jordan family) or an arbitrary matrix,
    so that some families commute and others fail in that block only."""
    field = draw(st.sampled_from(FIELDS))
    r = draw(st.integers(3, 4))
    block = sorted(draw(st.permutations(range(r)))[:draw(st.integers(2, 3))])
    s = len(block)
    entry = st.integers(-2, 2).map(field.element)
    scalar = (st.sampled_from((1, -1, 2, 3, Fraction(1, 2))) if field.kind == "Q"
              else st.integers(1, field.p - 1))
    commuting = conjugated_jordan(draw, field, s, 3, scalar)
    pool = []
    for _ in range(draw(st.integers(2, 4))):
        part = (draw(st.sampled_from(commuting)) if draw(st.booleans()) else
                [[draw(entry) for _ in range(s)] for _ in range(s)])
        m = [[field.element(draw(scalar)) if a == b else field.zero for b in range(r)]
             for a in range(r)]
        for x, a in enumerate(block):
            for y, b in enumerate(block):
                m[a][b] = part[x][y]
        pool.append(tuple(map(tuple, m)))
    d = draw(st.integers(2, 6))
    return field, r, tuple(pool[draw(st.integers(0, len(pool) - 1))] for _ in range(d))


@settings(max_examples=200, deadline=None)
@given(family=families_noncommuting_in_one_block())
def test_block_by_block_commutation_is_the_pairwise_check(family):
    field, r, mats = family
    pair = first_noncommuting_pair(field, mats)
    if pair is None:
        assert LocalSystem(field, r, mats).monodromy == mats
    else:
        with pytest.raises(LocalSystemError,
                           match=f"^matrices {pair[0]} and {pair[1]} do not commute"):
            LocalSystem(field, r, mats)


def test_a_family_failing_in_a_block_beside_scalars_names_the_pair():
    # block {0, 2} beside the size-one block {1}: matrices 1 to 3 commute,
    # 4 commutes with 1 (a scalar on the block) but not with 2
    mats = [[[2, 0, 0], [0, 3, 0], [0, 0, 2]], [[1, 0, 1], [0, 5, 0], [0, 0, 1]],
            [[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[0, 0, 1], [0, 4, 0], [1, 0, 0]]]
    system_mats = tuple(tuple(tuple(F7.element(x) for x in row) for row in m) for m in mats)
    assert first_noncommuting_pair(F7, system_mats) == (2, 4)
    with pytest.raises(LocalSystemError, match="^matrices 2 and 4 do not commute"):
        build_local_system(F7, 3, mats)
    assert build_local_system(F7, 3, mats[:3]).partition == ((0, 2), (1,))
