import gc
import random
import weakref
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from arrtop import geometry
from arrtop.exactla import dot, mat_inverse
from arrtop.fields import FieldSpec
from arrtop.geometry import (
    Arrangement,
    ArrangementError,
    GenericityError,
    Hyperplane,
    betti_numbers,
    characteristic_polynomial,
    decone,
    essentialize,
    evaluate_poly,
    generic_section,
    intersection_poset,
    localize,
    validate_arrangement,
    zero_flats,
)
from arrtop.harness import (
    CorpusSpec,
    VerifyContext,
    braid_essentialized,
    generate_corpus,
    random_generic,
)
from arrtop.realfaces import enumerate_faces
from arrtop.salvetti import build_salvetti

from conftest import make_arrangement, oracle_arrangements
from dense_rank_oracle import rank_dense
from poset_oracle import (affine_value, check_section_by_solves, flat_rows_by_fractions,
                          frame_as_fractions, poset_by_pair_solves, solve_affine)


def test_validate_a1():
    arr = validate_arrangement({
        "dim": 1, "hyperplanes": [{"label": "H1", "normal": ["1"], "offset": "0"}]})
    assert arr.dim == 1 and arr.d == 1
    assert arr.is_central and arr.is_essential


def test_validate_cen3_flags(cen3):
    assert cen3.is_central and cen3.is_essential


def test_central_by_ranks_matches_the_affine_solve():
    # central is decided by rank([normal | offset]) == rank(normals); the
    # oracle solves normal·x = offset for a common point
    flags = []
    for arr in oracle_arrangements():
        common = solve_affine([(h.normal, h.offset) for h in arr.hyperplanes], arr.dim)
        assert arr.is_central == (common is not None)
        flags.append(arr.is_central)
    assert any(flags) and not all(flags)


def test_validate_rejects_proportional_rows():
    with pytest.raises(ArrangementError, match="H1 and H2"):
        validate_arrangement({
            "dim": 2,
            "hyperplanes": [
                {"label": "H1", "normal": ["1", "0"], "offset": "0"},
                {"label": "H2", "normal": ["2", "0"], "offset": "0"},
            ]})


def test_validate_rejects_zero_normal():
    with pytest.raises(ArrangementError, match="zero normal"):
        validate_arrangement({
            "dim": 2, "hyperplanes": [{"label": "Z", "normal": ["0", "0"], "offset": "1"}]})


def test_validate_rejects_malformed_rational():
    with pytest.raises(ArrangementError, match="malformed"):
        validate_arrangement({
            "dim": 1, "hyperplanes": [{"label": "H1", "normal": ["1.5"], "offset": "0"}]})


def test_json_roundtrip(gen3):
    again = validate_arrangement(gen3.to_json())
    assert again == gen3


@pytest.mark.parametrize("fixture,counts,mobius", [
    ("gen3", [1, 3, 3], [1, -1, -1, -1, 1, 1, 1]),
    ("cen3", [1, 3, 1], [1, -1, -1, -1, 2]),
    ("a1", [1, 1], [1, -1]),
])
def test_poset_examples(fixture, counts, mobius, request):
    poset = intersection_poset(request.getfixturevalue(fixture))
    assert poset.flat_counts() == counts
    assert [f.mobius for f in poset.flats] == mobius


@pytest.mark.parametrize("fixture,coeffs", [
    ("bool2", [1, -2, 1]),          # (t-1)^2
    ("cen3", [2, -3, 1]),           # (t-1)(t-2)
    ("gen3", [3, -3, 1]),
])
def test_characteristic_polynomial(fixture, coeffs, request):
    poset = intersection_poset(request.getfixturevalue(fixture))
    assert characteristic_polynomial(poset) == coeffs


@pytest.mark.parametrize("fixture,betti", [
    ("gen3", [1, 3, 3]),
    ("cen3", [1, 3, 2]),
    ("bool2", [1, 2, 1]),
])
def test_betti_numbers(fixture, betti, request):
    assert betti_numbers(intersection_poset(request.getfixturevalue(fixture))) == betti


def test_mobius_recursion_property(gen3, cen3):
    for arr in (gen3, cen3, braid_essentialized(4)):
        poset = intersection_poset(arr)
        for x in poset.flats:
            total = sum(y.mobius for y in poset.flats if y.containing <= x.containing)
            assert total == (1 if x.codim == 0 else 0)


def brute_force_flats(arr):
    """All distinct nonempty subset intersections, keyed by their closed
    containing set; the oracle path never touches the poset builder."""
    keys = set()
    for size in range(arr.d + 1):
        for subset in combinations(range(arr.d), size):
            eqs = [(arr.hyperplanes[i].normal, arr.hyperplanes[i].offset) for i in subset]
            sol = solve_affine(eqs, arr.dim)
            if sol is None:
                continue
            point, basis = sol
            closure = frozenset(
                i for i, h in enumerate(arr.hyperplanes)
                if affine_value(h, point) == 0 and all(dot(h.normal, v) == 0 for v in basis))
            keys.add(closure)
    return keys


@pytest.mark.parametrize("rows,dim", [
    ([((1, 0), 0), ((0, 1), 0), ((1, 1), 1)], 2),
    ([((1, 0), 0), ((0, 1), 0), ((1, -1), 0), ((1, 1), 2)], 2),
    ([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 1, 1), 1)], 3),
    ([((1,), 0), ((1,), 1)], 1),
])
def test_flats_against_subset_enumeration(rows, dim):
    arr = make_arrangement(dim, rows)
    poset = intersection_poset(arr)
    assert {f.containing for f in poset.flats} == brute_force_flats(arr)


def point_of(poset, flat):
    """The flat's frame point as Fractions."""
    return frame_as_fractions(poset.frames[flat.containing])[0]


def test_zero_flats(gen3, cen3, mk):
    poset = intersection_poset(gen3)
    points = {point_of(poset, f) for f in zero_flats(poset)}
    assert points == {(0, 0), (0, 1), (1, 0)}
    assert len(zero_flats(intersection_poset(cen3))) == 1
    parallel = mk(2, [((1, 0), 0), ((1, 0), 1)])
    assert zero_flats(intersection_poset(parallel)) == []


def assert_essentialized(arr):
    """essentialize(arr) is essential, in the dimension of the normals'
    span, and its poset has the same containing sets with the same codims."""
    out = essentialize(arr)
    assert out.is_essential and out.d == arr.d
    assert out.dim == rank_dense([h.normal for h in arr.hyperplanes])
    assert [h.offset for h in out.hyperplanes] == [h.offset for h in arr.hyperplanes]

    def codims(a):
        return {c: f.codim for c, f in intersection_poset(a).by_containing.items()}
    assert codims(out) == codims(arr)
    return out


def test_essentialize_identity(cen3):
    assert essentialize(cen3) is cen3
    assert_essentialized(cen3)


def test_essentialize_single_hyperplane_in_plane(mk):
    out = assert_essentialized(mk(2, [((1, 0), 0)]))
    assert out.dim == 1 and out.d == 1
    assert betti_numbers(intersection_poset(out)) == [1, 1]


def test_essentialize_braid3():
    braid = make_arrangement(3, [((1, -1, 0), 0), ((1, 0, -1), 0), ((0, 1, -1), 0)])
    out = assert_essentialized(braid)
    assert out.dim == 2 and out.d == 3
    assert betti_numbers(intersection_poset(out)) == [1, 3, 2]


def test_essentialize_preserves_betti():
    for arr in (make_arrangement(3, [((1, -1, 0), 0), ((1, 0, -1), 0), ((0, 1, -1), 0)]),
                make_arrangement(2, [((1, 0), 0)]),
                # gen3 x C, and two parallel lines in C^2
                make_arrangement(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 1, 0), 1)]),
                make_arrangement(2, [((1, 0), 0), ((1, 0), 1)])):
        ess = assert_essentialized(arr)
        b = betti_numbers(intersection_poset(arr))
        be = betti_numbers(intersection_poset(ess))
        assert b[:len(be)] == be and all(x == 0 for x in b[len(be):])


def test_localize(gen3, cen3):
    poset = intersection_poset(gen3)
    origin = next(f for f in zero_flats(poset) if point_of(poset, f) == (0, 0))
    loc = localize(gen3, origin)
    assert [h.label for h in loc.hyperplanes] == ["H1", "H2"]
    assert loc.is_central
    corner = next(f for f in zero_flats(poset) if point_of(poset, f) == (0, 1))
    assert [h.label for h in localize(gen3, corner).hyperplanes] == ["H1", "H3"]
    cen_poset = intersection_poset(cen3)
    assert localize(cen3, zero_flats(cen_poset)[0]).d == 3


def test_localize_rejects_foreign_flat(gen3, cen3, mk):
    foreign = zero_flats(intersection_poset(cen3))[0]
    with pytest.raises(ArrangementError):
        localize(gen3, foreign)
    # three other lines through another point: an equal flat, not its own
    other = mk(2, [((1, 0), 1), ((0, 1), 1), ((1, 2), 3)])
    twin = zero_flats(intersection_poset(other))[0]
    assert twin == foreign
    with pytest.raises(ArrangementError):
        localize(other, foreign)
    assert localize(other, twin).d == 3


def test_decone_cen3(cen3):
    out = decone(cen3, 2)
    assert out.dim == 1 and out.d == 2
    assert betti_numbers(intersection_poset(out)) == [1, 2]


def test_decone_bool2(bool2):
    out = decone(bool2, 1)
    assert out.dim == 1 and out.d == 1
    assert betti_numbers(intersection_poset(out)) == [1, 1]


def test_decone_rejects_noncentral(gen3):
    with pytest.raises(ArrangementError, match="central"):
        decone(gen3, 0)


def test_decone_cone_identity():
    # (1+t) * poincare(decone) = poincare(cone), for every apex choice
    for arr in (make_arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, -1), 0)]),
                braid_essentialized(4)):
        b = betti_numbers(intersection_poset(arr))
        for i0 in range(arr.d):
            db = betti_numbers(intersection_poset(decone(arr, i0)))
            n = arr.dim
            coned = [0] * (n + 1)
            for k in range(n):
                coned[k] += db[k]
                coned[k + 1] += db[k]
            assert coned == b, f"cone identity fails at apex {i0}"


def test_generic_section_examples(gen3, cen3, a1):
    sec = generic_section(gen3, 1, seed=0)
    assert sec.dim == 1 and sec.d == 3
    assert betti_numbers(intersection_poset(sec)) == [1, 3]
    sec = generic_section(cen3, 1, seed=7)
    assert betti_numbers(intersection_poset(sec)) == [1, 3]
    assert generic_section(a1, 1, seed=3) is a1


def test_generic_section_truncates_betti():
    arr = random_generic(5, 2, seed=11)
    sec = generic_section(arr, 1, seed=4)
    assert betti_numbers(intersection_poset(sec)) == \
        betti_numbers(intersection_poset(arr))[:2]


def test_generic_section_budget_exhaustion(gen3, monkeypatch):
    monkeypatch.setattr(geometry, "SECTION_ATTEMPTS", 0)
    with pytest.raises(GenericityError):
        generic_section(gen3, 1, seed=0)


def test_zaslavsky_evaluations(gen3, cen3):
    for arr, regions, bounded in ((gen3, 7, 1), (cen3, 6, 0)):
        chi = characteristic_polynomial(intersection_poset(arr))
        n = arr.dim
        assert (-1) ** n * evaluate_poly(chi, -1) == regions
        assert (-1) ** n * evaluate_poly(chi, 1) == bounded
        assert geometry.zaslavsky_counts(chi, arr.is_essential) == (regions, bounded)
    # x = 0, y = 0, x + y = 1 in C^3: (-1)^3·χ(1) = -1, but no chamber is bounded
    gen3_x_c = make_arrangement(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 1, 0), 1)])
    chi = characteristic_polynomial(intersection_poset(gen3_x_c))
    assert -evaluate_poly(chi, 1) == -1
    assert geometry.zaslavsky_counts(chi, gen3_x_c.is_essential) == (7, 0)


def test_each_arrangement_builds_its_poset_once(monkeypatch):
    built = []
    build = geometry._build_poset

    def counting(arr):
        built.append(arr)
        return build(arr)

    monkeypatch.setattr(geometry, "_build_poset", counting)
    arr = braid_essentialized(4)
    ctx = VerifyContext(seed=0)
    ctx.register("braid4", arr)
    poset = intersection_poset(arr)
    enumerate_faces(arr)
    sec = generic_section(arr, 2, seed=1)
    assert ctx.poset("braid4") is poset
    assert sum(a is arr for a in built) == 1
    # the section's poset, built to certify it, serves its faces too
    enumerate_faces(sec)
    assert sum(a is sec for a in built) == 1
    # an equal arrangement is another instance, with its own poset
    twin = Arrangement.build(arr.dim, arr.hyperplanes)
    assert twin == arr
    assert intersection_poset(twin) is not poset
    assert sum(a is twin for a in built) == 1


def test_poset_matches_the_pair_solving_oracle():
    # meets are read off each flat's integer rows and each frame is cut
    # from its parent's; the oracle solves every (flat, hyperplane) pair
    # and evaluates every hyperplane
    for arr in oracle_arrangements():
        poset = intersection_poset(arr)
        flats, meet = poset_by_pair_solves(arr)
        assert poset.flats == flats
        assert poset.meet == meet
        assert poset.rows.keys() == poset.frames.keys() == poset.by_containing.keys()
        for key, rows in poset.rows.items():
            flat = poset.by_containing[key]
            # the frame: a primitive point over L > 0 on every hyperplane
            # through the flat, and n - codim independent primitive
            # directions parallel to it, so it spans the flat
            (*point, den), basis = poset.frames[key]
            assert den > 0 and all(type(x) is int for v in (point, *basis) for x in v)
            assert gcd(*point, den) == 1 and all(gcd(*v) == 1 for v in basis)
            assert all(v[-1] == 0 for v in basis)
            p, directions = frame_as_fractions(poset.frames[key])
            assert len(directions) == arr.dim - flat.codim
            assert rank_dense(directions) == len(directions)
            for i in key:
                h = arr.hyperplanes[i]
                assert affine_value(h, p) == 0 and all(dot(h.normal, v) == 0 for v in directions)
            assert rows == flat_rows_by_fractions(arr, p, directions)
            assert len(rows) == arr.d
            for h, (coeffs, const) in zip(arr.hyperplanes, rows):
                row = (*coeffs, const)
                exact = [dot(h.normal, v) for v in directions] + [affine_value(h, p)]
                assert all(type(x) is int for x in row)
                assert len(row) == len(exact)
                assert gcd(*row) == (1 if any(row) else 0)
                # a positive multiple of (a·v_j, a·p - b)
                lead = next((x for x in exact if x), None)
                if lead is None:
                    assert not any(row)
                    continue
                scale = row[exact.index(lead)] / lead
                assert scale > 0
                assert all(r == scale * x for r, x in zip(row, exact))


def test_poset_solves_once_per_flat(monkeypatch):
    # once per flat at most: each frame is cut on ints from its parent's,
    # so building the poset solves for no flat at all
    # (rref is the one dense solver geometry keeps)
    arr = braid_essentialized(5)
    calls = []
    solve = geometry.rref

    def counting(rows, field):
        calls.append(len(rows))
        return solve(rows, field)

    monkeypatch.setattr(geometry, "rref", counting)
    poset = intersection_poset(arr)
    assert len(poset.flats) == 52
    assert calls == []


def plane_section(arr, base, dirs):
    """arr cut on the plane base + span(dirs) as generic_section cuts it,
    or None when the plane is parallel to a hyperplane or two hyperplanes
    cut it in one locus."""
    hyps = [Hyperplane(tuple(dot(h.normal, u) for u in dirs), h.offset - dot(h.normal, base),
                       h.label) for h in arr.hyperplanes]
    if any(not any(h.normal) for h in hyps):
        return None
    try:
        return Arrangement.build(len(dirs), hyps)
    except ArrangementError:
        return None


def decone_by_chart(arr, i0):
    """decone by an inverted chart: T has the unit rows e_j, j != last,
    the last coordinate a0 = H_i0's normal uses, then a0; each normal a,
    linear once the center is at the origin, becomes c = a·T^-1, and the
    hyperplane c[:n-1]·y = -c[n-1] of the chart y_n = a0·x = 1."""
    n, a0 = arr.dim, arr.hyperplanes[i0].normal
    last = max(j for j, x in enumerate(a0) if x)
    t_rows = [[Fraction(int(c == j)) for c in range(n)] for j in range(n) if j != last]
    tinv = mat_inverse(FieldSpec.rationals(), t_rows + [list(a0)])
    hyps = []
    for j, h in enumerate(arr.hyperplanes):
        if j != i0:
            c = [sum(h.normal[k] * tinv[k][i] for k in range(n)) for i in range(n)]
            hyps.append(Hyperplane(tuple(c[:n - 1]), -c[n - 1], h.label))
    return Arrangement.build(n - 1, hyps)


def generic_section_by_plane_section(arr, k, seed):
    """generic_section with each draw cut by plane_section, which checks
    for a zero normal before it builds."""
    n, poset, rng = arr.dim, intersection_poset(arr), random.Random(seed)
    for _ in range(geometry.SECTION_ATTEMPTS):
        base = tuple(Fraction(rng.randint(-10000, 10000)) for _ in range(n))
        dirs = tuple(tuple(Fraction(rng.randint(-10000, 10000)) for _ in range(n))
                     for _ in range(k))
        sec = plane_section(arr, base, dirs) if rank_dense(dirs) == k else None
        if sec is not None and geometry._check_section(poset, intersection_poset(sec), k) is None:
            return sec
    return None


def test_decones_and_sections_match_the_chart_and_plane_oracles():
    # one section map cuts both; the oracles invert a chart and cut each
    # hyperplane on its own, and their files must be the same to the byte
    corpus = [(seed, item.arrangement) for seed in (0, 1, 2)
              for item in generate_corpus(CorpusSpec(seed=seed))]
    # a central arrangement whose center is (1, 2), not the origin
    shifted = make_arrangement(2, [((1, 0), 1), ((0, 1), 2), ((1, 1), 3)])
    arrs = corpus + [(0, braid_essentialized(4)), (0, braid_essentialized(5)), (0, shifted)]
    decones = []
    for seed, arr in arrs:
        if arr.is_central and arr.is_essential and arr.dim >= 2:
            for i0 in range(arr.d):
                deconed = decone(arr, i0)
                assert deconed.to_json() == decone_by_chart(arr, i0).to_json()
                decones.append((seed, deconed))
    sections = 0
    for seed, arr in arrs + decones:
        for k in range(1, arr.dim):
            assert generic_section(arr, k, seed).to_json() == \
                generic_section_by_plane_section(arr, k, seed).to_json()
            sections += 1
    assert (len(decones), sections) == (88, 119)


def test_section_certificate_agrees_with_the_solving_oracle():
    # the certificate compares two posets; the oracle solves each flat on
    # the plane.  Small planes, planes through a vertex and planes along a
    # line flat are often not generic; large random planes almost always are
    rng = random.Random(0)
    arrs = [item.arrangement for seed in (0, 1, 2)
            for item in generate_corpus(CorpusSpec(seed=seed))] + [braid_essentialized(5)]

    def vec(n, size):
        return tuple(Fraction(rng.randint(-size, size)) for _ in range(n))

    planes = rejected = 0
    for arr in arrs:
        n, poset = arr.dim, intersection_poset(arr)
        vertices = [point_of(poset, f) for f in zero_flats(poset)]
        lines = [frame_as_fractions(poset.frames[f.containing])[1][0]
                 for f in poset.of_codim(n - 1)] if n > 1 else []
        for k in range(1, n):
            draws = [(vec(n, 2), [vec(n, 2) for _ in range(k)]) for _ in range(20)]
            draws += [(rng.choice(vertices), [vec(n, 2) for _ in range(k)])
                      for _ in range(20) if vertices]
            draws += [(vec(n, 2), [rng.choice(lines)] + [vec(n, 2) for _ in range(k - 1)])
                      for _ in range(20) if lines]
            draws += [(vec(n, 10000), [vec(n, 10000) for _ in range(k)]) for _ in range(6)]
            for base, dirs in draws:
                sec = plane_section(arr, base, dirs) if rank_dense(dirs) == k else None
                if sec is None:
                    continue
                sec_poset = intersection_poset(sec)
                verdict = geometry._check_section(poset, sec_poset, k)
                oracle = check_section_by_solves(arr, poset, sec_poset, base, dirs, k)
                assert (verdict is None) == (oracle is None), (arr.to_json(), base, dirs)
                planes += 1
                rejected += verdict is not None
    assert planes >= 1000, planes
    assert 100 <= rejected <= planes - 100, rejected


def test_a_dropped_corpus_frees_its_posets_without_the_cyclic_gc():
    # a poset keeps its ambient dimension, not its arrangement, so an
    # arrangement and the poset it caches form no reference cycle
    gc.collect()
    gc.disable()
    try:
        corpus = generate_corpus(CorpusSpec(seed=0))
        posets = []
        for item in corpus:
            build_salvetti(enumerate_faces(item.arrangement))
            posets.append(weakref.ref(intersection_poset(item.arrangement)))
        assert all(ref() is not None for ref in posets)
        del corpus, item
        assert [ref() for ref in posets] == [None] * len(posets)
    finally:
        gc.enable()
