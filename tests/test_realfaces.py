from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from arrtop import realfaces
from arrtop.geometry import (
    ArrangementError,
    characteristic_polynomial,
    decone,
    evaluate_poly,
    generic_section,
    intersection_poset,
    localize,
    zero_flats,
)
from arrtop.harness import (
    CorpusSpec,
    braid_essentialized,
    generate_corpus,
    random_central,
    random_generic,
)
from arrtop.realfaces import enumerate_faces, region_counts

from conftest import make_arrangement, oracle_arrangements
from face_oracle import (
    adjacent_chambers_by_scan,
    cover_pairs,
    covers_by_scan,
    face_dim,
    faces_by_fractions,
    is_bounded_by_lp,
    is_bounded_by_rays,
    sign_vector_realizable,
)
from poset_oracle import affine_value
import face_oracle


def _with_derived(arr, seed):
    """The arrangement with what `verify` derives from it: its
    localizations at zero flats, its decones and its generic sections."""
    out = [arr] + [localize(arr, flat) for flat in zero_flats(intersection_poset(arr))]
    if arr.is_central and arr.is_essential and arr.dim >= 2:
        out += [decone(arr, i0) for i0 in range(arr.d)]
    return out + [generic_section(arr, k, seed) for k in range(1, arr.dim)]


def _ladder():
    braid5 = braid_essentialized(5)
    return [braid5, random_generic(8, 3, 1), decone(braid5, 0)]


def faces_by_dim(fc):
    out = {}
    for f in fc.faces:
        out[f.dim] = out.get(f.dim, 0) + 1
    return out


def test_a2_faces(a2):
    fc = enumerate_faces(a2)
    assert len(fc.faces) == 5
    assert faces_by_dim(fc) == {0: 2, 1: 3}
    assert len(fc.chambers) == 3


def test_bool2_faces(bool2):
    fc = enumerate_faces(bool2)
    assert len(fc.faces) == 9
    assert faces_by_dim(fc) == {0: 1, 1: 4, 2: 4}


def test_gen3_faces(gen3):
    fc = enumerate_faces(gen3)
    assert len(fc.faces) == 19
    assert faces_by_dim(fc) == {0: 3, 1: 9, 2: 7}
    assert sum((-1) ** f.dim for f in fc.faces) == 1


def test_witnesses_are_exact(gen3, cen3):
    # feasibility runs on integer rows; every witness is the primitive
    # (W, D), D > 0, of a point W/D of Q^n with the face's signs
    corpus = [item.arrangement for item in generate_corpus(CorpusSpec(seed=0))]
    for arr in [gen3, cen3, braid_essentialized(4), braid_essentialized(5)] + corpus:
        fc = enumerate_faces(arr)
        for f in fc.faces:
            *w, den = f.witness
            assert all(type(x) is int for x in f.witness) and den > 0
            assert len(w) == arr.dim and gcd(*f.witness) == 1
            point = tuple(Fraction(x, den) for x in w)
            values = [affine_value(h, point) for h in arr.hyperplanes]
            signs = tuple((x > 0) - (x < 0) for x in values)
            assert signs == f.sign


@pytest.mark.parametrize("seed", [1, 2])
def test_euler_relation_random(seed):
    for arr in (random_generic(4, 2, seed), random_central(4, 3, seed)):
        fc = enumerate_faces(arr)
        assert sum((-1) ** f.dim for f in fc.faces) == (-1) ** arr.dim


@pytest.mark.parametrize("fixture,counts", [
    ("gen3", (7, 1)), ("cen3", (6, 0)), ("a1", (2, 0)), ("a2", (3, 1)),
])
def test_region_counts(fixture, counts, request):
    fc = enumerate_faces(request.getfixturevalue(fixture))
    assert region_counts(fc) == counts


def test_region_counts_match_zaslavsky():
    for arr in (braid_essentialized(4), random_generic(5, 2, seed=3),
                random_central(5, 3, seed=9)):
        chambers, bounded = region_counts(enumerate_faces(arr))
        chi = characteristic_polynomial(intersection_poset(arr))
        n = arr.dim
        assert chambers == (-1) ** n * evaluate_poly(chi, -1)
        assert bounded == (-1) ** n * evaluate_poly(chi, 1)


def test_one_lp_boundedness_matches_the_ray_oracle_on_every_face():
    # the non-essential ones included, where no face is bounded
    arrs = list(oracle_arrangements())
    faces = bounded = 0
    for arr in arrs:
        fc = enumerate_faces(arr)
        for i in range(len(fc.faces)):
            answer = is_bounded_by_lp(fc, i)
            assert answer == is_bounded_by_rays(fc, i), (arr, i)
            bounded += answer
        faces += len(fc.faces)
    assert not all(arr.is_essential for arr in arrs)
    assert (len(arrs), faces) == (263, 6541) and 0 < bounded < faces


def test_bounded_chambers_by_euler_sum_match_the_lp_oracle():
    # on every oracle arrangement, the non-essential ones included, where a
    # chamber's Euler sum can be 1 although it holds a line (a slab in C^3)
    chambers = bounded = 0
    for arr in oracle_arrangements():
        fc = enumerate_faces(arr)
        by_lp = sum(1 for c in fc.chambers if is_bounded_by_lp(fc, c))
        assert region_counts(fc) == (len(fc.chambers), by_lp), arr
        chambers, bounded = chambers + len(fc.chambers), bounded + by_lp
    assert 0 < bounded < chambers
    slab = make_arrangement(3, [((1, 0, 0), 0), ((1, 0, 0), 1)])
    fc = enumerate_faces(slab)
    middle = next(c for c in fc.chambers if fc.faces[c].sign == (1, -1))
    faces = [f for f in range(len(fc.faces)) if middle in fc.adjacent[f]]
    assert sum((-1) ** fc.faces[f].dim for f in faces) == 1
    assert region_counts(fc) == (3, 0)


@pytest.mark.parametrize("rows,dim", [
    ([((1, 0), 0), ((0, 1), 0), ((1, 1), 1)], 2),
    ([((1, 0), 0), ((0, 1), 0), ((1, -1), 0)], 2),
    ([((1, 0), 0), ((1, 0), 1), ((0, 1), 0)], 2),          # parallel pair
    ([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 1, 1), 1)], 3),
])
def test_enumeration_against_3d_oracle(rows, dim):
    arr = make_arrangement(dim, rows)
    fc = enumerate_faces(arr)
    realizable = {sigma for sigma in product((-1, 0, 1), repeat=arr.d)
                  if sign_vector_realizable(arr, sigma) is not None}
    assert {f.sign for f in fc.faces} == realizable


def test_enumeration_against_oracle_random():
    for seed in (5, 6):
        arr = random_generic(4, 2, seed)
        fc = enumerate_faces(arr)
        realizable = {sigma for sigma in product((-1, 0, 1), repeat=arr.d)
                      if sign_vector_realizable(arr, sigma) is not None}
        assert {f.sign for f in fc.faces} == realizable


def test_adjacent_chambers_match_localized_region_count(gen3, cen3):
    # chambers adjacent to F are the chambers of the localization at F
    from arrtop.geometry import Arrangement
    for arr in (gen3, cen3):
        fc = enumerate_faces(arr)
        for i, face in enumerate(fc.faces):
            sub = [arr.hyperplanes[j] for j, s in enumerate(face.sign) if s == 0]
            adjacent = len(fc.adjacent[i])
            if not sub:
                assert adjacent == 1
                continue
            local = Arrangement.build(arr.dim, sub)
            chi = characteristic_polynomial(intersection_poset(local))
            assert adjacent == (-1) ** arr.dim * evaluate_poly(chi, -1)


def test_adjacent_chambers_by_covers_match_the_scan():
    arrs = [item.arrangement for item in generate_corpus(CorpusSpec(seed=0))]
    for arr in arrs + [braid_essentialized(5)]:
        fc = enumerate_faces(arr)
        for i in range(len(fc.faces)):
            assert fc.adjacent[i] == adjacent_chambers_by_scan(fc, i)


def test_dims_and_covers_match_the_rank_and_scan_oracles(a2):
    # dims come from the flats of the poset, covers by lookup over its
    # pairs of flats X ∩ H_i in X, witnesses from integer rows; the
    # oracles take a rank, scan every pair and split in Fraction arithmetic
    slab = make_arrangement(3, [((1, 0, 0), 0), ((1, 0, 0), 1), ((1, 1, 0), 0)])
    assert not slab.is_essential
    # x = 0, x = 1, y = 0: x = 1 misses the flat x = 0, which has no meet with it
    parallel = make_arrangement(2, [((1, 0), 0), ((1, 0), 1), ((0, 1), 0)])
    arrs = _ladder() + [a2, slab, parallel]
    for seed in (0, 1, 2):
        for item in generate_corpus(CorpusSpec(seed=seed)):
            arrs += _with_derived(item.arrangement, seed)
    for arr in arrs:
        fc = enumerate_faces(arr)
        assert fc.faces == faces_by_fractions(arr)
        assert all(type(x) is int for f in fc.faces for x in f.witness)
        assert [f.dim for f in fc.faces] == [face_dim(arr, f.sign) for f in fc.faces]
        assert cover_pairs(fc) == covers_by_scan(fc.faces)


def test_cover_relation_is_zero_relaxation(gen3):
    fc = enumerate_faces(gen3)
    for lo, hi in cover_pairs(fc):
        f, g = fc.faces[lo], fc.faces[hi]
        assert g.dim == f.dim + 1
        assert all(s == 0 or s == t for s, t in zip(f.sign, g.sign))
        assert sum(1 for s in f.sign if s == 0) > sum(1 for s in g.sign if s == 0)


@st.composite
def small_arrangements(draw):
    """Up to 5 hyperplanes in dimension 1-3 with normals in [-2, 2]^n:
    parallel hyperplanes and multiple points are common."""
    n = draw(st.integers(1, 3))
    coords = st.integers(-2, 2)
    rows = draw(st.lists(st.tuples(st.tuples(*[coords] * n), coords), min_size=1, max_size=5))
    try:
        return make_arrangement(n, rows)
    except ArrangementError:        # a zero normal or a repeated hyperplane
        assume(False)


@settings(max_examples=150, deadline=None)
@given(small_arrangements())
def test_faces_and_covers_match_the_oracle_on_random_arrangements(arr):
    fc = enumerate_faces(arr)
    assert fc.faces == faces_by_fractions(arr)
    assert cover_pairs(fc) == covers_by_scan(fc.faces)
    # a face on L has exactly two covers on each flat X with L = X ∩ H_i
    meet = intersection_poset(arr).meet
    zeros = [frozenset(i for i, s in enumerate(f.sign) if s == 0) for f in fc.faces]
    for i, face in enumerate(fc.faces):
        if face.is_chamber:
            continue
        above = {flat for (flat, _), lower in meet.items() if lower == zeros[i]}
        on = [zeros[j] for j in fc.covering[i]]
        assert above and sorted(on, key=sorted) == sorted(list(above) * 2, key=sorted)


def test_a_missing_cover_raises(gen3, monkeypatch):
    # without its LPs the enumeration loses faces that other faces'
    # covers name; the lookup must fail, not drop the pair
    monkeypatch.setattr(realfaces, "feasible_point", lambda *args: None)
    with pytest.raises(RuntimeError, match=r"face \(.*\) on flat \[.*\] has no cover "
                                           r"\(.*\) on flat \[.*\]"):
        enumerate_faces(gen3)


def test_lp_calls_match_the_fraction_enumeration(monkeypatch):
    # the integer walk and segment steps replace no LP and add none
    counts = {"new": 0, "oracle": 0}

    def counting(key, solve):
        def call(*args):
            counts[key] += 1
            return solve(*args)
        return call

    monkeypatch.setattr(realfaces, "feasible_point", counting("new", realfaces.feasible_point))
    monkeypatch.setattr(face_oracle, "feasible_point",
                        counting("oracle", face_oracle.feasible_point))
    for arr in _ladder()[:2]:
        enumerate_faces(arr)
        faces_by_fractions(arr)
    assert counts == {"new": 2012, "oracle": 2012}
