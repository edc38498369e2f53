from fractions import Fraction

import pytest
from conftest import make_arrangement, oracle_arrangements
from dense_rank_oracle import rank_bareiss, transpose
from face_oracle import cover_pairs
from salvetti_oracle import (as_polynomials, boundary_by_sign_tuples, cell_pairs, full_boundary,
                             full_twisted_complex, full_untwisted_homology,
                             full_untwisted_matrices, untwisted_matrices)

from arrtop import exactla, geometry, salvetti
from arrtop.exactla import ChainComplexError, FMatrixSparse, complex_dims, rank
from arrtop.fields import FieldSpec
from arrtop.geometry import (ArrangementError, FlatPoset, betti_numbers, intersection_poset,
                             term_counts)
from arrtop.harness import (
    CorpusSpec,
    braid_essentialized,
    c1_expected_dims,
    generate_corpus,
    random_central,
    random_generic,
)
from arrtop.localsys import LocalSystem, LocalSystemError, build_local_system, scalar_system
from arrtop.realfaces import FaceComplex, enumerate_faces
from arrtop.salvetti import (
    build_salvetti,
    twisted_betti,
    twisted_complex,
    untwisted_homology,
)

Q = FieldSpec.rationals()
F7 = FieldSpec.prime(7)


def complex_for(arr):
    return build_salvetti(enumerate_faces(arr))


@pytest.fixture(scope="module")
def corpus_items():
    return {item.arrangement_id: item for item in generate_corpus(CorpusSpec(seed=0))}


@pytest.fixture(scope="module")
def braid5_faces():
    return enumerate_faces(braid_essentialized(5))


@pytest.mark.parametrize("fixture,counts", [
    ("bool2", [4, 8, 4]),
    ("cen3", [6, 12, 6]),
    ("a2", [3, 4]),
    ("gen3", [7, 18, 12]),
])
def test_cell_counts(fixture, counts, request):
    sc = complex_for(request.getfixturevalue(fixture))
    assert sc.cell_counts == counts


def test_zero_cells_are_chambers(gen3):
    fc = enumerate_faces(gen3)
    sc = build_salvetti(fc)
    assert sc.cell_counts[0] == len(fc.chambers)


def test_euler_alternating_sum(gen3, cen3, a2):
    for arr in (gen3, cen3, a2):
        sc = complex_for(arr)
        b = betti_numbers(intersection_poset(arr))
        chi = sum((-1) ** k * c for k, c in enumerate(sc.cell_counts))
        assert chi == sum((-1) ** i * x for i, x in enumerate(b))


def test_boundary_squares_to_zero_over_z(gen3):
    sc = complex_for(gen3)
    mats = full_untwisted_matrices(sc)
    cols = {}
    for (i, m), w in mats[0].entries.items():
        cols.setdefault(m, []).append((i, w))
    prod = {}
    for (m, j), v in mats[1].entries.items():
        for i, w in cols.get(m, []):
            prod[(i, j)] = prod.get((i, j), 0) + v * w
    assert all(v == 0 for v in prod.values())


def test_orientation_composes_to_zero_on_every_codim2_interval(corpus_items):
    for item in corpus_items.values():
        fc = enumerate_faces(item.arrangement)
        eps = salvetti._orient(fc)
        for f in range(len(fc.faces)):
            assert set(eps[f]) == set(fc.covering[f])
            assert all(s in (-1, 1) for s in eps[f].values())
            total = {}
            for g, s in eps[f].items():
                for lam, t in eps[g].items():
                    total[lam] = total.get(lam, 0) + s * t
            assert all(v == 0 for v in total.values())


def _slab3():
    # two parallel planes and a third plane in C^3: not essential, no vertex
    return make_arrangement(3, [((1, 0, 0), 0), ((1, 0, 0), 1), ((0, 1, 0), 0)])


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(2)], ids=["Q", "F2"])
def test_dual_complex_of_the_face_poset_is_a_point(corpus_items, braid5_faces, field):
    # cells: the faces graded by codim; boundary: ε
    complexes = [enumerate_faces(item.arrangement) for item in corpus_items.values()]
    for fc in complexes + [braid5_faces, enumerate_faces(_slab3())]:
        n = fc.arrangement.dim
        eps = salvetti._orient(fc)
        top = max(n - f.dim for f in fc.faces)
        pos = [{} for _ in range(top + 1)]
        for f, face in enumerate(fc.faces):
            layer = pos[n - face.dim]
            layer[f] = len(layer)
        mats = []
        for k in range(1, top + 1):
            m = FMatrixSparse(len(pos[k - 1]), len(pos[k]))
            for f, j in pos[k].items():
                for g, s in eps[f].items():
                    m.entries[pos[k - 1][g], j] = s % field.p if field.p else s
            mats.append(m)
        counts = [len(layer) for layer in pos]
        assert complex_dims(mats, counts, field).homology == [1] + [0] * top


@pytest.mark.parametrize("fixture", ["bool2", "gen3", "cen3", "slab3"])
def test_boundary_entries_read_off_the_orientation(fixture, request):
    # every entry of (F, C) sits at (G, G∘C), G∘C the chamber adjacent to G
    # nearest to C, with sign ε(F, G) whatever C is, and exponent the
    # hyperplanes C crosses from their negative side: ±(1 + neg), bit i of
    # the mask neg for H_i
    arr = _slab3() if fixture == "slab3" else request.getfixturevalue(fixture)
    sc = complex_for(arr)
    fc = sc.fc
    eps = salvetti._orient(fc)
    boundary = salvetti._full_complex(fc)[0]
    assert [len(layer) for layer in boundary] == sc.cell_counts
    cells = cell_pairs(fc)
    for k in range(1, len(cells)):
        lower = {cell: pos for pos, cell in enumerate(cells[k - 1])}
        for pos, (face, chamber) in enumerate(cells[k]):
            row = boundary[k][pos]
            assert len(row) == len(eps[face])
            c_sign = fc.faces[chamber].sign
            for g, s in eps[face].items():
                dist = {other: sum(a != b for a, b in zip(c_sign, fc.faces[other].sign))
                        for other in fc.adjacent[g]}
                nearest = min(dist, key=dist.get)
                assert sorted(dist.values())[:2] != [dist[nearest]] * 2
                d_sign = fc.faces[nearest].sign
                neg = sum(1 << i for i in range(arr.d) if c_sign[i] == -1 and d_sign[i] == 1)
                assert row[lower[g, nearest]] == s * (1 + neg)


@pytest.mark.parametrize("maker,seed", [
    (lambda s: random_generic(4, 2, s), 21),
    (lambda s: random_generic(4, 3, s), 22),
    (lambda s: random_central(4, 3, s), 23),
])
def test_untwisted_oracle_random(maker, seed):
    arr = maker(seed)
    sc = complex_for(arr)
    assert untwisted_homology(sc) == betti_numbers(intersection_poset(arr))


def test_untwisted_oracle_braid4():
    arr = braid_essentialized(4)
    sc = complex_for(arr)
    assert sc.cell_counts == [24, 72, 72, 24]
    assert untwisted_homology(sc) == [1, 6, 11, 6]
    for p in (2, 3, 7, 101):
        assert untwisted_homology(sc, FieldSpec.prime(p)) == [1, 6, 11, 6]


@pytest.mark.parametrize("arr", [
    make_arrangement(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 1, 0), 1)]),   # gen3 x C
    make_arrangement(2, [((1, 0), 0), ((1, 0), 1)]),                       # x = 0, x = 1
], ids=["gen3xC", "parallel"])
def test_untwisted_homology_pads_to_the_ambient_dimension(arr):
    # a non-essential arrangement has no cells above its top codim; its
    # homology is padded with zeros, as twisted_betti's is
    sc = complex_for(arr)
    assert len(sc.cell_counts) < arr.dim + 1
    for field in (Q, F7):
        assert untwisted_homology(sc, field) == betti_numbers(intersection_poset(arr))


def test_twisted_a1(a1):
    sc = complex_for(a1)
    assert twisted_betti(sc, scalar_system(Q, [2])) == [0, 0]
    assert twisted_betti(sc, scalar_system(Q, [-1])) == [0, 0]
    assert twisted_betti(sc, scalar_system(Q, [1])) == [1, 1]


def test_twisted_a2(a2):
    sc = complex_for(a2)
    assert twisted_betti(sc, scalar_system(Q, [2, 3])) == [0, 1]


def test_twisted_bool2(bool2):
    sc = complex_for(bool2)
    assert twisted_betti(sc, scalar_system(Q, [2, 3])) == [0, 0, 0]


def test_twisted_constant_scales(gen3):
    sc = complex_for(gen3)
    const2 = build_local_system(Q, 2, [[[1, 0], [0, 1]]] * 3)
    assert twisted_betti(sc, const2) == [2, 6, 6]


def test_twisted_cen3_vanishing(cen3):
    sc = complex_for(cen3)
    assert twisted_betti(sc, scalar_system(Q, [2, 2, 2])) == [0, 0, 0]


def test_twisted_cen3_f7(cen3):
    sc = complex_for(cen3)
    assert twisted_betti(sc, scalar_system(F7, [2, 2, 2])) == [0, 1, 1]


def test_twisted_gen3(gen3):
    sc = complex_for(gen3)
    assert twisted_betti(sc, scalar_system(Q, [2, 2, 2])) == [0, 0, 1]


def test_twisted_rejects_mismatched_system(gen3):
    sc = complex_for(gen3)
    with pytest.raises(ValueError, match="3"):
        twisted_betti(sc, scalar_system(Q, [2, 3]))


def test_c1_closed_form_oracle(a2):
    sc = complex_for(a2)
    for scalars in ([2, 3], [2, Fraction(1, 2)], [-1, -1], [1, 5]):
        system = scalar_system(Q, scalars)
        assert twisted_betti(sc, system) == c1_expected_dims(system)
    unipotent = build_local_system(Q, 2, [[[1, 1], [0, 1]]] * 2)
    assert twisted_betti(sc, unipotent) == c1_expected_dims(unipotent)


def test_dual_pair_total_dimension(gen3, cen3):
    systems = [
        scalar_system(Q, [2, 3, 5]),
        scalar_system(F7, [2, 2, 2]),
        build_local_system(Q, 2, [[[1, 1], [0, 1]]] * 3),
        build_local_system(Q, 2, [[[2, 0], [0, 3]], [[5, 0], [0, Fraction(1, 3)]],
                                  [[1, 0], [0, 1]]]),
    ]
    for arr in (gen3, cen3):
        sc = complex_for(arr)
        for system in systems:
            total = sum(twisted_betti(sc, system))
            total_inv = sum(twisted_betti(sc, system.inverse_system()))
            assert total == total_inv


def test_euler_multiplicativity_samples(gen3, cen3):
    for arr in (gen3, cen3):
        sc = complex_for(arr)
        chi = sum((-1) ** i * x
                  for i, x in enumerate(betti_numbers(intersection_poset(arr))))
        for system in (scalar_system(Q, [2, 3, 5]),
                       build_local_system(F7, 2, [[[2, 0], [0, 3]]] * 3)):
            dims = twisted_betti(sc, system)
            assert sum((-1) ** i * x for i, x in enumerate(dims)) == system.rank * chi


def test_cell_count_dominates_twisted_betti(gen3):
    # CW model: b_i(U;L) <= r * c_i in every degree
    sc = complex_for(gen3)
    system = scalar_system(Q, [2, 3, 5])
    dims = twisted_betti(sc, system)
    assert all(d <= system.rank * c for d, c in zip(dims, sc.cell_counts))
    assert all(c >= b for c, b in
               zip(sc.cell_counts, betti_numbers(intersection_poset(gen3))))


def test_boundary_matrix_shapes(cen3):
    sc = complex_for(cen3)
    mats = full_untwisted_matrices(sc)
    assert [(m.nrows, m.ncols) for m in mats] == [(6, 12), (12, 6)]
    assert all(isinstance(m, FMatrixSparse) for m in mats)
    assert all(v in (-1, 1) for m in mats for v in m.entries.values())


def test_boundary_rank_equals_transpose_rank(gen3):
    sc = complex_for(gen3)
    for m in full_untwisted_matrices(sc):
        assert rank(m, Q) == rank(transpose(m), Q)
        assert rank(m, F7) == rank(transpose(m), F7)


def test_build_gate_takes_no_ranks_but_catches_a_bad_sign(gen3, monkeypatch):
    def no_rank(*args):
        raise AssertionError("build_salvetti took a rank")

    monkeypatch.setattr(exactla, "rank", no_rank)
    real_orient = salvetti._orient
    calls, flipped = [], []

    def counted(fc):
        calls.append(fc)
        return real_orient(fc)

    monkeypatch.setattr(salvetti, "_orient", counted)
    assert complex_for(gen3).cell_counts == [7, 18, 12]
    assert len(calls) == 1                # one orientation per build, per face

    def corrupted(fc):
        eps = real_orient(fc)
        # a vertex: its dual cell's boundary then no longer composes to zero
        f = next(f for f, face in enumerate(fc.faces) if face.dim == 0)
        g = next(iter(eps[f]))
        eps[f][g] = -eps[f][g]
        flipped.append((f, g))
        return eps

    monkeypatch.setattr(salvetti, "_orient", corrupted)
    with pytest.raises(ChainComplexError):
        complex_for(gen3)
    assert flipped


def _entry(boundary):
    """(row, target) of the first degree-2 entry with a nonempty neg mask."""
    return next((row, t) for row in boundary[2] for t, w in row.items() if abs(w) > 1)


def _flip_sign(boundary):
    row, t = _entry(boundary)
    row[t] = -row[t]


def _flip_a_mask_bit(boundary):
    row, t = _entry(boundary)
    row[t] = (1 if row[t] > 0 else -1) * (1 + ((abs(row[t]) - 1) ^ 1))


def _move_an_entry(boundary):
    row, t = _entry(boundary)
    row[next(y for y in range(len(boundary[1])) if y not in row)] = row.pop(t)


@pytest.mark.parametrize("name", ["gen3", "braid4"])
@pytest.mark.parametrize("mutate,message", [
    (_flip_sign, "is not ε"),
    (_flip_a_mask_bit, "is not ε"),
    (_move_an_entry, "is not ε"),
    ("ε", "composition nonzero over Λ"),
], ids=["sign", "mask-bit", "target", "orientation"])
def test_the_certificate_refuses_each_mutation_of_the_full_boundary(name, request, monkeypatch,
                                                                    mutate, message):
    # each mutation breaks d∘d = 0 over Λ; the certificate, which never
    # composes, must see it before any Morse round
    arr = braid_essentialized(4) if name == "braid4" else request.getfixturevalue(name)
    real_full, real_orient, mutated = salvetti._full_complex, salvetti._orient, []

    def mutated_full(fc):
        boundary, *layout = real_full(fc)
        if mutate != "ε":
            mutate(boundary)
        mutated.append(boundary)
        return (boundary, *layout)

    def flipped_orient(fc):
        eps = real_orient(fc)
        f = next(f for f, face in enumerate(fc.faces) if face.dim == 0)
        g = next(iter(eps[f]))
        eps[f][g] = -eps[f][g]
        return eps

    monkeypatch.setattr(salvetti, "_full_complex", mutated_full)
    if mutate == "ε":
        monkeypatch.setattr(salvetti, "_orient", flipped_orient)
    monkeypatch.setattr(salvetti, "_match", _raising(AssertionError("a Morse round ran")))
    with pytest.raises(ChainComplexError, match=message):
        build_salvetti(enumerate_faces(arr))
    # the composition the certificate stands for is nonzero too
    (boundary,) = mutated
    with pytest.raises(ChainComplexError, match="composition nonzero"):
        salvetti._verify_over_group_ring(as_polynomials(boundary, arr.d), arr.d)


def _raising(exc):
    def raise_it(*args):
        raise exc
    return raise_it


def test_the_full_boundary_composes_to_zero_over_the_group_ring(braid5_faces):
    # the oracle of the certificate: the composition over every two-step
    # path, which the build no longer takes, on each complex it certifies
    for fc in [enumerate_faces(arr) for arr in oracle_arrangements()] + [braid5_faces]:
        boundary, *layout = salvetti._full_complex(fc)
        salvetti._certify_full(fc, boundary, *layout)
        d = fc.arrangement.d
        salvetti._verify_over_group_ring(as_polynomials(boundary, d), d)


def test_the_certificate_reads_each_entry_once(braid5_faces, monkeypatch):
    # one check per entry, never per two-step path: while it runs, the
    # certificate reads sum(term_counts) entries of the full boundary
    read = [0]

    class CountedRow(dict):
        def items(self):
            read[0] += len(self)
            return super().items()

        def __iter__(self):
            read[0] += len(self)
            return super().__iter__()

        def __getitem__(self, key):
            read[0] += 1
            return super().__getitem__(key)

        def get(self, key, default=None):
            read[0] += 1
            return super().get(key, default)

    real_full, real_cert, certified = salvetti._full_complex, salvetti._certify_full, []

    def counted_full(fc):
        boundary, *layout = real_full(fc)
        return ([boundary[0]] + [[CountedRow(row) for row in layer] for layer in boundary[1:]],
                *layout)

    def counted_cert(*args):
        read[0] = 0
        real_cert(*args)
        certified.append(read[0])

    monkeypatch.setattr(salvetti, "_full_complex", counted_full)
    monkeypatch.setattr(salvetti, "_certify_full", counted_cert)
    build_salvetti(braid5_faces)
    assert certified == [sum(term_counts(intersection_poset(braid5_faces.arrangement)))] \
        == [13440]


def _without_face(fc, i):
    """fc with face i and its covers removed, the other faces renumbered."""
    new = {j: j - (j > i) for j in range(len(fc.faces)) if j != i}
    return FaceComplex(fc.arrangement, fc.faces[:i] + fc.faces[i + 1:],
                       tuple(tuple(new[b] for b in covers if b != i)
                             for a, covers in enumerate(fc.covering) if a != i))


@pytest.mark.parametrize("name", ["gen3", "braid4"])
def test_build_refuses_a_missing_face_by_the_poset_count(name, request, monkeypatch):
    # a missing top-codim face takes its cells and their boundary rows with
    # it and keeps d² = 0; only the count predicted by the poset sees it
    arr = braid_essentialized(4) if name == "braid4" else request.getfixturevalue(name)
    fc = enumerate_faces(arr)
    top = max(arr.dim - face.dim for face in fc.faces)
    i = next(i for i, face in enumerate(fc.faces) if arr.dim - face.dim == top)
    lacking = _without_face(fc, i)
    assert len(lacking.faces) == len(fc.faces) - 1
    assert len(cover_pairs(lacking)) == len(cover_pairs(fc)) - len(fc.covering[i])
    # the certificate and the composition over Λ pass on what is left
    boundary, *layout = salvetti._full_complex(lacking)
    salvetti._certify_full(lacking, boundary, *layout)
    salvetti._verify_over_group_ring(as_polynomials(boundary, arr.d), arr.d)
    gates = []
    monkeypatch.setattr(salvetti, "_certify_full", lambda *args: gates.append(args))
    with pytest.raises(ChainComplexError,
                       match=rf"full complex has \d+ cells in degree {top}, the poset predicts"):
        build_salvetti(lacking)
    assert gates == []                    # refused before the certificate


def test_term_counts_are_the_covers_of_every_cell():
    # one Λ-term per cover of a cell's face, counted on the enumerated
    # faces, against the prediction read off the poset alone
    for arr in oracle_arrangements():
        fc = enumerate_faces(arr)
        covers = [sum(len(fc.covering[face]) for face, _chamber in layer)
                  for layer in cell_pairs(fc)]
        assert term_counts(intersection_poset(arr)) == covers


def test_the_face_order_gives_the_cell_and_target_order_unsorted():
    # faces by (-codim, sign), each face's covers sorted: so each full
    # layer's cells come in (face sign, chamber sign) order and each row's
    # targets increase, with no sort in the build
    for arr in oracle_arrangements():
        fc = enumerate_faces(arr)
        n = arr.dim
        keys = [(face.dim - n, face.sign) for face in fc.faces]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert all(list(covers) == sorted(covers) for covers in fc.covering)
        boundary, cells, *_ = salvetti._full_complex(fc)
        assert cells == cell_pairs(fc)
        for layer in cells:
            signs = [(fc.faces[f].sign, fc.faces[c].sign) for f, c in layer]
            assert all(a < b for a, b in zip(signs, signs[1:]))
        for layer in boundary:
            for row in layer:
                assert all(a < b for a, b in zip(row, list(row)[1:]))


def test_build_refuses_a_term_count_off_the_poset(gen3, monkeypatch):
    predicted = term_counts(intersection_poset(gen3))
    monkeypatch.setattr(salvetti, "term_counts",
                        lambda poset: [c + (k == 2) for k, c in enumerate(predicted)])
    gates = []
    monkeypatch.setattr(salvetti, "_certify_full", lambda *args: gates.append(args))
    with pytest.raises(ChainComplexError, match=rf"full complex has {predicted[2]} Λ-terms "
                                                rf"in degree 2, the poset predicts"):
        build_salvetti(enumerate_faces(gen3))
    assert gates == []


def test_the_size_bound_takes_braid7_and_gen_12_4_and_refuses_braid8(monkeypatch):
    for arr, terms in ((braid_essentialized(6), 230400), (braid_essentialized(7), 4354560),
                       (random_generic(12, 4, 1), 239232)):
        assert sum(term_counts(intersection_poset(arr))) == terms <= salvetti.MAX_TERMS
        salvetti.check_size(arr, "rung")
    # braid8 passes the bound at its first flat, the origin, so its refusal
    # never scans the flats below it
    braid8 = braid_essentialized(8)
    flats = intersection_poset(braid8).flats
    visited, real_sizes = [], FlatPoset.flat_sizes
    monkeypatch.setattr(FlatPoset, "flat_sizes",
                        lambda poset, flat: visited.append(flat) or real_sizes(poset, flat))
    with pytest.raises(ArrangementError, match="braid8: its Salvetti complex has at least "
                                               "10241280 Λ-terms, above the bound of 10000000"):
        salvetti.check_size(braid8, "braid8")
    assert visited == [flats[-1]] and flats[-1].codim == 7


def test_the_size_check_and_the_build_size_each_flat_once(call_counter):
    # check_size's scan and the build's cell and term counts share one
    # per-flat computation, one interval Möbius each, 52 on braid5
    braid5 = braid_essentialized(5)
    flats = intersection_poset(braid5).flats
    intervals = call_counter(geometry, "_mobius")
    salvetti.check_size(braid5, "braid5")
    build_salvetti(enumerate_faces(braid5))
    assert [keys[0] for (keys,) in intervals] == [f.containing for f in reversed(flats)]
    assert len(intervals) == len(flats) == 52


@pytest.mark.parametrize("arr_id,step", [("cen-5-3", 1), ("gen-4-3", 1), ("braid4", 2)])
def test_sparse_q_ranks_match_bareiss_oracle_on_corpus(corpus_items, arr_id, step):
    # dense Bareiss is the oracle for the sparse Q ranks, on the untwisted
    # boundaries and on the full specialization of every sampled system,
    # so the matrices are at full size
    item = corpus_items[arr_id]
    sc = complex_for(item.arrangement)
    for m in full_untwisted_matrices(sc):
        assert rank(m, Q) == rank_bareiss(m)
    systems = [s for _, s in item.systems if s.field.kind == "Q"]
    for system in systems[::step]:
        tc = full_twisted_complex(sc, system)
        assert complex_dims(tc.matrices, tc.dims, Q).ranks == \
            [rank_bareiss(m) for m in tc.matrices]


def test_group_ring_gate_catches_a_monomial_the_integer_check_misses(gen3, monkeypatch):
    real_full, changed = salvetti._full_complex, []

    def dropped_exponent(fc):
        # an entry ±t^neg with neg nonempty becomes ±1
        boundary, *layout = real_full(fc)
        row, target = _entry(boundary)
        row[target] = 1 if row[target] > 0 else -1
        changed.append(boundary)
        return (boundary, *layout)

    monkeypatch.setattr(salvetti, "_full_complex", dropped_exponent)
    with pytest.raises(ChainComplexError, match="is not ε"):
        build_salvetti(enumerate_faces(gen3))
    (boundary,) = changed
    polys = as_polynomials(boundary, gen3.d)
    counts = [len(layer) for layer in boundary]
    exactla.verify_composition(untwisted_matrices(polys, counts), Q)      # t = 1 composes
    with pytest.raises(ChainComplexError):
        salvetti._verify_over_group_ring(polys, gen3.d)


@pytest.mark.parametrize("arr_id", ["braid4", "gen-4-3"])
def test_per_system_composition_oracle_on_corpus(corpus_items, arr_id):
    # the per-system check no longer runs before ranks; it stays the oracle
    item = corpus_items[arr_id]
    sc = complex_for(item.arrangement)
    sample = {}
    for _sys_id, system in item.systems:
        sample.setdefault((system.field, system.rank), []).append(system)
    assert {f.kind for f, _r in sample} == {"Q", "Fp"}
    assert {r for _f, r in sample} == {1, 2, 3}
    for systems in sample.values():
        for system in systems[:2]:
            tc = twisted_complex(sc, system)
            exactla.verify_composition(tc.matrices, tc.field)


def test_noncommuting_system_refused_before_any_rank(gen3, monkeypatch):
    def no_rank(*args):
        raise AssertionError("a rank was taken")

    monkeypatch.setattr(exactla, "rank", no_rank)
    sc = complex_for(gen3)
    shear = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    with pytest.raises(LocalSystemError, match="1 and 2 do not commute"):
        twisted_betti(sc, LocalSystem(Q, 2, (shear, swap, shear)))


def test_gate_runs_once_per_build_and_never_per_system(gen3, monkeypatch):
    gates, checks = [], []
    real_gate, real_check = salvetti._verify_over_group_ring, exactla.verify_composition
    real_cert = salvetti._certify_full
    monkeypatch.setattr(salvetti, "_certify_full",
                        lambda fc, rows, *layout: gates.append((rows, [len(x) for x in rows]))
                        or real_cert(fc, rows, *layout))
    monkeypatch.setattr(salvetti, "_verify_over_group_ring",
                        lambda rows, d: gates.append((rows, [len(layer) for layer in rows]))
                        or real_gate(rows, d))
    monkeypatch.setattr(exactla, "verify_composition",
                        lambda mats, field: checks.append(field) or real_check(mats, field))
    sc = complex_for(gen3)
    # the certificate once on the full boundary, the gate once on the
    # reduced one, which the Morse rounds made in its place
    assert len(gates) == 2 and checks == []
    (full, full_counts), (reduced, reduced_counts) = gates
    assert full is reduced is sc.boundary
    assert full_counts == sc.cell_counts
    assert reduced_counts == [len(layer) for layer in sc.boundary] != full_counts
    twisted_betti(sc, scalar_system(Q, [2, 3, 5]))
    twisted_betti(sc, build_local_system(F7, 2, [[[2, 0], [0, 3]]] * 3))
    untwisted_homology(sc)
    untwisted_homology(sc, F7)
    assert len(gates) == 2 and checks == []
    tc = twisted_complex(sc, scalar_system(Q, [2, 3, 5]))
    complex_dims(tc.matrices, tc.dims, Q)     # a plain list is still checked
    assert checks == [Q]


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(2), F7], ids=["Q", "F2", "F7"])
def test_assembled_entries_are_nonzero_and_reduced(corpus_items, field):
    # entries are written directly, one per position, in the full
    # specialization and in the reduced one: none may be zero, and over
    # F_p every stored residue lies in [1, p); over Q the full oracle
    # stores Fractions, the reduced one ints (scale times the value)
    sc = complex_for(corpus_items["braid4"].arrangement)
    d = sc.fc.arrangement.d
    systems = [build_local_system(field, 2, [[[1, 1], [0, 1]]] * d),
               build_local_system(field, 2, [[[3, 0], [0, 5]]] * d)]
    for system in systems:
        full = full_twisted_complex(sc, system).matrices
        assert all(m.entries for m in full)
        reduced = twisted_complex(sc, system).matrices
        counts = [len(layer) for layer in sc.boundary]
        assert [(m.nrows, m.ncols) for m in reduced] == \
            [(2 * a, 2 * b) for a, b in zip(counts, counts[1:])]
        for mats, q_type in ((full, Fraction), (reduced, int)):
            for m in mats:
                for (i, j), v in m.entries.items():
                    assert 0 <= i < m.nrows and 0 <= j < m.ncols
                    if field.kind == "Q":
                        assert isinstance(v, q_type) and v != 0
                    else:
                        assert isinstance(v, int) and 1 <= v < field.p


def test_boundary_matches_the_sign_tuple_oracle():
    # entries come from packed sign masks and one chamber lookup by its
    # minus mask; the oracle composes sign tuples and looks up the sign
    arrs = list(oracle_arrangements())
    assert any(not arr.is_essential for arr in arrs)
    for arr in arrs:
        sc = complex_for(arr)
        boundary = full_boundary(sc)
        assert boundary == boundary_by_sign_tuples(sc)
        assert all(len(row) == len(sc.fc.covering[face])
                   for layer, rows in zip(cell_pairs(sc.fc), boundary)
                   for (face, _chamber), row in zip(layer, rows))


@pytest.fixture(scope="module")
def corpus_and_braid5_complexes(braid5_faces):
    """The complex of every corpus arrangement at seeds 0-2, and braid5's."""
    arrs = [item.arrangement for seed in (0, 1, 2)
            for item in generate_corpus(CorpusSpec(seed=seed))]
    return [complex_for(arr) for arr in arrs] + [build_salvetti(braid5_faces)]


@pytest.mark.parametrize("p", [None, 2, 3, 7, 101])
def test_untwisted_homology_is_the_full_complex_at_one(corpus_and_braid5_complexes, p):
    # untwisted_homology reads the reduced complex at the constant system;
    # the full complex at t = 1 and the Whitney numbers are its oracles
    field = FieldSpec.prime(p) if p else Q
    for sc in corpus_and_braid5_complexes:
        b = betti_numbers(intersection_poset(sc.fc.arrangement))
        assert untwisted_homology(sc, field) == full_untwisted_homology(sc, field) == b


def test_untwisted_homology_takes_no_twisted_betti(gen3, monkeypatch):
    # the benchmark times each system by twisted_betti; the untwisted
    # check is not a system
    def refused(*args):
        raise AssertionError("untwisted_homology called twisted_betti")

    sc = complex_for(gen3)
    monkeypatch.setattr(salvetti, "twisted_betti", refused)
    assert untwisted_homology(sc) == untwisted_homology(sc, F7) == [1, 3, 3]


def _reachable(root):
    """Every list, dict, tuple and set reachable from root through these
    containers and through the fields of arrtop objects."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += list(obj)
        elif type(obj).__module__.startswith("arrtop."):
            stack += list(vars(obj).values())
    return seen


def test_build_reduces_in_place_and_keeps_no_full_boundary(monkeypatch):
    gated, real_gate, real_cert = [], salvetti._verify_over_group_ring, salvetti._certify_full
    monkeypatch.setattr(salvetti, "_certify_full", lambda fc, rows, *layout:
                        gated.append((rows, list(rows))) or real_cert(fc, rows, *layout))
    monkeypatch.setattr(salvetti, "_verify_over_group_ring",
                        lambda rows, d: gated.append((rows, list(rows))) or real_gate(rows, d))
    matched, rounds = [], []
    real_match, real_morse = salvetti._match, salvetti._morse
    monkeypatch.setattr(salvetti, "_match", lambda rows: matched.append(real_match(rows))
                        or matched[-1])
    monkeypatch.setattr(salvetti, "_morse", lambda rows, *args: real_morse(rows, *args)
                        or rounds.append(list(rows)))
    for arr in (braid_essentialized(4), random_generic(5, 3, 1), _slab3()):
        gated.clear()
        matched.clear()
        rounds.clear()
        sc = complex_for(arr)
        (full, full_layers), (reduced, reduced_layers) = gated
        assert full is reduced is sc.boundary
        assert set(vars(sc)) == {"fc", "cell_counts", "boundary", "generators", "monomials",
                                 "rows"}
        assert all(value is not None for value in vars(sc).values())
        assert [len(layer) for layer in full_layers] == sc.cell_counts
        # the Morse rounds worked in the gated boundary itself: each round
        # put a compact layer in place of every layer, no row None, each
        # target a cell one degree down
        assert matched[-1] == [] and len(rounds) == len(matched) - 1 > 0
        for layers in rounds:
            assert not any(row is None for layer in layers for row in layer)
            assert all(0 <= t < len(layers[k - 1]) for k in range(1, len(layers))
                       for row in layers[k] for t in row)
            assert not any(a is b for a, b in zip(layers, full_layers))
        assert all(a is b for a, b in zip(reduced_layers, rounds[-1]))
        reachable = _reachable(sc)
        assert not any(id(layer) in reachable for layer in full_layers)
        assert not any(id(row) in reachable for layer in full_layers[1:] for row in layer)
