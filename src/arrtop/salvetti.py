"""Salvetti model of a complexified-real arrangement complement.

Cells in degree k are pairs (F, C): a face F of codimension k of the
real arrangement together with a chamber C adjacent to it.  The cell
[F, C] is a copy of the dual cell of F, so its boundary is
∂[F, C] = Σ ε(F, G)·t^neg·[G, G∘C] over the faces G covering F
(Salvetti, Invent. Math. 88, 1987).  G∘C is the chamber adjacent to G
nearest to C, G's sign where nonzero and C's elsewhere; neg is the set
of hyperplanes C crosses from their negative side on its way to G∘C.
With each sign vector as d-bit masks plus and minus (bit i for H_i), G∘C
is the chamber with minus mask minus[G] | (minus[C] & ~(plus[G] | minus[G]))
and neg is minus[C] & plus[G].  ε is one orientation of the face poset,
so the sign depends on the face alone, not on the chamber.  It is fixed
codim by codim by closing all "diamonds" (two-step intervals) over the
signs one codim below.  The boundary lives over Λ = Z[t_1^±1..t_d^±1],
as the chain complex of the universal abelian cover.  The build checks
its cells and Λ-terms per degree against the poset's (geometry's
cell_counts and term_counts), then certifies d∘d = 0 over Λ entry by
entry and face by face, composing no path and taking no rank.

Every entry ±t^neg is a unit of Λ with a 0/1 exponent, stored as one
signed small int ±(1 + neg), so any acyclic matching of the cells at
unit entries is an algebraic Morse matching over Λ (Sköldberg, Trans.
AMS 358, 2006; Jöllenbeck-Welker, Mem. AMS 197, 2009).  The build fixes
one from incidences alone, before any arithmetic, by coreductions
(Mrozek-Batko, Discrete Comput. Geom. 41, 2009): a cell whose only
remaining face sits at a unit entry is paired with that face, and the
lowest remaining cell becomes critical when none is left.  Every pair
then passes a certificate on faces that makes the matching acyclic.
The Morse step computes the boundary of the critical cells only,
renumbered onto them, in place of each full layer.  Its entries are
Laurent polynomials on packed exponents (the first round packs each
distinct unit once), and where one is a unit the same match and Morse
step run again on it, round after round, until no pair is left.  Each
round is a chain homotopy equivalence for every abelian local system at
once.  The reduced boundary is gated by d∘d = 0 over Λ, and by
cells_i ≥ b_i(U) in every degree i, b_i the Whitney numbers of the
intersection poset: a reduction that loses a cycle can keep d² = 0,
never that count; when every count is b_i(U) the complex is minimal,
and its boundary must vanish at t = 1.  Every twisted complex
specializes the reduced boundary at commuting monodromy
(LocalSystem refuses any other), a ring homomorphism, so no per-system
check runs.  The plan, compiled once, lists the distinct generators
t_i^±1, reaches each monomial by one product with one of them and groups
the entries by target row.  A system evaluates each monomial once per
block of its partition; a boundary specializes a row only when the rank
engine pulls it, after compression, never at the pivots one degree
down.  Over Q all is times one positive integer `scale` that clears
every denominator, on Python ints: one nonzero scalar on every boundary
keeps d² = 0 and every rank.  Untwisted homology is the reduced complex
at t = 1.

Twisted boundaries: crossing a hyperplane from its negative to its
positive side picks up the meridian monodromy, so a full turn around a
hyperplane accumulates exactly one monodromy factor.  Blocks are
assembled transposed; with that orientation the homology of the
resulting complex computes, in every degree, the cohomology dimensions
of the entrywise-inverse system (for rank one the two coincide up to
the usual inversion).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from heapq import heappop, heappush
from math import lcm
from operator import mul

from .exactla import ChainComplexError, GatedBoundaries, complex_dims, identity_matrix
from .fields import FieldSpec
from .geometry import ArrangementError, betti_numbers, cell_counts, intersection_poset, term_counts
from .localsys import LocalSystem
from .realfaces import FaceComplex


@dataclass(eq=False)
class SalvettiComplex:
    """The Salvetti complex of fc, kept reduced over Λ, with the plan that
    evaluates it: monomial j > 0 is monomial parent times t_i^s, for
    monomials[j - 1] = (parent, g) and (i, s) = generators[g] (monomial 0
    is 1, parents come first, generators in first-use order).  It hashes
    and compares by identity, so it can key the answers made on it."""

    fc: FaceComplex
    cell_counts: list    # cells per degree of the full complex, as the poset predicts
    boundary: list       # boundary[k][pos] = {target pos in degree k - 1: Laurent polynomial}
    generators: list     # the distinct (i, s), s = ±1
    monomials: list      # (parent, g) per monomial j > 0
    rows: list           # rows[k - 1]: (target, ((pos, ((monomial, coefficient), ...)), ...))


# The largest full boundary, in Λ-terms, that betti and verify build.  A
# build peaks at 101 B per term on braid7 (439 MB; 206 and 253 B on braid6
# and gen-12-4, mostly the interpreter), so 10M terms peak near 1.1 GB.
MAX_TERMS = 10_000_000


def check_size(arr, name):
    """Refuses, before any face is enumerated, an arrangement whose full boundary
    the poset predicts above MAX_TERMS Λ-terms, summed from the top flat down."""
    poset = intersection_poset(arr)
    terms = 0
    for flat in reversed(poset.flats):
        terms += poset.flat_sizes(flat)[1]
        if terms > MAX_TERMS:
            raise ArrangementError(f"{name}: its Salvetti complex has at least {terms} "
                                   f"Λ-terms, above the bound of {MAX_TERMS}")


def build_salvetti(fc: FaceComplex) -> SalvettiComplex:
    """The Salvetti complex, kept reduced: the full boundary over Λ, its
    cells and Λ-terms checked against the poset's and d² = 0 certified;
    then rounds of a coreduction matching, checked, each leaving the Morse
    complex of its critical cells in place, until no pair is left; then
    the gates again, d² = 0 and reduced cells_i ≥ b_i(U)."""
    arr = fc.arrangement
    poset = intersection_poset(arr)
    boundary, *layout = _full_complex(fc)
    counts = [len(layer) for layer in boundary]
    _check_counts(counts, cell_counts(poset))            # raises on a missing face
    _check_counts([sum(map(len, layer)) for layer in boundary], term_counts(poset), "Λ-terms")
    _certify_full(fc, boundary, *layout)                 # raises on a bad entry or orientation
    del layout
    while pairs := _match(boundary):                     # one Morse round, in boundary itself
        _morse(boundary, *_check_matching(boundary, pairs), arr.d)  # raises off its certificate
    _verify_over_group_ring(boundary, arr.d)             # raises on a bad reduction
    _check_reduced(boundary, betti_numbers(poset))
    return SalvettiComplex(fc, counts, boundary, *_compile(boundary, arr.d))


def _full_complex(fc: FaceComplex):
    """(boundary, cells, eps, plus, minus): the boundary over Λ on the (face,
    adjacent chamber) pairs cells[k][pos], graded by codim and, as the face
    order has them, in (face sign, chamber sign) order, boundary[k][pos] =
    {increasing target position: ±(1 + neg)}, ∂[F, C] = Σ ε(F, G)·t^neg·
    [G, G∘C] over the faces G covering F (one empty row per chamber in
    degree 0); plus (minus) masks each face's + (-) hyperplanes."""
    arr = fc.arrangement
    n = arr.dim
    top_codim = max(n - f.dim for f in fc.faces)

    cells = [[] for _ in range(top_codim + 1)]
    for fi, face in enumerate(fc.faces):
        for c in fc.adjacent[fi]:
            cells[n - face.dim].append((fi, c))
    index = [{s: i for i, s in enumerate(layer)} for layer in cells]

    eps = _orient(fc)
    plus = [sum(1 << i for i, s in enumerate(f.sign) if s > 0) for f in fc.faces]
    minus = [sum(1 << i for i, s in enumerate(f.sign) if s < 0) for f in fc.faces]
    chamber = {minus[c]: c for c in fc.chambers}
    boundary = [[{} for _ in cells[0]]]
    for k in range(1, top_codim + 1):
        layer = []
        for f, c in cells[k]:
            cm = minus[c]
            # [G, G∘C], G∘C G's sign where nonzero and C's elsewhere, times
            # t^neg, neg the hyperplanes where C is - and G is +; the covers
            # G come in index order, so the targets increase
            layer.append({index[k - 1][g, chamber[minus[g] | (cm & ~(plus[g] | minus[g]))]]:
                          s * (1 + (cm & plus[g])) for g, s in eps[f].items()})
        boundary.append(layer)
    return boundary, cells, eps, plus, minus


def _certify_full(fc: FaceComplex, boundary, cells, eps, plus, minus):
    """Raises unless d∘d = 0 over Λ, by checks once per face and once per
    entry, never per two-step path.  Per face F: ε is over its covers, and
    every interval F < G, G' < L has two middle faces, with ε(F, G)·ε(G, L)
    + ε(F, G')·ε(G', L) = 0.  Per row [F, C]: one entry per cover G of F,
    of sign ε(F, G), at [G, D] for D = G∘C (G's signs on supp(G), C's off
    it), with neg = minus[C] & plus[D].  Proof: the path F < G < L of
    ∂∂[F, C] lands on [L, L∘(G∘C)] = [L, L∘C], as supp(G) ⊆ supp(L), with
    exponent (minus[C] & plus[G∘C]) + (minus[G∘C] & plus[L∘C]) = minus[C]
    & plus[L]: the first counts the i in supp(G) with C_i = - and G_i =
    L_i = +, the second the i off supp(G) with C_i = - and L_i = +.  So
    the term depends on G only through ε, and each diamond cancels."""
    for f, signs in enumerate(eps):
        if tuple(signs) != fc.covering[f]:
            raise ChainComplexError(f"ε of face {f} is not over its covers")
        paths = {}                   # L -> [ε(F, G)·ε(G, L)] over the middle faces G
        for g, s in signs.items():
            for lam, t in eps[g].items():
                paths.setdefault(lam, []).append(s * t)
        for lam, products in paths.items():
            if len(products) != 2 or sum(products):
                raise ChainComplexError(
                    f"boundary composition nonzero over Λ from face {f} to face {lam}"
                    if len(products) == 2 else f"faces {f} < {lam} are not a diamond")
    for k in range(1, len(boundary)):
        for pos, ((f, c), row) in enumerate(zip(cells[k], boundary[k])):
            signs, cm = eps[f], minus[c]
            if len(row) != len(signs):
                raise ChainComplexError(f"row {pos} in degree {k} misses a cover")
            for t, w in row.items():
                g, dc = cells[k - 1][t]
                s = signs.get(g)
                if (s is None or (w > 0) != (s > 0) or abs(w) != 1 + (cm & plus[dc])
                        or minus[dc] != minus[g] | (cm & ~(plus[g] | minus[g]))):
                    raise ChainComplexError(f"entry ({t},{pos}) in degree {k} is not "
                                            f"ε(F, G)·t^neg at [G, G∘C]")


def _orient(fc: FaceComplex):
    """eps[F] = {G: ε(F, G)} over the faces G covering F: one orientation
    of the face poset, ε(F, G)·ε(G, L) + ε(F, G')·ε(G', L) = 0 on every
    interval F < G, G' < L.

    Codim 1: the sign of G on F's one hyperplane.  Higher codims, faces
    in reversed face order, so in increasing codim: propagate through the
    diamonds, whose closing condition is fixed by the signs one codim down
    (`_certify_full` checks them); the covers of F bound a sphere, so BFS
    reaches every cover."""
    faces = fc.faces
    n = fc.arrangement.dim
    eps = [None] * len(faces)
    for f in reversed(range(len(faces))):
        covers = fc.covering[f]
        if n - faces[f].dim == 1:
            i = faces[f].sign.index(0)
            eps[f] = {g: faces[g].sign[i] for g in covers}
            if sorted(eps[f].values()) != [-1, 1]:
                raise RuntimeError("codim-1 face without a chamber on each side")
            continue

        # shared lower faces: lam -> [(cover position, ε(cover, lam))]
        shared = {}
        for idx, g in enumerate(covers):
            for lam, s in eps[g].items():
                shared.setdefault(lam, []).append((idx, s))
        edges = [[] for _ in covers]
        for lam, pair in shared.items():
            if len(pair) != 2:
                raise RuntimeError(
                    f"interval between faces is not a diamond ({len(pair)} middle faces)")
            (i, si), (j, sj) = pair
            edges[i].append((j, -si * sj))
            edges[j].append((i, -si * sj))

        signs = [0] * len(covers)
        for start in range(len(covers)):
            if signs[start]:
                continue
            signs[start] = 1
            queue = deque([start])
            while queue:
                i = queue.popleft()
                for j, rel in edges[i]:
                    if signs[j] == 0:
                        signs[j] = signs[i] * rel
                        queue.append(j)
        eps[f] = dict(zip(covers, signs))
    return eps


# An exponent vector e over Λ is packed into one int in the reduced
# boundary: hyperplane i owns the _BITS-bit field at bit _BITS * i, which
# holds e_i + _BIAS.  Adding and subtracting packed ints then adds and
# subtracts exponent vectors.  When a ± b ± c of three packed exponents in
# range has a field outside [0, 2 * _BIAS), the lowest such field has its
# top bit set, so `& top` catches every exponent that leaves the range.
_BITS = 16
_BIAS = 1 << (_BITS - 2)


def _packing(d):
    """(packed exponent 0, mask of every field's top bit) for d variables."""
    return (sum(_BIAS << (_BITS * i) for i in range(d)),
            sum(1 << (_BITS * i + _BITS - 1) for i in range(d)))


def _out_of_range():
    return ChainComplexError(f"an exponent over Λ left [-{_BIAS}, {_BIAS})")


def _is_unit(entry):
    """Whether an entry is a unit ±t^a of Λ: a full-boundary int or {a: ±1}."""
    return type(entry) is int or len(entry) == 1 and next(iter(entry.values())) in (1, -1)


def _verify_over_group_ring(boundary, d):
    """The d²=0 gate over Λ on the reduced boundary: it checks the Morse rounds."""
    one, top_bits = _packing(d)
    for k in range(2, len(boundary)):
        lower = [[(i, b, e) for i, poly in row.items() for b, e in poly.items()]
                 for row in boundary[k - 1]]
        for j, row in enumerate(boundary[k]):
            acc = {}                 # (packed exponent, target) -> coefficient
            for m, poly in row.items():
                for a, c in poly.items():
                    a -= one
                    for i, b, e in lower[m]:
                        key = a + b, i
                        acc[key] = acc.get(key, 0) + c * e
            for (key, i), c in acc.items():      # every product is a key here
                if key & top_bits:
                    raise _out_of_range()
                if c:
                    raise ChainComplexError(
                        f"boundary composition nonzero over Λ in degrees "
                        f"{k}->{k - 2} at ({i},{j})")


def _match(rows):
    """Coreduction pairs of the complex in rows: (k, σ, τ) per pair, σ of
    degree k - 1 in ∂τ, last-coreduced first.  A remaining cell τ whose
    only remaining face σ sits at a unit entry ±t^a is paired with σ, a
    coreduction (Mrozek-Batko, Discrete Comput. Geom. 41, 2009); when none
    is left, the remaining cell of lowest degree, first in its layer,
    becomes critical.  Either way the cells leave, which frees cofaces."""
    cob = [[[] for _ in layer] for layer in rows]
    for k in range(1, len(rows)):
        for pos, row in enumerate(rows[k]):
            for s in row:
                cob[k - 1][s].append(pos)
    # remaining faces per remaining cell, -1 once it is gone
    left = [[len(row) for row in layer] for layer in rows]
    free = deque((k, t) for k, layer in enumerate(left) for t, n in enumerate(layer) if n == 1)
    pairs = []

    def remove(k, pos):
        left[k][pos] = -1
        for t in cob[k][pos] if k + 1 < len(rows) else ():
            if left[k + 1][t] > 0:
                left[k + 1][t] -= 1
                if left[k + 1][t] == 1:
                    free.append((k + 1, t))

    for k, layer in enumerate(left):
        for pos in range(len(layer)):
            while free:
                j, t = free.popleft()
                if left[j][t] == 1:
                    row = rows[j][t]
                    s = next(s for s in row if left[j - 1][s] >= 0)
                    if _is_unit(row[s]):
                        pairs.append((j, s, t))
                        remove(j, t)
                        remove(j - 1, s)
            if layer[pos] >= 0:
                remove(k, pos)                  # critical
    pairs.reverse()
    return pairs


def _check_matching(rows, pairs):
    """(order, up) of a matching, raising unless it is one, at unit entries
    and acyclic: order[k][pos] the index of the cell's pair, or ~j for the
    j-th critical cell of its layer, and up[k] {σ: τ} over the cells
    matched upwards.  The certificate, on faces: every upward-matched face
    σ' ≠ σ of τ lies in a later pair, as coreduction leaves it.  A
    gradient path σ → τ → σ' → τ' has σ' such a face of τ, so the pairs it
    visits come strictly later: it cannot close."""
    order = [[-1] * len(layer) for layer in rows]
    up = [{} for _ in rows]
    for i, (k, s, t) in enumerate(pairs):
        row = rows[k][t]
        if order[k - 1][s] >= 0 or order[k][t] >= 0 or s not in row:
            raise ChainComplexError(f"pair {i} is not an edge of a matching")
        if not _is_unit(row[s]):
            raise ChainComplexError(f"pair {i} sits at an entry that is not a unit")
        order[k - 1][s] = order[k][t] = i
        up[k - 1][s] = t
    for i, (k, s, t) in enumerate(pairs):
        for y in rows[k][t]:
            if y != s and y in up[k - 1] and order[k - 1][y] < i:
                raise ChainComplexError(f"face {y} of cell {t} in degree {k} is matched "
                                        f"up in an earlier pair")
    for layer in order:
        for j, pos in enumerate([pos for pos, i in enumerate(layer) if i < 0]):
            layer[pos] = ~j
    return order, up


def _morse(rows, order, up, d):
    """The Morse complex of the critical cells (Sköldberg), in place in
    rows: each layer becomes the list of its critical rows, in position
    order, each {critical target j one degree down: Laurent polynomial},
    as order numbers them.  Layers go top down, each replaced as soon as
    its rows are done.  An entry is a full-boundary unit ±(1 + neg) or a
    Laurent polynomial, so the step runs on its own output again.

    A critical row eliminates its matched-up cells σ in pair order: with
    u = [∂τ : σ] it adds -c·u⁻¹·∂τ for its coefficient c at σ, ∂τ the row
    of τ, never updated; by the certificate the σ' this brings in come
    later.  The result sums the gradient paths to critical cells.  A path
    that reaches a downward-matched cell ends there, since no pair
    eliminates it, so those columns are dropped before any product: the
    pruning is exact."""
    one, top_bits = _packing(d)

    @cache
    def packed(neg):                 # a full-boundary mask's exponent, once per mask
        return one + sum(1 << (_BITS * i) for i in range(d) if neg >> i & 1)

    def monomials(w):
        return w.items() if type(w) is dict else ((packed(abs(w) - 1), 1 if w > 0 else -1),)

    for k in range(len(rows) - 1, -1, -1):
        layer, here = rows[k], order[k]
        below, ups = (order[k - 1], up[k - 1]) if k else ((), {})

        def kept(row, skip):
            # (target, packed exponent, coefficient) per term not matched down
            return [(y, b, c) for y, w in row.items() if y != skip and (below[y] < 0 or y in ups)
                    for b, c in monomials(w)]

        flows = {}                 # σ -> (packed a, sign of u, the kept terms of ∂τ but σ)
        for s, t in ups.items():
            ((a, cu),) = monomials(layer[t][s])
            flows[s] = a, cu, kept(layer[t], s)
        critical = []
        for c, row in enumerate(layer):
            if here[c] >= 0:
                continue
            acc, heap = {}, []
            q, terms = [(0, 1)], kept(row, None)
            while True:
                for y, b, cw in terms:
                    poly = acc.get(y)
                    if poly is None:
                        poly = acc[y] = {}
                        if below[y] >= 0:
                            heappush(heap, (below[y], y))
                    for qm, qc in q:
                        key = qm + b
                        if key & top_bits:
                            raise _out_of_range()
                        v = poly.get(key, 0) + qc * cw
                        if v:
                            poly[key] = v
                        else:
                            del poly[key]
                if not heap:
                    break
                s = heappop(heap)[1]
                a, cu, terms = flows[s]
                q = [(m - a, -cu * v) for m, v in acc.pop(s).items()]
            critical.append({~below[y]: poly for y, poly in sorted(acc.items()) if poly})
        rows[k] = critical


def _check_counts(counts, expected, what="cells"):
    """Raises unless counts[i] == expected[i] in every degree i, a degree
    beyond a list counting 0: a face missing on one flat can keep d² = 0,
    never the poset's count."""
    for i in range(max(len(counts), len(expected))):
        count, bound = (x[i] if i < len(x) else 0 for x in (counts, expected))
        if count != bound:
            raise ChainComplexError(
                f"full complex has {count} {what} in degree {i}, the poset predicts {bound}")


def _check_reduced(boundary, betti):
    """Raises unless the reduced complex keeps cells_i >= b_i(U) in every
    degree i (a reduction that loses a cycle can keep d² = 0, never that
    count) and, when minimal, cells_i = b_i(U) in every degree, has zero
    boundary at t = 1."""
    counts = [len(layer) for layer in boundary]
    for i, bound in enumerate(betti):
        if (count := counts[i] if i < len(counts) else 0) < bound:
            raise ChainComplexError(
                f"reduced complex keeps {count} cells in degree {i}, below b_{i} = {bound}")
    if counts == betti[:len(boundary)] and any(
            sum(poly.values()) for layer in boundary for row in layer for poly in row.values()):
        raise ChainComplexError("a minimal reduced complex has a nonzero boundary at t = 1")


def _compile(boundary, d):
    """(generators, monomials, rows): the evaluation plan of the reduced
    boundary, its entries grouped by target row."""
    one, _ = _packing(d)
    mask = (1 << _BITS) - 1
    index, gen_index = {one: 0}, {}
    generators, monomials = [], []

    def monomial(m):
        chain = []
        while m not in index:
            # step back along a variable with a nonzero exponent: the first
            # that reaches a monomial already made, else the first
            steps = [(i, 1 if f > _BIAS else -1) for i in range(d)
                     if (f := (m >> (_BITS * i)) & mask) != _BIAS]
            i, s = next(((i, s) for i, s in steps if m - (s << (_BITS * i)) in index),
                        steps[0])
            chain.append((m, i, s))
            m -= s << (_BITS * i)
        j = index[m]
        for m, i, s in reversed(chain):
            g = gen_index.get((i, s))
            if g is None:
                g = gen_index[i, s] = len(generators)
                generators.append((i, s))
            monomials.append((j, g))
            j = index[m] = len(monomials)
        return j

    rows = [{} for _ in boundary[1:]]
    for by_target, layer in zip(rows, boundary[1:]):
        for pos, row in enumerate(layer):
            for t, poly in row.items():
                by_target.setdefault(t, []).append(
                    (pos, tuple((monomial(m), c) for m, c in sorted(poly.items()))))
    return generators, monomials, [sorted(by_target.items()) for by_target in rows]


def _padded_homology(sc: SalvettiComplex, tc: TwistedComplex):
    """Homology dims of a specialization of sc's reduced boundary, which
    the build gated (no composition check here: it proved d∘d = 0 over Λ),
    padded to the ambient dimension: a non-essential arrangement has no
    cells above its top codim."""
    hom = complex_dims(GatedBoundaries(tc.matrices), tc.dims, tc.field).homology
    return hom + [0] * (sc.fc.arrangement.dim + 1 - len(hom))


def untwisted_homology(sc: SalvettiComplex, fieldspec: FieldSpec = None):
    """Homology dims of U over Q (or over F_p), padded to the ambient
    dimension: the reduced complex at the constant rank-1 system, t = 1."""
    field = fieldspec or FieldSpec.rationals()
    constant = LocalSystem(field, 1, (identity_matrix(field, 1),) * sc.fc.arrangement.d)
    return _padded_homology(sc, twisted_complex(sc, constant))


@dataclass(slots=True)
class TwistedBoundary:
    """`scale` times C_k -> C_{k-1} of a specialization: the plan's rows[k - 1]
    and (a, [(b, vals), ...]) per row a of the system's blocks, vals[j] entry
    (a, b) of monomial j.  rows(drop, fieldspec), pulled by exactla.rank after
    compression, specializes only the rows not in `drop`, in the system's own
    field; `entries` materializes every row, for the oracles and tests."""

    nrows: int
    ncols: int
    plan: list
    blocks: list
    r: int
    p: int | None

    @property
    def entries(self):
        return {(i, j): v for i, row in self.rows(()).items() for j, v in row.items()}

    def rows(self, drop, fieldspec=None):
        r, p, out = self.r, self.p, {}
        for a, channels in self.blocks:
            for t, entries in self.plan:
                if (i := r * t + a) in drop:
                    continue
                row = {}
                for b, vals in channels:
                    for pos, terms in entries:
                        v = 0
                        for j, c in terms:
                            v += c * vals[j]
                        if v := v % p if p else v:
                            row[r * pos + b] = v
                if row:
                    out[i] = row
        return out


@dataclass(slots=True)
class TwistedComplex:
    """matrices[k - 1], a TwistedBoundary, is `scale` times the boundary
    C_k -> C_{k-1} of the specialization; scale is a positive integer, 1 over F_p."""

    field: FieldSpec
    dims: list
    matrices: list
    scale: int = 1


def _chain(monomials, gen, p):
    """Per monomial j, the product of gen[g] along its chain (monomial 0
    is 1, monomial j its parent times gen[g]), mod p unless p is None."""
    vals = [1]
    append = vals.append
    if p:
        for parent, g in monomials:
            append(vals[parent] * gen[g] % p)
    else:
        for parent, g in monomials:
            append(vals[parent] * gen[g])
    return vals


def twisted_complex(sc: SalvettiComplex, system: LocalSystem) -> TwistedComplex:
    """The reduced boundary over Λ specialized at the system's monodromy.

    Each entry, a Laurent polynomial, becomes an r x r block: its value at
    the monodromy matrices (inverse monodromy for negative exponents),
    transposed.  That is zero off the blocks of system.partition, and each
    block evaluates every monomial here from its own generator values
    alone, as one product of an earlier one and one generator, on Python
    ints, mod p over F_p.  A block of size one reads the scalars
    M_i^±1[a][a] (over Q their numerators, and their denominators for the
    monomials'); a larger one the s x s sub-blocks, over Q each times the
    lcm D of its denominators, kept transposed and flat (a product entry is
    a row times a column).  Entries are specialized later, row by row, on
    demand after compression, by each TwistedBoundary.  Over Q every
    matrix is `scale` times the specialization, scale the lcm of every
    block's monomial denominators: one positive scalar on every boundary
    keeps d² = 0 (GatedBoundaries) and every rank, whichever common
    multiple it is."""
    d = sc.fc.arrangement.d
    if system.d != d:
        raise ValueError(f"system has {system.d} matrices, arrangement has {d}")
    r, p, monomials = system.rank, system.field.p, sc.monomials
    mons, invs = system.monodromy, system.inverse
    blocks, evaluated = [], []      # evaluated, over Q: (value lists, monomial denominators)
    for block in system.partition:
        if len(block) == 1:
            (a,) = block
            gen = [(mons if sign > 0 else invs)[i][a][a] for i, sign in sc.generators]
            if p:
                vals = _chain(monomials, gen, p)
            else:
                vals = _chain(monomials, [x.numerator for x in gen], None)
                gen_dens = [x.denominator for x in gen]
                evaluated.append(([vals], _chain(monomials, gen_dens, None)
                                  if any(den != 1 for den in gen_dens) else None))
            blocks.append((a, [(a, vals)]))
            continue
        s, dens = len(block), None
        # cols[g][x]: column block[x] of generator g on the block's rows
        cols = [[[m[y][x] for y in block] for x in block]
                for m in ((mons if sign > 0 else invs)[i] for i, sign in sc.generators)]
        if not p:
            gen_dens = [lcm(*(v.denominator for col in g for v in col)) for g in cols]
            cols = [[[v.numerator * (den // v.denominator) for v in col] for col in g]
                    for g, den in zip(cols, gen_dens)]
            if any(den != 1 for den in gen_dens):
                dens = _chain(monomials, gen_dens, None)
        # vals[j][x * s + y] is entry (y, x) of monomial j on the block
        vals = [[int(x == y) for x in range(s) for y in range(s)]]
        for parent, g in monomials:
            rows = [vals[parent][y::s] for y in range(s)]
            out = [sum(map(mul, row, col)) for col in cols[g] for row in rows]
            vals.append([v % p for v in out] if p else out)
        channels = [[vs[x * s + y] for vs in vals] for x in range(s) for y in range(s)]
        blocks += [(a, [(b, channels[x * s + y]) for y, b in enumerate(block)])
                   for x, a in enumerate(block)]
        if not p:
            evaluated.append((channels, dens))
    scale = lcm(*(lcm(*dens) for _, dens in evaluated if dens))
    if scale > 1:
        for channels, dens in evaluated:
            factors = [scale // den for den in dens] if dens else [scale] * len(channels[0])
            for vals in channels:
                vals[:] = map(mul, vals, factors)
    dims = [r * len(layer) for layer in sc.boundary]
    return TwistedComplex(system.field, dims, [
        TwistedBoundary(nrows, ncols, plan, blocks, r, p)
        for nrows, ncols, plan in zip(dims, dims[1:], sc.rows)], scale)


def twisted_betti(sc: SalvettiComplex, system: LocalSystem):
    """Twisted Betti numbers: per-degree homology dims of the twisted
    complex, padded to the ambient dimension.

    Convention: the cohomology dimensions of the inverse system, which are
    L's own: arrtop's equations are rational, so complex conjugation is a
    homeomorphism of U acting by -1 on H_1(U); it carries commuting L to
    L.inverse_system(), so b_i(U; L) = b_i(U; L^-1) (Dimca 2017)."""
    return _padded_homology(sc, twisted_complex(sc, system))
