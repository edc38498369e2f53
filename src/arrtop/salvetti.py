"""Salvetti model of a complexified-real arrangement complement.

Cells in degree k are pairs (F, C): a face F of codimension k of the
real arrangement together with a chamber C adjacent to it.  The cell
[F, C] is a copy of the dual cell of F, so its boundary is
∂[F, C] = Σ ε(F, G)·t^neg·[G, G∘C] over the faces G covering F
(Salvetti, Invent. Math. 88, 1987).  G∘C is the chamber adjacent to G
nearest to C, G's sign where nonzero and C's elsewhere; neg is the set
of hyperplanes C crosses from their negative side on its way to G∘C.
With each sign vector packed into int masks plus and minus, G∘C is the
chamber with minus mask minus[G] | (minus[C] & ~(plus[G] | minus[G]))
and neg is minus[C] & plus[G].  ε is one orientation of the face poset,
so the sign depends on the face alone, not on the chamber.  It is fixed
codim by codim by closing all "diamonds" (two-step intervals) over the
signs one codim below.  The boundary lives over Λ = Z[t_1^±1..t_d^±1],
as the chain complex of the universal abelian cover.  The build checks
its cell counts against the poset's (geometry.cell_counts), then gates
the orientation by d∘d = 0 once over Λ (composition only, no ranks).

Every entry ±t^a is a unit of Λ.  So the build then eliminates pairs
of cells joined by a unit entry, Gaussian elimination over Λ (algebraic
Morse theory: Sköldberg, Trans. AMS 358, 2006; Jöllenbeck-Welker, Mem.
AMS 197, 2009), in the full boundary itself, which is not kept.  That
is a chain homotopy equivalence for every abelian local system at once.
The reduced boundary, whose entries are Laurent polynomials, is gated
by d∘d = 0 over Λ too, and by cells_i ≥ b_i(U) in every degree i, b_i
the Whitney numbers of the intersection poset: a reduction that loses a
cycle can keep d² = 0, never that count; when every count is b_i(U) the
complex is minimal, and its boundary must vanish at t = 1.  Every
twisted complex specializes the reduced boundary at commuting monodromy
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
from heapq import heapify, heappop, heappush
from math import lcm
from operator import mul

from .exactla import ChainComplexError, GatedBoundaries, complex_dims, identity_matrix
from .fields import FieldSpec
from .geometry import betti_numbers, cell_counts, intersection_poset
from .localsys import LocalSystem
from .realfaces import FaceComplex


@dataclass
class SalvettiComplex:
    """The Salvetti complex of fc, kept reduced over Λ, with the plan that
    evaluates it: monomial j > 0 is monomial parent times t_i^s, for
    monomials[j - 1] = (parent, g) and (i, s) = generators[g] (monomial 0
    is 1, parents come first, generators in first-use order)."""

    fc: FaceComplex
    cell_counts: list    # cells per degree of the full complex, as the poset predicts
    cells: list          # cells[k]: the positions among those of the cells kept
    boundary: list       # boundary[k][pos] = {target in cells[k - 1]: Laurent polynomial}
    generators: list     # the distinct (i, s), s = ±1
    monomials: list      # (parent, g) per monomial j > 0
    rows: list           # rows[k - 1]: (target, ((pos, ((monomial, coefficient), ...)), ...))


def build_salvetti(fc: FaceComplex) -> SalvettiComplex:
    """The Salvetti complex, kept reduced: the full boundary over Λ, its
    counts checked against the poset's and gated by d² = 0, then reduced in
    place and gated again, by d² = 0 and by reduced cells_i ≥ b_i(U)."""
    arr = fc.arrangement
    poset = intersection_poset(arr)
    boundary = _full_complex(fc)
    counts = [len(layer) for layer in boundary]
    _check_counts(counts, cell_counts(poset), exact=True)     # raises on a missing face
    _verify_over_group_ring(boundary, arr.d)             # raises on a bad orientation
    cells, reduced = _reduce(boundary, arr.d)            # eliminates in boundary itself
    _verify_over_group_ring(reduced, arr.d)              # raises on a bad reduction
    betti = betti_numbers(poset)
    _check_counts([len(layer) for layer in cells], betti, exact=False)
    _check_minimal(reduced, betti)
    return SalvettiComplex(fc, counts, cells, reduced, *_compile(reduced, arr.d))


def _full_complex(fc: FaceComplex):
    """The boundary over Λ on all (face, adjacent chamber) pairs, graded by
    codim and sorted by sign vectors: boundary[k][pos] = {target position:
    {packed exponent: coefficient}}, ∂[F, C] = Σ ε(F, G)·t^neg·[G, G∘C]
    over the faces G covering F (one empty row per chamber in degree 0)."""
    arr = fc.arrangement
    n = arr.dim
    top_codim = max(n - f.dim for f in fc.faces)

    cells = [[] for _ in range(top_codim + 1)]
    for fi, face in enumerate(fc.faces):
        for c in fc.adjacent_chambers(fi):
            cells[n - face.dim].append((fi, c))
    for layer in cells:
        layer.sort(key=lambda s: (fc.faces[s[0]].sign, fc.faces[s[1]].sign))
    index = [{s: i for i, s in enumerate(layer)} for layer in cells]

    eps = _orient(fc)
    one, _ = _packing(arr.d)
    # each sign vector as packed masks: bit _BITS * i set where H_i is + (-)
    plus = [sum(1 << (_BITS * i) for i, s in enumerate(f.sign) if s > 0) for f in fc.faces]
    minus = [sum(1 << (_BITS * i) for i, s in enumerate(f.sign) if s < 0) for f in fc.faces]
    chamber = {minus[c]: c for c in fc.chambers}
    boundary = [[{} for _ in cells[0]]]
    for k in range(1, top_codim + 1):
        layer = []
        for f, c in cells[k]:
            cm = minus[c]
            # [G, G∘C], G∘C G's sign where nonzero and C's elsewhere, times
            # t^neg, neg the hyperplanes where C is - and G is +
            layer.append(dict(sorted(
                (index[k - 1][g, chamber[minus[g] | (cm & ~(plus[g] | minus[g]))]],
                 {one + (cm & plus[g]): s}) for g, s in eps[f].items())))
        boundary.append(layer)
    return boundary


def _orient(fc: FaceComplex):
    """eps[F] = {G: ε(F, G)} over the faces G covering F: one orientation
    of the face poset, ε(F, G)·ε(G, L) + ε(F, G')·ε(G', L) = 0 on every
    interval F < G, G' < L.

    Codim 1: the sign of G on F's one hyperplane.  Higher codims, faces
    in increasing codim: propagate through the diamonds, whose closing
    condition is fixed by the signs one codim down; the covers of F
    bound a sphere (the dual cell of F), so BFS reaches every cover."""
    faces = fc.faces
    n = fc.arrangement.dim
    eps = [None] * len(faces)
    for f in sorted(range(len(faces)), key=lambda f: -faces[f].dim):
        covers = fc.covering(f)
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
                    expected = signs[i] * rel
                    if signs[j] == 0:
                        signs[j] = expected
                        queue.append(j)
                    elif signs[j] != expected:
                        raise RuntimeError("inconsistent signs on a dual cell")
        eps[f] = dict(zip(covers, signs))
    return eps


# An exponent vector e over Λ is packed into one int: hyperplane i owns the
# _BITS-bit field at bit _BITS * i, which holds e_i + _BIAS.  Adding and
# subtracting packed ints then adds and subtracts exponent vectors.  When
# a ± b ± c of three packed exponents in range has a field outside
# [0, 2 * _BIAS), the lowest such field has its top bit set, so `& top`
# catches every exponent that leaves the range.
_BITS = 16
_BIAS = 1 << (_BITS - 2)


def _packing(d):
    """(packed exponent 0, mask of every field's top bit) for d variables."""
    return (sum(_BIAS << (_BITS * i) for i in range(d)),
            sum(1 << (_BITS * i + _BITS - 1) for i in range(d)))


def _out_of_range():
    return ChainComplexError(f"an exponent over Λ left [-{_BIAS}, {_BIAS})")


def _verify_over_group_ring(boundary, d):
    """The d²=0 gate over Λ on boundary[k][pos] = {target: {packed
    exponent: coefficient}}.  On the full boundary it checks the
    orientation; on the reduced one, the reduction's updates."""
    one, top_bits = _packing(d)
    for k in range(2, len(boundary)):
        # each cell of degree k - 1 as its terms (target, exponent, coefficient)
        lower = [[(i, b, e) for i, inner in row.items() for b, e in inner.items()]
                 for row in boundary[k - 1]]
        for j, row in enumerate(boundary[k]):
            acc = {}                 # (packed exponent, target) -> coefficient
            for m, outer in row.items():
                terms = lower[m]
                for a, c in outer.items():
                    a -= one
                    for i, b, e in terms:
                        key = a + b, i
                        acc[key] = acc.get(key, 0) + c * e
            for (key, i), c in acc.items():      # every product is a key here
                if key & top_bits:
                    raise _out_of_range()
                if c:
                    raise ChainComplexError(
                        f"boundary composition nonzero over Λ in degrees "
                        f"{k}->{k - 2} at ({i},{j})")


def _reduce(rows, d):
    """Eliminate unit entries over Λ, degrees top down: a chain homotopy
    equivalence for every abelian local system at once (algebraic Morse
    theory).

    In degree k the next cell σ of degree k - 1 is the one with the fewest
    current coboundary entries (a heap, invalidated lazily); its partner τ
    is its shortest coboundary cell whose entry u at σ is ±t^a.  Every other
    τ' with σ in its boundary becomes d(τ') - c'·u⁻¹·d(τ), c' its entry at
    σ; then τ and σ are dropped, with σ's boundary and τ's column one
    degree up.  Works in place on rows, the full boundary over Λ, in which
    a dropped cell's row becomes None.  Returns (cells, boundary): cells[k]
    the positions in rows[k] of the cells kept, and the reduced boundary
    on them, which reuses the surviving entries."""
    top_bits = _packing(d)[1]
    top = len(rows) - 1
    # cob[k][pos] = the cells of degree k + 1 with cell pos in their boundary
    cob = [[set() for _ in layer] for layer in rows]
    for k in range(1, top + 1):
        for pos, row in enumerate(rows[k]):
            for t in row:
                cob[k - 1][t].add(pos)

    for k in range(top, 0, -1):
        up, down = rows[k], cob[k - 1]
        heap = [(len(users), s) for s, users in enumerate(down)]
        heapify(heap)
        while heap:
            n, s = heappop(heap)
            users = down[s]
            if n != len(users):
                continue
            units = [t for t in users                      # entries ±t^a
                     if len(u := up[t][s]) == 1 and next(iter(u.values())) in (1, -1)]
            if not units:
                continue
            t = min(units, key=lambda t: (len(up[t]), t))
            row = up[t]
            up[t] = None
            ((mu, cu),) = row.pop(s).items()
            for x in row:
                down[x].discard(t)
            users.discard(t)
            for t2 in users:
                row2 = up[t2]
                # -c'·u⁻¹ = -c'·cu·t^(-a); qm + m below is then the packed
                # exponent of the product with a term t^m of d(τ)
                q = [(m - mu, -c * cu) for m, c in row2.pop(s).items()]
                for x, poly in row.items():
                    acc = row2.get(x)
                    if acc is None:
                        acc = row2[x] = {}
                        down[x].add(t2)
                    for qm, qc in q:
                        for m, c in poly.items():
                            key = qm + m
                            if key & top_bits:
                                raise _out_of_range()
                            v = acc.get(key, 0) + qc * c
                            if v:
                                acc[key] = v
                            else:
                                del acc[key]
                    if not acc:
                        del row2[x]
                        down[x].discard(t2)
            users.clear()
            if k > 1:
                for lam in rows[k - 1][s]:
                    cob[k - 2][lam].discard(s)
            rows[k - 1][s] = None
            if k < top:
                for rho in cob[k][t]:
                    del rows[k + 1][rho][t]
                cob[k][t] = set()
            for x in row:
                heappush(heap, (len(down[x]), x))

    kept = [[pos for pos, row in enumerate(layer) if row is not None] for layer in rows]
    new = [{pos: i for i, pos in enumerate(layer)} for layer in kept]
    boundary = [[{} for _ in kept[0]]]
    for k in range(1, top + 1):
        boundary.append([{new[k - 1][t]: poly for t, poly in sorted(rows[k][pos].items())}
                         for pos in kept[k]])
    return kept, boundary


def _check_counts(counts, expected, exact):
    """Raises unless counts[i] == expected[i] (exact) or >= it in every
    degree i, a degree beyond a list counting 0.  A face missing on one
    flat can keep d² = 0, never the poset's count; a reduction that loses
    a cycle, never b_i(U)."""
    for i in range(max(len(counts), len(expected))):
        count, bound = (x[i] if i < len(x) else 0 for x in (counts, expected))
        if count < bound or exact and count != bound:
            raise ChainComplexError(
                f"full complex has {count} cells in degree {i}, the poset predicts {bound}"
                if exact else
                f"reduced complex keeps {count} cells in degree {i}, below b_{i} = {bound}")


def _check_minimal(boundary, betti):
    """A minimal complex, cells_i = b_i(U) in every degree, has zero boundary at t = 1."""
    if [len(layer) for layer in boundary] == betti[:len(boundary)] and any(
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
            # step back along the first variable with a nonzero exponent
            i, f = next((i, f) for i in range(d)
                        if (f := (m >> (_BITS * i)) & mask) != _BIAS)
            s = 1 if f > _BIAS else -1
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
    rank: int
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
    dims = [r * len(layer) for layer in sc.cells]
    return TwistedComplex(system.field, r, dims, [
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
