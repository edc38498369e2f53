"""Salvetti model of a complexified-real arrangement complement.

Cells in degree k are pairs (F, C): a face F of codimension k of the
real arrangement together with a chamber C adjacent to it.  The cell
(G, D) lies on the boundary of (F, C) exactly when G covers F in the
face poset and D is the chamber adjacent to G nearest to C (the
composition G∘C: take G's sign where nonzero, C's sign where G is
zero).  This face relation makes the model a regular CW complex, so
integer incidence signs exist; they are computed degree by degree by
closing all "diamonds" (two-step intervals) over the signs fixed one
degree below.  With each incidence read as sign * t^neg (neg: the
hyperplanes crossed from their negative side) the boundary lives over
Λ = Z[t_1^±1..t_d^±1], as the chain complex of the universal abelian
cover (Salvetti, Invent. Math. 88, 1987), and the build gates the sign
convention by checking d∘d = 0 once over Λ (composition only, no ranks).
Every twisted complex, the untwisted one (t = 1) included, specializes
that boundary at commuting monodromy (LocalSystem refuses any other), a
ring homomorphism, so no per-system check runs; over Q, d² = 0 also
certifies the ranks complex_dims reads off modular lower bounds.

Twisted boundaries: crossing a hyperplane from its negative to its
positive side picks up the meridian monodromy, so a full turn around a
hyperplane accumulates exactly one monodromy factor.  Blocks are
assembled transposed; with that orientation the homology of the
resulting complex computes, in every degree, the cohomology dimensions
of the entrywise-inverse system (for rank one the two coincide up to
the usual inversion).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .exactla import ChainComplexError, FMatrixSparse, GatedBoundaries, complex_dims
from .fields import FieldSpec
from .localsys import LocalSystem, mat_mul, identity_matrix, scalar_system
from .realfaces import FaceComplex


@dataclass(frozen=True)
class SCell:
    face: int            # index into FaceComplex.faces
    chamber: int         # index of an adjacent chamber face
    degree: int          # codim of the face


@dataclass(frozen=True)
class Incidence:
    degree: int          # degree of the source cell
    source: int          # position within degree `degree`
    target: int          # position within degree `degree - 1`
    sign: int
    crossings: frozenset  # hyperplanes separating source and target chambers


@dataclass
class SalvettiComplex:
    fc: FaceComplex
    cells: list          # cells[k] = list of SCell, sorted
    boundary: list       # boundary[k][pos] = list of (target_pos, sign, neg_crossings, crossings)

    @property
    def cell_counts(self):
        return [len(layer) for layer in self.cells]

    @property
    def dim(self):
        return len(self.cells) - 1

    def incidences(self):
        for k in range(1, len(self.cells)):
            for pos, records in enumerate(self.boundary[k]):
                for target, sign, _neg, crossings in records:
                    yield Incidence(k, pos, target, sign, crossings)


def _compose(g_sign, c_sign):
    """Chamber adjacent to G nearest C: G's sign where nonzero, else C's."""
    return tuple(g if g != 0 else c for g, c in zip(g_sign, c_sign))


def build_salvetti(fc: FaceComplex) -> SalvettiComplex:
    """All (face, adjacent chamber) pairs, graded by codim, with a sign
    convention satisfying boundary-squared = 0 over Λ."""
    arr = fc.arrangement
    n = arr.dim
    top_codim = max(n - f.dim for f in fc.faces)

    cells = [[] for _ in range(top_codim + 1)]
    for fi, face in enumerate(fc.faces):
        k = n - face.dim
        for c in fc.adjacent_chambers(fi):
            cells[k].append(SCell(fi, c, k))
    for layer in cells:
        layer.sort(key=lambda s: (fc.faces[s.face].sign, fc.faces[s.chamber].sign))
    index = [{(s.face, s.chamber): i for i, s in enumerate(layer)} for layer in cells]

    boundary = [None] * (top_codim + 1)
    # signs per cell: dict target_pos -> sign, kept per degree for diamonds
    sign_maps = [None] * (top_codim + 1)

    for k in range(1, top_codim + 1):
        layer_boundary = []
        layer_signs = []
        for pos, cell in enumerate(cells[k]):
            face = fc.faces[cell.face]
            csign = fc.faces[cell.chamber].sign
            covers = []
            for g in fc.covering(cell.face):
                dsign = _compose(fc.faces[g].sign, csign)
                target = index[k - 1][(g, fc.index_of(dsign))]
                crossings = frozenset(i for i, (a, b) in enumerate(zip(csign, dsign))
                                      if a != b)
                neg = frozenset(i for i in crossings if csign[i] == -1)
                covers.append((target, g, crossings, neg))
            covers.sort(key=lambda t: (t[0], t[1]))
            signs = _orient(cell, covers, k, sign_maps[k - 1], fc)
            records = [(target, signs[idx], neg, crossings)
                       for idx, (target, _g, crossings, neg) in enumerate(covers)]
            layer_boundary.append(records)
            layer_signs.append({target: sign for target, sign, _n, _c in records})
        boundary[k] = layer_boundary
        sign_maps[k] = layer_signs
    boundary[0] = [[] for _ in cells[0]]

    sc = SalvettiComplex(fc, cells, boundary)
    _verify_over_group_ring(sc)          # raises on a bad convention
    return sc


def _orient(cell, covers, k, prev_signs, fc):
    """Signs for the covers of one cell.

    Degree 1: the cell is a path from its own chamber to the opposite
    one; target minus source.  Higher degrees: propagate through the
    diamonds (pairs of covers over a common codim-2 cell), whose closing
    condition is determined by the signs already fixed one degree down;
    the boundary sphere is connected, so BFS reaches every cover."""
    if k == 1:
        own = fc.faces[cell.chamber].sign
        signs = []
        for _target, g, _crossings, _neg in covers:
            signs.append(-1 if fc.faces[g].sign == own else 1)
        if sorted(signs) != [-1, 1]:
            raise RuntimeError("degree-1 Salvetti cell without two distinct endpoints")
        return signs

    # shared lower cells: lam -> [(cover position, sign of cover -> lam)]
    shared = {}
    for idx, (target, _g, _crossings, _neg) in enumerate(covers):
        for lam, s in prev_signs[target].items():
            shared.setdefault(lam, []).append((idx, s))
    edges = [[] for _ in covers]
    for lam, pair in shared.items():
        if len(pair) != 2:
            raise RuntimeError(
                f"interval between cells is not a diamond ({len(pair)} middle cells)")
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
                    raise RuntimeError("inconsistent incidence signs on a cell boundary")
    return signs


def _verify_over_group_ring(sc: SalvettiComplex):
    """The d²=0 gate over Λ.  A product t^a t^b of two incidences is keyed
    by (a | b, a & b), which fixes each exponent (0, 1 or 2) exactly."""
    for k in range(2, len(sc.cells)):
        for j, records in enumerate(sc.boundary[k]):
            acc = Counter()
            for m, outer, a, _crossings in records:
                for i, inner, b, _crossings in sc.boundary[k - 1][m]:
                    acc[i, a | b, a & b] += outer * inner
            bad = next((key for key, c in acc.items() if c), None)
            if bad is not None:
                raise ChainComplexError(
                    f"boundary composition nonzero over Λ in degrees {k}->{k - 2} "
                    f"at ({bad[0]},{j})")


def boundary_matrices(sc: SalvettiComplex):
    """Boundary matrices over Q (entries +-1), the specialization at t = 1."""
    trivial = scalar_system(FieldSpec.rationals(), [1] * sc.fc.arrangement.d)
    return twisted_complex(sc, trivial).matrices


def untwisted_homology(sc: SalvettiComplex, fieldspec: FieldSpec = None):
    """Homology dims of the untwisted complex over Q (or over F_p)."""
    fieldspec = fieldspec or FieldSpec.rationals()
    tc = twisted_complex(sc, scalar_system(fieldspec, [1] * sc.fc.arrangement.d))
    return complex_dims(GatedBoundaries(tc.matrices), tc.dims, fieldspec).homology


@dataclass
class TwistedComplex:
    field: FieldSpec
    rank: int
    dims: list
    matrices: list


def twisted_complex(sc: SalvettiComplex, system: LocalSystem) -> TwistedComplex:
    """The boundary over Λ specialized at the system's monodromy.

    Each incidence sign * t^neg becomes an r x r block: the sign times the
    transposed product of the monodromies of the hyperplanes in neg, those
    crossed from their negative to their positive side."""
    arr = sc.fc.arrangement
    if system.d != arr.d:
        raise ValueError(f"system has {system.d} matrices, arrangement has {arr.d}")
    field = system.field
    r = system.rank
    ident = identity_matrix(field, r)
    block_cache = {}

    def blocks_for(neg):
        """Nonzero (row, col, value) of the block for +t^neg and for -t^neg."""
        got = block_cache.get(neg)
        if got is None:
            acc = ident
            for i in sorted(neg):
                acc = mat_mul(field, acc, system.monodromy[i])
            block = [(a, b, acc[b][a]) for a in range(r) for b in range(r)
                     if not field.is_zero(acc[b][a])]      # acc transposed
            got = (block, [(a, b, field.neg(v)) for a, b, v in block])
            block_cache[neg] = got
        return got

    counts = sc.cell_counts
    dims = [r * c for c in counts]
    mats = []
    for k in range(1, len(counts)):
        m = FMatrixSparse(dims[k - 1], dims[k])
        entries = m.entries
        for pos, records in enumerate(sc.boundary[k]):
            col = r * pos
            # one record per position: the targets of a cell are distinct faces
            for target, sign, neg, _crossings in records:
                if not 0 <= target < counts[k - 1]:
                    raise IndexError(f"boundary target {target} outside degree {k - 1}")
                row = r * target
                for a, b, v in blocks_for(neg)[sign < 0]:
                    entries[row + a, col + b] = v
        mats.append(m)
    return TwistedComplex(field, r, dims, mats)


def twisted_betti(sc: SalvettiComplex, system: LocalSystem):
    """Twisted Betti numbers: per-degree homology dims of the twisted
    complex, padded to the ambient dimension.

    Convention: these are the cohomology dimensions of the
    entrywise-inverse system.  The verification corpus is closed under
    inversion, so statements quantified over all systems are unaffected.
    """
    tc = twisted_complex(sc, system)
    # no per-system composition check: the build proved d∘d = 0 over Λ
    hom = complex_dims(GatedBoundaries(tc.matrices), tc.dims, tc.field).homology
    n = sc.fc.arrangement.dim
    return hom + [0] * (n + 1 - len(hom))


def euler_characteristic(sc: SalvettiComplex) -> int:
    return sum((-1) ** k * c for k, c in enumerate(sc.cell_counts))
