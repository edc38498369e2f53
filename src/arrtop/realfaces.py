"""Face poset of a real arrangement: sign vectors, chambers, covers.

Every face is stored with an exact rational witness in its relative
interior, so adjacency and boundedness queries are certified rather
than inferred.  Enumeration is incremental: hyperplanes are inserted
one at a time and each existing face is split against the new
hyperplane; a single exact feasibility call per split decides whether
the face meets the hyperplane, and the two open sides get witnesses by
exact segment arithmetic.  A 3^d brute force over sign vectors is the
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .exactla import dot, nullspace, rank_dense
from .feasibility import feasible_point
from .geometry import Arrangement


@dataclass(frozen=True)
class Face:
    sign: tuple          # entries in {-1, 0, +1}, one per hyperplane
    dim: int
    witness: tuple

    @property
    def is_chamber(self) -> bool:
        return 0 not in self.sign


@dataclass
class FaceComplex:
    arrangement: Arrangement
    faces: tuple
    covers: tuple        # pairs (i, j): faces[i] is covered by faces[j]

    def __post_init__(self):
        self._by_sign = {f.sign: i for i, f in enumerate(self.faces)}
        self._chambers = tuple(i for i, f in enumerate(self.faces) if f.is_chamber)
        up = [[] for _ in self.faces]
        for lo, hi in self.covers:
            up[lo].append(hi)
        self._covering = tuple(tuple(sorted(lst)) for lst in up)

    @property
    def chambers(self):
        return self._chambers

    def index_of(self, sign) -> int:
        return self._by_sign[tuple(sign)]

    def covering(self, face_index: int):
        """Indices of the faces covering the given face (dimension +1)."""
        return self._covering[face_index]

    def adjacent_chambers(self, face_index: int):
        """Chambers whose closure contains the face, in index order."""
        return self._adjacent[face_index]

    @cached_property
    def _adjacent(self):
        """Top down: a chamber's set is itself, any other face's is the
        union of its covers' sets."""
        adj = [None] * len(self.faces)
        for f in sorted(range(len(self.faces)), key=lambda f: -self.faces[f].dim):
            adj[f] = (f,) if self.faces[f].is_chamber else \
                tuple(sorted(set().union(*(adj[g] for g in self._covering[f]))))
        return adj


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _face_dim(arr, sigma) -> int:
    zero_normals = [arr.hyperplanes[i].normal for i, s in enumerate(sigma) if s == 0]
    return arr.dim - rank_dense(zero_normals) if zero_normals else arr.dim


def enumerate_faces(arr: Arrangement) -> FaceComplex:
    """Every realizable sign vector, with witness, dimension and covers."""
    n = arr.dim
    origin = tuple(Fraction(0) for _ in range(n))
    faces = [((), origin)]
    for k, h in enumerate(arr.hyperplanes):
        split = []
        for sigma, w in faces:
            sw = _sign(h.eval(w))
            zero_normals = [list(arr.hyperplanes[i].normal)
                            for i, s in enumerate(sigma) if s == 0]
            # constant on the face's flat: the sign at the witness is the
            # sign everywhere, and the face is not split
            if zero_normals and rank_dense(zero_normals + [list(h.normal)]) == \
                    rank_dense(zero_normals):
                split.append((sigma + (sw,), w))
                continue
            strict = [(i, arr.hyperplanes[i]) for i, s in enumerate(sigma) if s != 0]
            if sw == 0:
                # h vanishes at the witness but not on the flat: all three
                # sides are realized; walk along a flat direction
                split.append((sigma + (0,), w))
                dirs = nullspace(zero_normals, n)
                v = next(v for v in dirs if dot(h.normal, v) != 0)
                t = Fraction(1)
                for i, hp in strict:
                    move = dot(hp.normal, v)
                    if move != 0:
                        t = min(t, sigma[i] * hp.eval(w) / (2 * abs(move)))
                for eps in (t, -t):
                    pt = tuple(x + eps * y for x, y in zip(w, v))
                    split.append((sigma + (_sign(h.eval(pt)),), pt))
            else:
                split.append((sigma + (sw,), w))
                zero_w = _zero_side_witness(arr, sigma, k, n)
                if zero_w is not None:
                    split.append((sigma + (0,), zero_w))
                    # step past zero_w along the segment from w; each strict
                    # value moves affinely, g(delta) = gz + delta*(gz - gw)
                    delta = Fraction(1)
                    for i, hp in strict:
                        gw = sigma[i] * hp.eval(w)
                        gz = sigma[i] * hp.eval(zero_w)
                        if gw > gz:
                            delta = min(delta, gz / (2 * (gw - gz)))
                    far = tuple(z + delta * (z - x) for x, z in zip(w, zero_w))
                    split.append((sigma + (-sw,), far))
        faces = split

    built = []
    for sigma, w in faces:
        built.append(Face(sigma, _face_dim(arr, sigma), w))
    built.sort(key=lambda f: (f.dim, f.sign))
    covers = []
    for i, lo in enumerate(built):
        for j, hi in enumerate(built):
            if hi.dim == lo.dim + 1 and all(s == 0 or s == t for s, t in zip(lo.sign, hi.sign)):
                covers.append((i, j))
    return FaceComplex(arr, tuple(built), tuple(covers))


def _zero_side_witness(arr, sigma, k, n):
    h = arr.hyperplanes[k]
    eqs = [(arr.hyperplanes[i].normal, arr.hyperplanes[i].offset)
           for i, s in enumerate(sigma) if s == 0]
    eqs.append((h.normal, h.offset))
    ineqs = [([s * x for x in arr.hyperplanes[i].normal], s * arr.hyperplanes[i].offset, True)
             for i, s in enumerate(sigma) if s != 0]
    w = feasible_point(eqs, ineqs, n)
    return None if w is None else tuple(w)


def is_bounded(fc: FaceComplex, face_index: int) -> bool:
    """Whether the face is bounded: its recession cone is {0}."""
    arr = fc.arrangement
    sigma = fc.faces[face_index].sign
    n = arr.dim
    eqs = [(arr.hyperplanes[i].normal, Fraction(0)) for i, s in enumerate(sigma) if s == 0]
    base = [([s * x for x in arr.hyperplanes[i].normal], Fraction(0), False)
            for i, s in enumerate(sigma) if s != 0]
    for j in range(n):
        for sgn in (1, -1):
            ray = [Fraction(0)] * n
            ray[j] = Fraction(sgn)
            if feasible_point(eqs, base + [(ray, Fraction(1), False)], n) is not None:
                return False
    return True


def region_counts(fc: FaceComplex):
    """(number of chambers, number of bounded chambers)."""
    chambers = fc.chambers
    bounded = sum(1 for c in chambers if is_bounded(fc, c))
    return len(chambers), bounded
