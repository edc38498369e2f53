"""Face poset of a real arrangement: sign vectors, chambers, covers.

Every face is stored with an exact rational witness in its relative
interior, so adjacency and boundedness queries are certified rather
than inferred.  Enumeration is incremental: hyperplanes are inserted
one at a time and each existing face is split against the new
hyperplane.  Flats come from the intersection poset: each face carries
its flat, whose meet with the new hyperplane says whether the face is
split and where the zero side lies; one exact feasibility call in that
flat decides whether the face meets the hyperplane, and the two open
sides get witnesses by exact segment arithmetic.  The feasibility call
reads the face's strict hyperplanes as the poset's integer rows in the
zero-side flat's coordinates, signed by the face, so nothing is
projected per call; boundedness reads the rows of the face's own flat.
A 3^d brute force over sign vectors is the test oracle.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .exactla import dot
from .feasibility import feasible_point
from .geometry import Arrangement, intersection_poset, primitive_row


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


def enumerate_faces(arr: Arrangement) -> FaceComplex:
    """Every realizable sign vector, with witness, dimension and covers."""
    n = arr.dim
    poset = intersection_poset(arr)
    flats, meet, rows = poset.by_containing, poset.meet, poset.rows
    origin = tuple(Fraction(0) for _ in range(n))
    faces = [((), origin, frozenset())]      # (sign, witness, containing set of its flat)
    for k, h in enumerate(arr.hyperplanes):
        split = []
        for sigma, w, flat in faces:
            sw = _sign(h.eval(w))
            zero_flat = meet.get((flat, k))
            # constant on the face's flat: the sign at the witness is the
            # sign everywhere, and the face is not split
            if zero_flat is None:
                split.append((sigma + (sw,), w, flat))
                continue
            strict = [(i, arr.hyperplanes[i]) for i, s in enumerate(sigma) if s != 0]
            if sw == 0:
                # h vanishes at the witness but not on the flat: all three
                # sides are realized; walk along a flat direction
                split.append((sigma + (0,), w, zero_flat))
                v = next(v for v in flats[flat].directions if dot(h.normal, v) != 0)
                t = Fraction(1)
                for i, hp in strict:
                    move = dot(hp.normal, v)
                    if move != 0:
                        t = min(t, sigma[i] * hp.eval(w) / (2 * abs(move)))
                for eps in (t, -t):
                    pt = tuple(x + eps * y for x, y in zip(w, v))
                    split.append((sigma + (_sign(h.eval(pt)),), pt, flat))
            else:
                split.append((sigma + (sw,), w, flat))
                zf, zrows = flats[zero_flat], rows[zero_flat]
                zero_w = feasible_point(zf.point, zf.directions, [
                    ([sigma[i] * x for x in zrows[i][0]], sigma[i] * zrows[i][1], True)
                    for i, _ in strict])
                if zero_w is not None:
                    split.append((sigma + (0,), zero_w, zero_flat))
                    # step past zero_w along the segment from w; each strict
                    # value moves affinely, g(delta) = gz + delta*(gz - gw)
                    delta = Fraction(1)
                    for i, hp in strict:
                        gw = sigma[i] * hp.eval(w)
                        gz = sigma[i] * hp.eval(zero_w)
                        if gw > gz:
                            delta = min(delta, gz / (2 * (gw - gz)))
                    far = tuple(z + delta * (z - x) for x, z in zip(w, zero_w))
                    split.append((sigma + (-sw,), far, flat))
        faces = split

    faces.sort(key=lambda f: (-flats[f[2]].codim, f[0]))
    built = tuple(Face(sigma, n - flats[flat].codim, w) for sigma, w, flat in faces)
    on_flat = defaultdict(list)
    for i, (_, _, flat) in enumerate(faces):
        on_flat[flat].append(i)
    # a face covers another only if its flat X covers the other's, some
    # X ∩ H_i; faces on such a pair of flats are compared by their signs
    pairs = {(flat, lower) for (flat, _), lower in meet.items()}
    covers = sorted((i, j) for flat, lower in pairs
                    for i in on_flat[lower] for j in on_flat[flat]
                    if all(s == 0 or s == t for s, t in zip(built[i].sign, built[j].sign)))
    return FaceComplex(arr, built, tuple(covers))


def is_bounded(fc: FaceComplex, face_index: int) -> bool:
    """Whether the face is bounded: its recession cone is {0}, a cone in
    the directions of the face's flat."""
    arr = fc.arrangement
    sigma = fc.faces[face_index].sign
    n = arr.dim
    poset = intersection_poset(arr)
    key = frozenset(i for i, s in enumerate(sigma) if s == 0)
    flat, rows = poset.by_containing[key], poset.rows[key]
    origin = tuple(Fraction(0) for _ in range(n))
    base = [(tuple(s * x for x in rows[i][0]), 0, False)
            for i, s in enumerate(sigma) if s != 0]
    for j in range(n):
        for sgn in (1, -1):
            # sgn·x_j >= 1 in the flat's coordinates
            *ray, const = primitive_row([sgn * v[j] for v in flat.directions] + [-1])
            if feasible_point(origin, flat.directions,
                              base + [(ray, const, False)]) is not None:
                return False
    return True


def region_counts(fc: FaceComplex):
    """(number of chambers, number of bounded chambers)."""
    chambers = fc.chambers
    bounded = sum(1 for c in chambers if is_bounded(fc, c))
    return len(chambers), bounded
