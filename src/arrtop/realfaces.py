"""Face poset of a real arrangement: sign vectors, chambers, covers.

Every face is stored with an exact witness in its relative interior, the
primitive integers (W, D) of the point W/D, which certifies that its
sign vector is realized.  Enumeration is incremental:
hyperplanes are inserted one at a time and each existing face is split
against the new hyperplane.  Flats come from the intersection poset:
each face carries its flat, whose meet with the new hyperplane says
whether the face is split and where the zero side lies; one exact
feasibility call in that flat, on the poset's integer rows in its
coordinates signed by the face and on the flat's integer frame, decides
whether the face meets the hyperplane and returns its witness on ints.
H_i's sign at (W, D) is that of (A_i, C_i)·(W, D), (A_i, C_i) its ambient
row in the poset, so the walk (along a frame direction) and segment
steps run on ints too; no flat is solved for and no rank is taken here
(exactla holds the one rank engine and the one dense elimination).  A
face on X ∩ H_i has two covers on X, its signs with every hyperplane
through X ∩ H_i but not X set to one side or the other: each is one
lookup (covectors, Björner et al., *Oriented Matroids*).  Oracles: a 3^d
brute force over sign vectors and the same enumeration in Fraction
arithmetic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

from .feasibility import feasible_point
from .geometry import Arrangement, intersection_poset, primitive_row


@dataclass(frozen=True)
class Face:
    sign: tuple          # entries in {-1, 0, +1}, one per hyperplane
    dim: int
    witness: tuple       # primitive integers (W, D), D > 0: the point W/D

    @property
    def is_chamber(self) -> bool:
        return 0 not in self.sign


@dataclass
class FaceComplex:
    """The faces as enumerate_faces orders them, by decreasing codim and
    then by sign vector, so each codim is one run of indices and the
    chambers come last.  covering[i] lists the faces covering faces[i]
    (dimension + 1) and adjacent[i] the chambers whose closure holds it,
    each in index order.  What reads the faces relies on that order and
    sorts nothing again."""

    arrangement: Arrangement
    faces: tuple
    covering: tuple      # per face, its covers: two per flat over its flat
    chambers: tuple = field(init=False)

    def __post_init__(self):
        self.chambers = tuple(i for i, f in enumerate(self.faces) if f.is_chamber)

    @cached_property
    def adjacent(self):
        """Top down, in reversed face order: a chamber's set is itself, any
        other face's is the union of its covers' sets."""
        adj = [None] * len(self.faces)
        for f in reversed(range(len(self.faces))):
            adj[f] = (f,) if self.faces[f].is_chamber else \
                tuple(sorted(set().union(*(adj[g] for g in self.covering[f]))))
        return adj


def enumerate_faces(arr: Arrangement) -> FaceComplex:
    """Every realizable sign vector, with witness, dimension and covers."""
    n = arr.dim
    poset = intersection_poset(arr)
    flats, meet, rows, frames = poset.by_containing, poset.meet, poset.rows, poset.frames
    # (A_i, C_i)·(W, D) is D times a positive multiple of H_i at W/D
    hom = [a + (c,) for a, c in rows[frozenset()]]
    faces = [((), frames[frozenset()][0], frozenset())]   # (sign, (W, D), containing(flat))
    for k, row in enumerate(hom):
        split = []
        for sigma, w, flat in faces:
            value = sum(map(mul, row, w))
            sw = (value > 0) - (value < 0)
            zero_flat = meet.get((flat, k))
            # constant on the face's flat: the sign at the witness is the
            # sign everywhere, and the face is not split
            if zero_flat is None:
                split.append((sigma + (sw,), w, flat))
                continue
            strict = [i for i, s in enumerate(sigma) if s != 0]
            if sw == 0:
                # h vanishes at the witness but not on the flat: all three
                # sides are realized; walk by t = tn/td <= 1 along the first
                # flat direction V/vden that h moves on, at most half way to
                # any strict hyperplane
                split.append((sigma + (0,), w, zero_flat))
                coeffs = rows[flat][k][0]
                j = next(j for j, c in enumerate(coeffs) if c)
                (*_, vden), v = frames[flat][0], frames[flat][1][j]
                tn, td = 1, 1
                for i in strict:
                    rate = 2 * w[-1] * abs(sum(map(mul, hom[i], v)))
                    gap = sigma[i] * sum(map(mul, hom[i], w)) * vden
                    if rate and gap * td < tn * rate:
                        tn, td = gap, rate
                for s in (1, -1):
                    pt = primitive_row([td * vden * x + s * tn * w[-1] * y for x, y in zip(w, v)])
                    split.append((sigma + (s if coeffs[j] > 0 else -s,), pt, flat))
            else:
                split.append((sigma + (sw,), w, flat))
                zrows = rows[zero_flat]
                z = feasible_point(*frames[zero_flat], [
                    ([sigma[i] * x for x in zrows[i][0]], sigma[i] * zrows[i][1])
                    for i in strict])
                if z is not None:
                    split.append((sigma + (0,), z, zero_flat))
                    # step past z along the segment from w by delta = dn/dd <= 1;
                    # each strict value moves affinely, g(delta) = gz + delta*(gz - gw)
                    dn, dd = 1, 1
                    for i in strict:
                        gw = sigma[i] * sum(map(mul, hom[i], w)) * z[-1]
                        gz = sigma[i] * sum(map(mul, hom[i], z)) * w[-1]
                        if gw > gz and gz * dd < dn * 2 * (gw - gz):
                            dn, dd = gz, 2 * (gw - gz)
                    far = [(dd + dn) * w[-1] * x - dn * z[-1] * y for x, y in zip(z, w)]
                    split.append((sigma + (-sw,), primitive_row(far), flat))
        faces = split

    faces.sort(key=lambda f: (-flats[f[2]].codim, f[0]))
    index, on_flat = {}, defaultdict(list)
    for i, (sigma, _, flat) in enumerate(faces):
        index[sigma] = i
        on_flat[flat].append(i)
    # covers on X of a face on L = X ∩ H_i: each H_j through L but not X
    # set to side·e_j, e_j the sign of H_j's row on X (± one another)
    covering = [[] for _ in faces]
    for flat, lower in {(flat, lower) for (flat, _), lower in meet.items()}:
        flips = [(j, 1 if next(c for c in rows[flat][j][0] if c) > 0 else -1)
                 for j in lower - flat]
        for i in on_flat[lower]:
            for side in (1, -1):
                sigma = list(faces[i][0])
                for j, e in flips:
                    sigma[j] = side * e
                if tuple(sigma) not in index:
                    raise RuntimeError(f"face {faces[i][0]} on flat {sorted(lower)} has no "
                                       f"cover {tuple(sigma)} on flat {sorted(flat)}")
                covering[i].append(index[tuple(sigma)])
    built = tuple(Face(sigma, n - flats[flat].codim, w) for sigma, w, flat in faces)
    return FaceComplex(arr, built, tuple(tuple(sorted(up)) for up in covering))


def region_counts(fc: FaceComplex):
    """(chambers, bounded chambers), with no LP: Σ (-1)^dim F over the
    faces F ≤ C, those with C among their adjacent chambers, is the
    compactly supported Euler characteristic of the closed chamber C, 1
    for a polytope, 0 for a pointed unbounded one (an essential arrangement
    has no other).  On any other arrangement every chamber holds a line."""
    euler = dict.fromkeys(fc.chambers, 0)
    if fc.arrangement.is_essential:
        for f, face in enumerate(fc.faces):
            for c in fc.adjacent[f]:
                euler[c] += (-1) ** face.dim
    return len(euler), sum(1 for x in euler.values() if x == 1)
