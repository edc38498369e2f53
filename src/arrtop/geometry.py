"""Exact combinatorial geometry of affine hyperplane arrangements over Q.

An arrangement is a finite set of affine hyperplanes a·x = b with
rational coefficients in C^n (complexified-real: the defining forms are
real).  This module computes the intersection poset of flats, once per
arrangement instance, with its Möbius function, its meet table
X ∩ H_i and, per flat, an integer frame (a point and directions over one
denominator) and every hyperplane as a primitive integer row in the
flat's coordinates, read by faces and face feasibility.  Meets are read
off those rows, and the frame of X ∩ H_i is cut on ints from X's frame
by H_i's row on X, so no flat is ever solved for.  It also computes the
characteristic polynomial, Whitney-sum Betti numbers of the complement,
the Salvetti complex's cell counts, and the surgeries used by dimension
arguments: essentialization, localization at a flat, deconing a central
arrangement, and generic sections, certified by comparing their poset
with the arrangement's.
Ranks go through exactla's one sparse engine; its one dense elimination
serves the coordinate changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .exactla import FMatrixSparse, dot, mat_inverse, rank, rref
from .fields import FieldSpec, parse_int, parse_rational


class ArrangementError(Exception):
    """Invalid arrangement data."""


class GenericityError(Exception):
    """No combinatorially generic section found within the retry budget."""


@dataclass(frozen=True)
class Hyperplane:
    """The locus {x : normal·x = offset}."""

    normal: tuple
    offset: Fraction
    label: str


@dataclass(frozen=True)
class Arrangement:
    dim: int
    hyperplanes: tuple
    is_central: bool
    is_essential: bool

    @property
    def d(self) -> int:
        return len(self.hyperplanes)

    @cached_property
    def _poset(self) -> "FlatPoset":
        return _build_poset(self)

    @staticmethod
    def build(dim, hyperplanes) -> "Arrangement":
        if dim < 1:
            raise ArrangementError(f"ambient dimension must be >= 1, got {dim}")
        if not hyperplanes:
            raise ArrangementError("arrangement needs at least one hyperplane")
        seen = {}
        for h in hyperplanes:
            if len(h.normal) != dim:
                raise ArrangementError(f"hyperplane {h.label}: normal has length "
                                       f"{len(h.normal)}, ambient dimension is {dim}")
            lead = next((x for x in h.normal if x != 0), None)
            if lead is None:
                raise ArrangementError(f"hyperplane {h.label}: zero normal vector")
            key = tuple(x / lead for x in h.normal) + (h.offset / lead,)
            if key in seen:
                raise ArrangementError(
                    f"duplicate hyperplanes: {seen[key]} and {h.label} define the same locus")
            seen[key] = h.label
        # central: normal·x = offset is consistent, the offsets adding no rank
        normals = _rank([h.normal for h in hyperplanes])
        return Arrangement(
            dim=dim,
            hyperplanes=tuple(hyperplanes),
            is_central=_rank([(*h.normal, h.offset) for h in hyperplanes]) == normals,
            is_essential=normals == dim,
        )

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "hyperplanes": [
                {"label": h.label,
                 "normal": [str(x) for x in h.normal],
                 "offset": str(h.offset)}
                for h in self.hyperplanes
            ],
        }


# The largest ambient dimension an arrangement file may declare.  The
# poset's frames are (dim + 1)-square, built before any size check, and
# above C^9 an essential arrangement is past salvetti.MAX_TERMS (the
# Boolean one in C^10, the smallest, has 10485760 Λ-terms), so this mainly
# caps the lineality space.
MAX_DIM = 32


def validate_arrangement(raw: dict) -> Arrangement:
    """Parse and canonicalize a raw arrangement description.

    Expects {"dim": n, "hyperplanes": [{"label", "normal", "offset"}, ...]}
    with rational strings, n at most MAX_DIM.  Hyperplane order is
    preserved.
    """
    if not isinstance(raw, dict) or "dim" not in raw or "hyperplanes" not in raw:
        raise ArrangementError("arrangement file needs 'dim' and 'hyperplanes'")
    try:
        dim = parse_int(raw["dim"])
    except (TypeError, ValueError):
        raise ArrangementError(f"bad ambient dimension {raw.get('dim')!r}")
    if dim > MAX_DIM:
        raise ArrangementError(f"ambient dimension {dim} is above the bound of {MAX_DIM}")
    hyps = []
    try:
        for idx, row in enumerate(raw["hyperplanes"]):
            label = str(row.get("label", f"H{idx + 1}"))
            if not isinstance(row["normal"], list):
                raise TypeError("normal must be a list")
            normal = tuple(parse_rational(x) for x in row["normal"])
            hyps.append(Hyperplane(normal, parse_rational(row.get("offset", "0")), label))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ArrangementError(f"malformed hyperplane {len(hyps) + 1}: {exc}")
    return Arrangement.build(dim, hyps)


# ---------------------------------------------------------------------------
# intersection poset


@dataclass(frozen=True)
class Flat:
    """A nonempty intersection of hyperplanes (the ambient space for
    the empty intersection).

    `containing` is closed: it lists every hyperplane whose locus
    contains the flat, which determines the flat uniquely.
    """

    codim: int
    containing: frozenset
    mobius: int


@dataclass
class FlatPoset:
    """Intersection poset of flats, ordered by reverse inclusion.

    The bottom element is the ambient space with Möbius value 1; Y <= X
    iff the flat X is contained in Y, equivalently containing(Y) is a
    subset of containing(X).  `meet` maps (containing(X), i) to
    containing(X ∩ H_i) when that is a proper nonempty subflat of X; no
    entry means H_i is constant on X (it contains X or misses it).
    `frames` maps containing(X) to X's integer frame, the primitive
    (P, L), L > 0, and (V_k, 0) with X = {(P + sum_k u_k V_k)/L}.  `rows`
    maps it to one (coeffs, const) per hyperplane: the primitive integer
    row that is a positive multiple of u -> a·(P + sum_k u_k V_k)/L - b,
    H_i in X's coordinates.
    """

    ambient_dim: int
    flats: tuple
    meet: dict
    rows: dict
    frames: dict

    def __post_init__(self):
        self.by_containing = {f.containing: f for f in self.flats}
        self._flat_sizes = {}   # containing(X) -> flat_sizes(X)

    def of_codim(self, c):
        return [f for f in self.flats if f.codim == c]

    def flat_sizes(self, f):
        """(cells, Λ-terms) of the Salvetti complex on the faces of the flat
        f: see cell_counts and term_counts.  Quadratic in the flats inside f,
        computed once per flat: check_size and sizes share it."""
        x = f.containing
        if x not in self._flat_sizes:
            faces = sum(map(abs, _mobius([z.containing for z in self.flats
                                          if z.containing >= x]).values()))
            below = [y for y in self.flats if y.containing <= x]
            cells = faces * sum(abs(y.mobius) for y in below)
            self._flat_sizes[x] = cells, 2 * cells * sum(y.codim == f.codim - 1 for y in below)
        return self._flat_sizes[x]

    @cached_property
    def sizes(self):
        """(cells, Λ-terms) per degree of the Salvetti complex, made once."""
        sizes = [(f.codim, self.flat_sizes(f)) for f in self.flats]
        return tuple([sum(size[j] for c, size in sizes if c == k)
                      for k in range(self.flats[-1].codim + 1)] for j in (0, 1))

    def flat_counts(self):
        counts = [0] * (self.ambient_dim + 1)
        for f in self.flats:
            counts[f.codim] += 1
        return counts


def intersection_poset(arr: Arrangement) -> FlatPoset:
    """All nonempty intersections of hyperplane subsets, with Möbius
    values and the meet table; built once per arrangement instance."""
    return arr._poset


def _rank(rows) -> int:
    """Rank over Q of a list of rational rows."""
    return rank(FMatrixSparse.from_rows(rows), FieldSpec.rationals())


def primitive_row(values) -> tuple:
    """The primitive integer vector that is a positive multiple of the
    rational vector `values` (all zeros stay zeros)."""
    scale = lcm(*(x.denominator for x in values))
    ints = [x.numerator * (scale // x.denominator) for x in values]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _cut(frame, row) -> tuple:
    """The frame of X ∩ H from X's frame ((P, L), (V_k, 0)) and H's row
    (c, c_0) on X: u_j = -(c_0 + sum_k c_k u_k)/c_j on the first j with
    c_j != 0, so the point is sign(c_j)·(c_j·P - c_0·V_j) over |c_j|·L and
    each other direction c_j·V_k - c_k·V_j, every vector made primitive."""
    (point, basis), (coeffs, const) = frame, row
    j = next(j for j, c in enumerate(coeffs) if c)
    cj, vj = coeffs[j], basis[j]
    s = 1 if cj > 0 else -1
    return (primitive_row([s * (cj * x - const * y) for x, y in zip(point, vj)]),
            tuple(primitive_row([cj * x - ck * y for x, y in zip(v, vj)])
                  for k, (ck, v) in enumerate(zip(coeffs, basis)) if k != j))


def _flat_rows(ambient, frame) -> tuple:
    """(coeffs, const) per hyperplane: (A, C)·(V_k, 0) and (A, C)·(P, L)
    for its primitive ambient row (A, C), a positive multiple of (a, -b):
    L times a positive multiple of u -> a·(P + sum_k u_k V_k)/L - b, made
    primitive.  Zero coeffs mean constant on the flat."""
    point, basis = frame
    rows = (primitive_row([sum(map(mul, h, v)) for v in basis] + [sum(map(mul, h, point))])
            for h in ambient)
    return tuple((row[:-1], row[-1]) for row in rows)


def _build_poset(arr: Arrangement) -> FlatPoset:
    n = arr.dim
    ambient = [primitive_row((*h.normal, -h.offset)) for h in arr.hyperplanes]
    unit = tuple(tuple(int(j == k) for j in range(n + 1)) for k in range(n + 1))
    frames = {frozenset(): (unit[n], unit[:n])}
    rows = {frozenset(): _flat_rows(ambient, frames[frozenset()])}
    meet = {}
    frontier = [frozenset()]
    while frontier:
        fresh = []
        for key in frontier:
            # H_j contains X ∩ H_i exactly when its row on X is ±H_i's row
            # (H_j ⊇ X has the zero row, and key lists those): one group
            # per meet, in order of its least index
            groups = {}
            for i, (coeffs, const) in enumerate(rows[key]):
                if any(coeffs):
                    row = coeffs + (const,)
                    if next(x for x in coeffs if x) < 0:
                        row = tuple(-x for x in row)
                    groups.setdefault(row, []).append(i)
            for group in groups.values():
                closure = key | frozenset(group)
                for j in group:
                    meet[key, j] = closure
                if closure not in frames:
                    frames[closure] = _cut(frames[key], rows[key][group[0]])
                    rows[closure] = _flat_rows(ambient, frames[closure])
                    fresh.append(closure)
        frontier = fresh

    codim = {key: n - len(basis) for key, (_, basis) in frames.items()}
    order = sorted(frames, key=lambda s: (codim[s], tuple(sorted(s))))
    mobius = _mobius(order)
    result = tuple(Flat(codim=codim[key], containing=key, mobius=mobius[key]) for key in order)
    return FlatPoset(n, result, meet, rows, frames)


def _mobius(keys):
    """{Z: μ(X, Z)} for X = keys[0], keys listing every flat Z ⊆ X by its
    containing set, in increasing codim."""
    mobius = {keys[0]: 1}
    for key in keys[1:]:
        mobius[key] = -sum(m for other, m in mobius.items() if other < key)
    return mobius


def characteristic_polynomial(poset: FlatPoset):
    """Coefficients [c_0, ..., c_n] of sum_X mu(X) t^{dim X}; monic."""
    n = poset.ambient_dim
    coeffs = [0] * (n + 1)
    for f in poset.flats:
        coeffs[n - f.codim] += f.mobius
    return coeffs


def evaluate_poly(coeffs, t: int) -> int:
    return sum(c * t ** i for i, c in enumerate(coeffs))


def zaslavsky_counts(chi, essential: bool):
    """Zaslavsky's (1975) (regions, bounded chambers): (-1)^n·χ(-1), and
    (-1)^n·χ(1) on an essential arrangement, else 0."""
    sign = (-1) ** (len(chi) - 1)
    return sign * evaluate_poly(chi, -1), sign * evaluate_poly(chi, 1) if essential else 0


def betti_numbers(poset: FlatPoset):
    """Whitney sums: b_i = sum of |mu(X)| over flats of codimension i."""
    b = [0] * (poset.ambient_dim + 1)
    for f in poset.flats:
        b[f.codim] += abs(f.mobius)
    return b


def cell_counts(poset: FlatPoset):
    """Cells per degree of the Salvetti complex, up to the top codim, read
    off the poset (Zaslavsky, *Facing up to arrangements*, 1975): the faces
    on a flat X are the regions of the restriction A^X, Σ_{Z ⊆ X} |μ(X, Z)|,
    and each is adjacent to the r(A_X) = Σ_{Y ⊇ X} |μ(Y)| chambers of the
    localization, so cells_k sums r(A^X)·r(A_X) over the codim-k flats X."""
    return poset.sizes[0]


def term_counts(poset: FlatPoset):
    """Λ-terms per degree of the Salvetti complex's full boundary, one per
    cover of a cell's face: a face on a codim-k flat X is covered by two
    faces on each codim-(k - 1) flat Y ⊇ X, the two rays of the line Y/X
    in the localization A_X."""
    return poset.sizes[1]


def zero_flats(poset: FlatPoset):
    """Flats of dimension zero (codimension = ambient dimension)."""
    return poset.of_codim(poset.ambient_dim)


# ---------------------------------------------------------------------------
# surgeries


def essentialize(arr: Arrangement) -> Arrangement:
    """Quotient by the lineality space along a rational complement.

    The coordinate vectors at the pivot columns of the normals span a
    complement of the lineality space, on which every normal vanishes, so
    each hyperplane keeps its normal's pivot entries and its offset: the
    quotient has the same flats, each with the same containing set and
    codim.  The input itself when it is already essential.
    """
    if arr.is_essential:
        return arr
    _, pivots = rref([h.normal for h in arr.hyperplanes], FieldSpec.rationals())
    return Arrangement.build(len(pivots), [
        Hyperplane(tuple(h.normal[p] for p in pivots), h.offset, h.label)
        for h in arr.hyperplanes])


def localize(arr: Arrangement, flat: Flat) -> Arrangement:
    """Subarrangement of the hyperplanes containing the flat (central)."""
    if intersection_poset(arr).by_containing.get(flat.containing) is not flat:
        raise ArrangementError("not a flat of this arrangement")
    hyps = [arr.hyperplanes[i] for i in sorted(flat.containing)]
    return Arrangement.build(arr.dim, hyps)


def decone(arr: Arrangement, i0: int) -> Arrangement:
    """Send hyperplane i0 to infinity via a rational coordinate change.

    Requires a central essential arrangement in dimension >= 2.  The
    output lives in C^{n-1}; its hyperplane j corresponds to input
    hyperplane j != i0, in order.
    """
    if not arr.is_central:
        raise ArrangementError("decone requires a central arrangement")
    if not arr.is_essential:
        raise ArrangementError("decone requires an essential arrangement")
    if not 0 <= i0 < arr.d:
        raise ArrangementError(f"hyperplane index {i0} out of range")
    n = arr.dim
    if n < 2:
        raise ArrangementError("decone requires ambient dimension >= 2")
    # after translating the center to the origin every defining form is
    # linear, so only the normals enter the chart computation.  The unit
    # vectors e_j, j != the last coordinate a0 uses, complete a0 to a
    # basis; the last coordinate is the form of H_i0
    a0 = arr.hyperplanes[i0].normal
    last = max(j for j, x in enumerate(a0) if x)
    t_rows = [[Fraction(int(c == j)) for c in range(n)] for j in range(n) if j != last]
    t_rows.append(list(a0))
    tinv = mat_inverse(FieldSpec.rationals(), t_rows)
    hyps = []
    for j, h in enumerate(arr.hyperplanes):
        if j == i0:
            continue
        c = [sum(h.normal[k] * tinv[k][i] for k in range(n)) for i in range(n)]
        hyps.append(Hyperplane(tuple(c[:n - 1]), -c[n - 1], h.label))
    return Arrangement.build(n - 1, hyps)


def _check_section(poset, sec_poset, k):
    """Combinatorial genericity, read off the two posets: every flat f of
    codim <= k has a section flat with f's containing set and codim.
    That section flat is P ∩ f, so f meets the plane P transversally; and
    a flat f of codim > k meeting P would make P ∩ f a section flat, so
    P ∩ g for some g ⊆ f of codim <= k, which cannot be.  So the test
    also implies that these are all of the section's flats, with the same
    Möbius values, hence that the truncated Betti numbers match."""
    for f in poset.flats:
        if f.codim <= k:
            g = sec_poset.by_containing.get(f.containing)
            if g is None or g.codim != f.codim:
                return f"flat {sorted(f.containing)} has no matching section flat"
    return None


SECTION_ATTEMPTS = 32            # draws generic_section certifies before it gives up


def generic_section(arr: Arrangement, k: int, seed: int):
    """Certified combinatorially generic k-plane section.

    The plane is drawn pseudo-randomly (integer coordinates, determined
    by seed); each draw is certified against the intersection poset and
    redrawn on failure, up to SECTION_ATTEMPTS draws.  Hyperplane i of the
    section is the plane's cut of hyperplane i, so a local system on the
    arrangement is one on the section.  For k = n the arrangement is
    returned unchanged.
    """
    n = arr.dim
    if not 1 <= k <= n:
        raise ArrangementError(f"section dimension {k} out of range 1..{n}")
    if k == n:
        return arr
    poset = intersection_poset(arr)
    rng = random.Random(seed)
    for _ in range(SECTION_ATTEMPTS):
        base = tuple(Fraction(rng.randint(-10000, 10000)) for _ in range(n))
        dirs = tuple(tuple(Fraction(rng.randint(-10000, 10000)) for _ in range(n))
                     for _ in range(k))
        if _rank(dirs) != k:            # a degenerate direction matrix
            continue
        hyps = [Hyperplane(tuple(dot(h.normal, u) for u in dirs),
                           h.offset - dot(h.normal, base), h.label) for h in arr.hyperplanes]
        if any(all(x == 0 for x in h.normal) for h in hyps):    # parallel to a hyperplane
            continue
        try:
            sec = Arrangement.build(k, hyps)
        except ArrangementError:
            continue
        if _check_section(poset, intersection_poset(sec), k) is None:
            return sec
    raise GenericityError(
        f"no generic {k}-section of d={arr.d} arrangement after {SECTION_ATTEMPTS} attempts")
