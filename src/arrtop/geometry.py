"""Exact combinatorial geometry of affine hyperplane arrangements over Q.

An arrangement is a finite set of affine hyperplanes a·x = b with
rational coefficients in C^n (complexified-real: the defining forms are
real).  This module computes the intersection poset of flats, once per
arrangement instance, with its Möbius function, its meet table
X ∩ H_i and, per flat, every hyperplane as a primitive integer row in
the flat's coordinates (faces and section certificates read flats from
it; face feasibility reads the rows).  Each row is integer dot products
of the hyperplane's primitive ambient row with the flat's point and
directions over one denominator, its integer frame.  Meets are read off
those rows, so each flat is solved for once.  It also computes the
characteristic polynomial, Whitney-sum Betti numbers of the complement,
and the surgeries used by dimension arguments: essentialization,
localization at a flat, deconing a central arrangement, and certified
generic sections.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .exactla import dot, identity_matrix, mat_inverse, nullspace, rank_dense, rref, solve_affine
from .fields import FieldSpec, parse_int, parse_rational


class ArrangementError(Exception):
    """Invalid arrangement data."""


class GenericityError(Exception):
    """No combinatorially generic section found within the retry budget."""

    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = failures or []


@dataclass(frozen=True)
class Hyperplane:
    """The locus {x : normal·x = offset}."""

    normal: tuple
    offset: Fraction
    label: str

    def eval(self, point) -> Fraction:
        return dot(self.normal, point) - self.offset


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
        arr = Arrangement(
            dim=dim,
            hyperplanes=tuple(hyperplanes),
            is_central=solve_affine([(h.normal, h.offset) for h in hyperplanes], dim) is not None,
            is_essential=rank_dense([h.normal for h in hyperplanes]) == dim,
        )
        return arr

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


def validate_arrangement(raw: dict) -> Arrangement:
    """Parse and canonicalize a raw arrangement description.

    Expects {"dim": n, "hyperplanes": [{"label", "normal", "offset"}, ...]}
    with rational strings.  Hyperplane order is preserved.
    """
    if not isinstance(raw, dict) or "dim" not in raw or "hyperplanes" not in raw:
        raise ArrangementError("arrangement file needs 'dim' and 'hyperplanes'")
    try:
        dim = parse_int(raw["dim"])
    except (TypeError, ValueError):
        raise ArrangementError(f"bad ambient dimension {raw.get('dim')!r}")
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
    point: tuple
    directions: tuple
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
    `frames` maps containing(X) to X's point p and directions v_j over
    one common denominator L, as integer vectors (L·p, L) and (L·v_j, 0).
    `rows` maps it to one (coeffs, const) per hyperplane: the primitive
    integer row that is a positive multiple of u -> a·(p + sum_j u_j v_j) - b,
    H_i in X's coordinates.
    """

    ambient_dim: int
    flats: tuple
    meet: dict
    rows: dict
    frames: dict

    def __post_init__(self):
        self.by_containing = {f.containing: f for f in self.flats}

    def of_codim(self, c):
        return [f for f in self.flats if f.codim == c]

    def flat_counts(self):
        counts = [0] * (self.ambient_dim + 1)
        for f in self.flats:
            counts[f.codim] += 1
        return counts


def intersection_poset(arr: Arrangement) -> FlatPoset:
    """All nonempty intersections of hyperplane subsets, with Möbius
    values and the meet table; built once per arrangement instance."""
    return arr._poset


def primitive_row(values) -> tuple:
    """The primitive integer vector that is a positive multiple of the
    rational vector `values` (all zeros stay zeros)."""
    scale = lcm(*(x.denominator for x in values))
    ints = [x.numerator * (scale // x.denominator) for x in values]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _frame(point, basis) -> tuple:
    """((L·point, L), ((L·v, 0) for v in basis)), L the lcm of every denominator."""
    scale = lcm(*(x.denominator for v in (point, *basis) for x in v))
    point, *basis = ([x.numerator * (scale // x.denominator) for x in v] for v in (point, *basis))
    return (*point, scale), tuple((*v, 0) for v in basis)


def _flat_rows(ambient, frame) -> tuple:
    """(coeffs, const) per hyperplane: (A, C)·(L·v_j, 0) and (A, C)·(L·p, L)
    for its primitive ambient row (A, C), a positive multiple of (a, -b):
    L times a positive multiple of u -> a·(p + sum_j u_j v_j) - b, made
    primitive.  Zero coeffs mean constant on the flat."""
    point, basis = frame
    rows = (primitive_row([sum(map(mul, h, v)) for v in basis] + [sum(map(mul, h, point))])
            for h in ambient)
    return tuple((row[:-1], row[-1]) for row in rows)


def _build_poset(arr: Arrangement) -> FlatPoset:
    n = arr.dim
    origin = tuple(Fraction(0) for _ in range(n))
    std = tuple(tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n))
    ambient = [primitive_row((*h.normal, -h.offset)) for h in arr.hyperplanes]
    flats, frames = {frozenset(): (origin, std)}, {frozenset(): _frame(origin, std)}
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
                if closure not in flats:
                    eqs = [(arr.hyperplanes[j].normal, arr.hyperplanes[j].offset)
                           for j in sorted(key | {group[0]})]
                    pt, basis = solve_affine(eqs, n)
                    flats[closure] = (tuple(pt), tuple(tuple(v) for v in basis))
                    frames[closure] = _frame(pt, basis)
                    rows[closure] = _flat_rows(ambient, frames[closure])
                    fresh.append(closure)
        frontier = fresh

    order = sorted(flats, key=lambda s: (n - len(flats[s][1]), tuple(sorted(s))))
    mobius = {}
    for key in order:
        if not key:
            mobius[key] = 1
        else:
            mobius[key] = -sum(mobius[other] for other in order
                               if other != key and other <= key and other in mobius)
    result = tuple(
        Flat(codim=n - len(flats[key][1]), point=flats[key][0],
             directions=flats[key][1], containing=key, mobius=mobius[key])
        for key in order)
    return FlatPoset(n, result, meet, rows, frames)


def characteristic_polynomial(poset: FlatPoset):
    """Coefficients [c_0, ..., c_n] of sum_X mu(X) t^{dim X}; monic."""
    n = poset.ambient_dim
    coeffs = [0] * (n + 1)
    for f in poset.flats:
        coeffs[n - f.codim] += f.mobius
    return coeffs


def evaluate_poly(coeffs, t: int) -> int:
    return sum(c * t ** i for i, c in enumerate(coeffs))


def betti_numbers(poset: FlatPoset):
    """Whitney sums: b_i = sum of |mu(X)| over flats of codimension i."""
    b = [0] * (poset.ambient_dim + 1)
    for f in poset.flats:
        b[f.codim] += abs(f.mobius)
    return b


def zero_flats(poset: FlatPoset):
    """Flats of dimension zero (codimension = ambient dimension)."""
    return poset.of_codim(poset.ambient_dim)


# ---------------------------------------------------------------------------
# surgeries


def essentialize(arr: Arrangement):
    """Quotient by the lineality space along a rational complement.

    Returns (essential arrangement, projection rows).  The projection P
    satisfies: x lies on hyperplane i iff P x lies on the image
    hyperplane i.  Identity when the input is already essential.
    """
    n = arr.dim
    if arr.is_essential:
        return arr, identity_matrix(FieldSpec.rationals(), n)
    normals = [h.normal for h in arr.hyperplanes]
    _, pivots = rref(normals)
    m = len(pivots)
    lineality = nullspace(normals, n)
    cols = [[Fraction(1 if i == p else 0) for i in range(n)] for p in pivots]
    cols += [list(v) for v in lineality]
    basis = [[cols[j][i] for j in range(n)] for i in range(n)]  # columns -> matrix
    inv = mat_inverse(FieldSpec.rationals(), basis)
    proj = tuple(tuple(inv[r][c] for c in range(n)) for r in range(m))
    hyps = [Hyperplane(tuple(h.normal[p] for p in pivots), h.offset, h.label)
            for h in arr.hyperplanes]
    return Arrangement.build(m, hyps), proj


def localize(arr: Arrangement, flat: Flat) -> Arrangement:
    """Subarrangement of the hyperplanes containing the flat (central)."""
    if intersection_poset(arr).by_containing.get(flat.containing) != flat:
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
    # linear, so only the normals enter the chart computation
    a0 = arr.hyperplanes[i0].normal
    rows = [list(a0)]
    chosen = []
    for j in range(n):
        e = [Fraction(1 if c == j else 0) for c in range(n)]
        if rank_dense(rows + [e]) > len(rows):
            rows.append(e)
            chosen.append(e)
        if len(rows) == n:
            break
    t_rows = chosen + [list(a0)]          # last coordinate is the form of H_i0
    tinv = mat_inverse(FieldSpec.rationals(), t_rows)
    hyps = []
    for j, h in enumerate(arr.hyperplanes):
        if j == i0:
            continue
        c = [sum(h.normal[k] * tinv[k][i] for k in range(n)) for i in range(n)]
        hyps.append(Hyperplane(tuple(c[:n - 1]), -c[n - 1], h.label))
    return Arrangement.build(n - 1, hyps)


@dataclass(frozen=True)
class SectionCertificate:
    """Witness that a section plane is combinatorially generic."""

    k: int
    seed: int
    attempts: int
    base_point: tuple
    directions: tuple
    index_map: tuple


def _check_section(arr, poset, sec_poset, base, dirs, k):
    """Combinatorial genericity: codim <= k flats survive with the same
    codimension and containing set, higher ones are missed, and the
    truncated Betti numbers match."""
    survivors = 0
    for f in poset.flats:
        eqs = []
        for i in sorted(f.containing):
            h = arr.hyperplanes[i]
            eqs.append(([dot(h.normal, u) for u in dirs], h.offset - dot(h.normal, base)))
        sol = solve_affine(eqs, k)
        if f.codim <= k:
            if sol is None or k - len(sol[1]) != f.codim:
                return f"flat {sorted(f.containing)} (codim {f.codim}) not met transversally"
            g = sec_poset.by_containing.get(f.containing)
            if g is None or g.codim != f.codim:
                return f"flat {sorted(f.containing)} has no matching section flat"
            survivors += 1
        elif sol is not None:
            return f"flat {sorted(f.containing)} of codim {f.codim} > {k} meets the plane"
    if survivors != len(sec_poset.flats):
        return "section has extra flats"
    if betti_numbers(sec_poset) != betti_numbers(poset)[:k + 1]:
        return "truncated Betti numbers disagree"
    return None


def generic_section(arr: Arrangement, k: int, seed: int, max_attempts: int = 32):
    """Certified combinatorially generic k-plane section.

    The plane is drawn pseudo-randomly (integer coordinates, determined
    by seed); each draw is certified against the intersection poset and
    redrawn on failure, up to `max_attempts`.  For k = n the arrangement
    is returned unchanged.
    """
    n = arr.dim
    if not 1 <= k <= n:
        raise ArrangementError(f"section dimension {k} out of range 1..{n}")
    if k == n:
        cert = SectionCertificate(k, seed, 0, tuple(Fraction(0) for _ in range(n)),
                                  identity_matrix(FieldSpec.rationals(), n),
                                  tuple(range(arr.d)))
        return arr, cert
    poset = intersection_poset(arr)
    rng = random.Random(seed)
    failures = []
    for attempt in range(1, max_attempts + 1):
        base = tuple(Fraction(rng.randint(-10000, 10000)) for _ in range(n))
        dirs = tuple(tuple(Fraction(rng.randint(-10000, 10000)) for _ in range(n))
                     for _ in range(k))
        if rank_dense([list(u) for u in dirs]) != k:
            failures.append("degenerate direction matrix")
            continue
        hyps = []
        for h in arr.hyperplanes:
            normal = tuple(dot(h.normal, u) for u in dirs)
            hyps.append(Hyperplane(normal, h.offset - dot(h.normal, base), h.label))
        if any(all(x == 0 for x in h.normal) for h in hyps):
            failures.append("plane parallel to a hyperplane")
            continue
        try:
            sec = Arrangement.build(k, hyps)
        except ArrangementError as exc:
            failures.append(str(exc))
            continue
        sec_poset = intersection_poset(sec)
        problem = _check_section(arr, poset, sec_poset, base, dirs, k)
        if problem is not None:
            failures.append(problem)
            continue
        cert = SectionCertificate(k, seed, attempt, base, dirs, tuple(range(arr.d)))
        return sec, cert
    raise GenericityError(
        f"no generic {k}-section of d={arr.d} arrangement after {max_attempts} attempts",
        failures)
