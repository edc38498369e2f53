"""The intersection poset by one affine solve per (flat, hyperplane)
pair: breadth first from the ambient space, each X ∩ H_i solved from
the equations of X's hyperplanes and H_i, and its closure found by
evaluating every hyperplane on the solution.  `arrtop.geometry` reads
meets off integer rows and cuts each flat's integer frame from its
parent's instead; this is its oracle, independent of rows and frames.
Beside it, the rows themselves by Fraction dot products with a frame
read as a rational point and directions; geometry takes integer dot
products of the ambient rows with the frame.  And the section
certificate by solves: each flat of the arrangement solved on the
plane, where geometry compares the section's poset with the
arrangement's alone."""

from fractions import Fraction

from arrtop.exactla import dot, rref
from arrtop.fields import FieldSpec
from arrtop.geometry import Flat, betti_numbers, primitive_row


def solve_affine(eqs, n):
    """Solve a rational system a·x = b by Gauss-Jordan.

    `eqs` is a list of (coeffs, rhs).  Returns (particular, basis) where
    `particular` is one solution (free variables set to 0) and `basis`
    spans the solution space of the homogeneous system, or None if the
    system is inconsistent."""
    if not eqs:
        return ([Fraction(0)] * n,
                [[Fraction(int(j == i)) for j in range(n)] for i in range(n)])
    m, pivots = rref([list(a) + [b] for a, b in eqs], FieldSpec.rationals())
    if n in pivots:
        return None
    particular = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        particular[c] = m[r][n]
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return particular, basis


def affine_value(h, point):
    """a·point - b for the hyperplane a·x = b: zero on it, signed off it."""
    return dot(h.normal, point) - h.offset

def flat_rows_by_fractions(arr, point, basis):
    """(coeffs, const) per hyperplane: u -> a·(point + sum_j u_j basis_j) - b
    as a primitive integer row, from Fraction dot products."""
    rows = (primitive_row([dot(h.normal, v) for v in basis] + [affine_value(h, point)])
            for h in arr.hyperplanes)
    return tuple((row[:-1], row[-1]) for row in rows)


def frame_as_fractions(frame):
    """An integer frame ((P, L), ((V_k, 0), ...)) as the point P/L and the
    directions V_k/L, in which its rows are the Fraction rows."""
    (*point, den), basis = frame
    return (tuple(Fraction(x, den) for x in point),
            tuple(tuple(Fraction(x, den) for x in v[:-1]) for v in basis))


def check_section_by_solves(arr, poset, sec_poset, base, dirs, k):
    """The section certificate with one affine solve per flat on the plane
    base + span(dirs): codim <= k flats met transversally with a section
    flat of the same codim and containing set, higher ones missed, no
    extra section flat, and the truncated Betti numbers equal.  Returns
    None or the first failure."""
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


def poset_by_pair_solves(arr):
    """(flats, meet), ordered and keyed as `FlatPoset.flats` and `.meet`."""
    n = arr.dim
    origin = tuple(Fraction(0) for _ in range(n))
    std = tuple(tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n))
    flats = {frozenset(): (origin, std)}
    meet = {}
    frontier = [frozenset()]
    while frontier:
        fresh = []
        for key in frontier:
            for i in range(arr.d):
                if i in key or (key, i) in meet:
                    continue
                eqs = [(arr.hyperplanes[j].normal, arr.hyperplanes[j].offset)
                       for j in sorted(key | {i})]
                sol = solve_affine(eqs, n)
                if sol is None:
                    continue
                pt, basis = sol
                closure = frozenset(j for j, g in enumerate(arr.hyperplanes)
                                    if affine_value(g, pt) == 0
                                    and all(dot(g.normal, v) == 0 for v in basis))
                for j in closure - key:
                    meet[key, j] = closure
                if closure not in flats:
                    flats[closure] = (tuple(pt), tuple(tuple(v) for v in basis))
                    fresh.append(closure)
        frontier = fresh

    order = sorted(flats, key=lambda s: (n - len(flats[s][1]), tuple(sorted(s))))
    mobius = {}
    for key in order:
        mobius[key] = 1 if not key else -sum(mobius[other] for other in order
                                             if other < key and other in mobius)
    result = tuple(Flat(codim=n - len(flats[key][1]), containing=key, mobius=mobius[key])
                   for key in order)
    return result, meet
