"""The intersection poset by one affine solve per (flat, hyperplane)
pair: breadth first from the ambient space, each X ∩ H_i solved from
the equations of X's hyperplanes and H_i, and its closure found by
evaluating every hyperplane on the solution.  `arrtop.geometry` reads
meets off integer rows instead; this is its oracle, independent of the
rows.  Beside it, the rows themselves by Fraction dot products with the
flat's rational point and directions; geometry takes integer dot
products of the ambient rows with the flat's integer frame."""

from fractions import Fraction

from arrtop.exactla import dot, solve_affine
from arrtop.geometry import Flat, primitive_row


def flat_rows_by_fractions(arr, point, basis):
    """(coeffs, const) per hyperplane: u -> a·(point + sum_j u_j basis_j) - b
    as a primitive integer row, from Fraction dot products."""
    rows = (primitive_row([dot(h.normal, v) for v in basis] + [h.eval(point)])
            for h in arr.hyperplanes)
    return tuple((row[:-1], row[-1]) for row in rows)


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
                closure = frozenset(j for j, g in enumerate(arr.hyperplanes) if g.eval(pt) == 0
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
    result = tuple(
        Flat(codim=n - len(flats[key][1]), point=flats[key][0],
             directions=flats[key][1], containing=key, mobius=mobius[key])
        for key in order)
    return result, meet
