"""Exact rational linear feasibility with witness extraction.

Decides a system of strict inequalities on an affine flat over Q
and, when feasible, returns an exact rational point in its relative
interior as a primitive integer vector (W, D), the point W/D.  The flat
is the caller's integer frame, its point and directions over one
denominator, and the inequalities come already written in the flat's
coordinates as integer rows: the intersection poset keeps both per
flat, so nothing is projected here.  Fourier-Motzkin elimination runs on
Python ints, dividing each combined row by its content; positive scaling
moves no bound, so the witness, reconstructed on ints by
back-substitution through the eliminated variables (one common
denominator, bounds compared by cross-multiplication), does not depend
on how the rows are scaled.  Problem dimensions here
are tiny (ambient dimension of an arrangement), so the doubling blowup
of elimination is irrelevant.
"""

from __future__ import annotations

from math import gcd, lcm

from .geometry import primitive_row

# An inequality is (coeffs, const) with integer entries, meaning
# coeffs·u + const > 0.


def _eliminate(ineqs, nvars):
    """Fourier-Motzkin passes; returns per-level constraint lists or None
    if a constant constraint is violated."""
    levels = []
    current = ineqs
    for v in range(nvars - 1, -1, -1):
        levels.append(current)
        lowers, uppers, rest = [], [], []
        for row in current:
            if row[0][v] > 0:
                lowers.append(row)
            elif row[0][v] < 0:
                uppers.append(row)
            else:
                rest.append(row)
        new = list(rest)
        for la, lc in lowers:
            for ua, uc in uppers:
                # u_v > -(l·u + lc)/la and u_v < ... combine:
                coef = [ua[j] * la[v] - la[j] * ua[v] for j in range(nvars)]
                coef[v] = 0
                const = uc * la[v] - lc * ua[v]
                g = gcd(const, *coef)
                if g > 1:
                    coef = [x // g for x in coef]
                    const //= g
                new.append((coef, const))
        current = new
    for a, c in current:
        if any(x != 0 for x in a):
            raise AssertionError("variable left after elimination")
        if c <= 0:
            return None
    return levels


def _interval_pick(ineqs, v, num, den):
    """(n, d), d > 0: a value n/d for variable v, variables below v being
    num[j]/den.  Constraints come from the elimination level where only
    variables 0..v survive, so the open interval is nonempty; each bound is
    a pair (n, d), d > 0, and bounds compare by cross-multiplication."""
    lo = hi = None
    for a, c in ineqs:
        if a[v] == 0:
            continue
        rest = c * den + sum(a[j] * num[j] for j in range(v) if a[j] != 0)
        if a[v] > 0:
            bound = -rest, a[v] * den
            if lo is None or bound[0] * lo[1] > lo[0] * bound[1]:
                lo = bound
        else:
            bound = rest, -a[v] * den
            if hi is None or bound[0] * hi[1] < hi[0] * bound[1]:
                hi = bound
    if lo is None and hi is None:
        return 0, 1
    if lo is None:
        return hi[0] - hi[1], hi[1]
    if hi is None:
        return lo[0] + lo[1], lo[1]
    return lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]


def feasible_point(point, basis, rows):
    """Witness for {x = p + sum u_j·v_j : rows hold} as the primitive
    (W, D), x = W/D, a positive multiple of point + sum u_j·basis_j; or None.

    point = (L·p, L) and basis = ((L·v_j, 0), ...) give the flat over one
    denominator L.  rows: list of (coeffs, const) with integer entries in
    u, meaning coeffs·u + const > 0.
    """
    if any(not any(a) and c <= 0 for a, c in rows):
        return None
    reduced = [(a, c) for a, c in rows if any(a)]
    m = len(basis)
    if not reduced:
        return primitive_row(point)
    levels = _eliminate(reduced, m)
    if levels is None:
        return None
    # u_j = num[j] / den, one common denominator
    num, den = [0] * m, 1
    # levels[i] holds the constraints before eliminating variable m-1-i
    for v in range(m):
        n, d = _interval_pick(levels[m - 1 - v], v, num, den)
        g = gcd(n, d)
        n, d, new = n // g, d // g, lcm(den, d // g)
        num = [x * (new // den) for x in num]
        num[v], den = n * (new // d), new
    return primitive_row([den * x + sum(u * vec[i] for u, vec in zip(num, basis))
                          for i, x in enumerate(point)])
