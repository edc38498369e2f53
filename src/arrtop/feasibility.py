"""Exact rational linear feasibility with witness extraction.

Decides a system of strict / weak inequalities on an affine flat over Q
and, when feasible, returns an exact rational point in its relative
interior.  The flat is the caller's, given as a point and a direction
basis, and the inequalities come already written in the flat's
coordinates as integer rows: the intersection poset keeps every
hyperplane's primitive row per flat, so nothing is projected here.
Fourier-Motzkin elimination runs on Python ints, dividing each combined
row by its content; positive scaling moves no bound, so the witness,
reconstructed by back-substitution through the eliminated variables,
does not depend on how the rows are scaled.  Problem dimensions here
are tiny (ambient dimension of an arrangement), so the doubling blowup
of elimination is irrelevant.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# An inequality is (coeffs, const, strict) with integer entries, meaning
# coeffs·u + const > 0 (strict) or >= 0.


def _eliminate(ineqs, nvars):
    """Fourier-Motzkin passes; returns per-level constraint lists or None
    if a constant constraint is violated."""
    levels = []
    current = ineqs
    for v in range(nvars - 1, -1, -1):
        levels.append(current)
        lowers, uppers, rest = [], [], []
        for a, c, strict in current:
            if a[v] > 0:
                lowers.append((a, c, strict))
            elif a[v] < 0:
                uppers.append((a, c, strict))
            else:
                rest.append((a, c, strict))
        new = list(rest)
        for la, lc, ls in lowers:
            for ua, uc, us in uppers:
                # u_v > -(l·u + lc)/la and u_v < ... combine:
                coef = [ua[j] * la[v] - la[j] * ua[v] for j in range(nvars)]
                coef[v] = 0
                const = uc * la[v] - lc * ua[v]
                g = gcd(const, *coef)
                if g > 1:
                    coef = [x // g for x in coef]
                    const //= g
                new.append((coef, const, ls or us))
        current = new
    for a, c, strict in current:
        if any(x != 0 for x in a):
            raise AssertionError("variable left after elimination")
        if strict and not c > 0:
            return None
        if not strict and not c >= 0:
            return None
    return levels


def _interval_pick(ineqs, v, partial):
    """Value for variable v; variables below v are already assigned.

    Constraints passed in come from the elimination level where only
    variables 0..v survive, so the interval is guaranteed nonempty.
    """
    lo = None
    hi = None
    for a, c, strict in ineqs:
        if a[v] == 0:
            continue
        rest = c + sum(a[j] * partial[j] for j in range(v) if a[j] != 0)
        bound = Fraction(-rest) / a[v]
        if a[v] > 0:
            if lo is None or bound > lo:
                lo = bound
        else:
            if hi is None or bound < hi:
                hi = bound
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1
    if hi is None:
        return lo + 1
    if lo == hi:
        # both weak, else elimination would have failed
        return lo
    return (lo + hi) / 2


def feasible_point(p, basis, rows):
    """Witness for {x = p + sum u_j·basis_j : rows hold}, or None.

    rows: list of (coeffs, const, strict) with integer entries in the
    flat's coordinates u, meaning coeffs·u + const > 0 (strict) or >= 0.
    """
    m = len(basis)
    reduced = []
    for a, c, strict in rows:
        if not any(a):
            if strict and not c > 0:
                return None
            if not strict and not c >= 0:
                return None
            continue
        reduced.append((a, c, strict))
    if m == 0:
        return tuple(p)
    levels = _eliminate(reduced, m)
    if levels is None:
        return None
    u = [Fraction(0)] * m
    # levels[i] holds the constraints before eliminating variable m-1-i
    for v in range(m):
        u[v] = _interval_pick(levels[m - 1 - v], v, u)
    x = list(p)
    for coef, vec in zip(u, basis):
        if coef != 0:
            x = [xi + coef * vi for xi, vi in zip(x, vec)]
    return tuple(x)
