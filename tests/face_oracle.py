"""Brute-force face oracle: decides each sign vector of an arrangement on
its own, independent of the incremental enumeration in
`arrtop.realfaces`."""

from arrtop.feasibility import feasible_point


def sign_vector_realizable(arr, sigma):
    """Exact relative-interior witness for a sign vector, or None
    (equality solve plus strict feasibility)."""
    eqs, ineqs = [], []
    for s, h in zip(sigma, arr.hyperplanes):
        if s == 0:
            eqs.append((h.normal, h.offset))
        else:
            ineqs.append(([s * x for x in h.normal], s * h.offset, True))
    w = feasible_point(eqs, ineqs, arr.dim)
    return None if w is None else tuple(w)
