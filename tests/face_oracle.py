"""Brute-force face oracles: each sign vector of an arrangement decided
on its own, independent of the incremental enumeration in
`arrtop.realfaces`, and each face's adjacent chambers found by scanning
every chamber's signs."""

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


def adjacent_chambers_by_scan(fc, face_index):
    """Chambers whose sign vector agrees with the face's wherever the
    face's is nonzero, in index order."""
    sign = fc.faces[face_index].sign
    return tuple(c for c in fc.chambers
                 if all(s == 0 or s == t for s, t in zip(sign, fc.faces[c].sign)))
