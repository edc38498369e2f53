"""Brute-force face oracles: each sign vector of an arrangement decided
on its own, independent of the incremental enumeration in
`arrtop.realfaces` and of the intersection poset it reads: each face's
dimension by a rank, its covers and its adjacent chambers by scanning
every face's signs."""

from arrtop.exactla import rank_dense, solve_affine
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
    sol = solve_affine(eqs, arr.dim)
    if sol is None:
        return None
    return feasible_point(*sol, ineqs)


def face_dim(arr, sigma):
    """n minus the rank of the normals of the hyperplanes the face lies on."""
    zero_normals = [h.normal for s, h in zip(sigma, arr.hyperplanes) if s == 0]
    return arr.dim - rank_dense(zero_normals)


def covers_by_scan(faces):
    """Pairs (i, j) with faces[i] covered by faces[j], over all pairs:
    one dimension up, with every nonzero sign kept."""
    return tuple((i, j) for i, lo in enumerate(faces) for j, hi in enumerate(faces)
                 if hi.dim == lo.dim + 1
                 and all(s == 0 or s == t for s, t in zip(lo.sign, hi.sign)))


def adjacent_chambers_by_scan(fc, face_index):
    """Chambers whose sign vector agrees with the face's wherever the
    face's is nonzero, in index order."""
    sign = fc.faces[face_index].sign
    return tuple(c for c in fc.chambers
                 if all(s == 0 or s == t for s, t in zip(sign, fc.faces[c].sign)))
