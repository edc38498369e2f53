"""Brute-force face oracles: each sign vector of an arrangement decided
on its own, independent of the incremental enumeration in
`arrtop.realfaces` and of the intersection poset it reads: each face's
dimension by a rank, its covers and its adjacent chambers by scanning
every face's signs."""

from math import lcm

from arrtop.exactla import dot, rank_dense, solve_affine
from arrtop.feasibility import feasible_point


def sign_vector_realizable(arr, sigma):
    """Exact relative-interior witness for a sign vector, or None
    (equality solve, then strict feasibility on rows projected here)."""
    eqs = [(h.normal, h.offset) for s, h in zip(sigma, arr.hyperplanes) if s == 0]
    sol = solve_affine(eqs, arr.dim)
    if sol is None:
        return None
    point, basis = sol
    rows = []
    for s, h in zip(sigma, arr.hyperplanes):
        if s != 0:
            row = [s * dot(h.normal, v) for v in basis] + [s * h.eval(point)]
            scale = lcm(*(x.denominator for x in row))
            row = [int(x * scale) for x in row]
            rows.append((row[:-1], row[-1], True))
    return feasible_point(point, basis, rows)


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
