"""Full-matrix oracles for `LocalSystem`'s block-by-block validation and
inversion: every pair of distinct monodromy matrices multiplied both
ways at full size, and every distinct matrix inverted whole by
Gauss-Jordan (`exactla.mat_inverse`).  Neither reads the partition."""

from arrtop.exactla import mat_inverse, mat_mul


def first_noncommuting_pair(field, matrices):
    """The 1-based (i, j) that the commutation check must name: j is the
    first hyperplane whose matrix fails to commute with the matrix of an
    earlier distinct one, i the first such; None when all commute."""
    first = {}                           # distinct matrix -> first hyperplane
    for j, m in enumerate(matrices):
        if m in first:
            continue
        for other, i in first.items():
            if mat_mul(field, other, m) != mat_mul(field, m, other):
                return i + 1, j + 1
        first[m] = j
    return None


def full_inverses(field, matrices):
    """Each matrix inverted whole; ValueError when one is singular."""
    return tuple(mat_inverse(field, m) for m in matrices)
