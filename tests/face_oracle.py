"""Face oracles for `arrtop.realfaces`.

Brute force: each sign vector of an arrangement decided on its own,
independent of the incremental enumeration and of the intersection
poset it reads: each face's dimension by a rank, its covers and its
adjacent chambers by scanning every face's signs.  Beside them, the
same incremental enumeration in Fraction arithmetic: every hyperplane
evaluated at every witness by `affine_value`, walk and segment steps
and LP witnesses on Fractions, on each flat's frame read as a rational
point and directions.  The integer enumeration must reproduce its
faces, witnesses included: each as the primitive (W, D) of the Fraction
witness.  Boundedness by one strict integer LP per face (Stiemke's
alternative), and by the face's sign vector alone: the vertices and
rays in its closure."""

from fractions import Fraction
from math import lcm

from arrtop import feasibility
from arrtop.exactla import dot
from arrtop.feasibility import _eliminate
from arrtop.geometry import intersection_poset, primitive_row
from arrtop.realfaces import Face

from dense_rank_oracle import rank_dense
from poset_oracle import affine_value, frame_as_fractions, solve_affine


def _interval_pick(ineqs, v, partial):
    """Value for variable v as a Fraction; variables below v are already
    assigned."""
    lo = hi = None
    for a, c in ineqs:
        if a[v] == 0:
            continue
        bound = Fraction(-(c + sum(a[j] * partial[j] for j in range(v)))) / a[v]
        if a[v] > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1
    if hi is None:
        return lo + 1
    return (lo + hi) / 2


def feasible_point(p, basis, rows):
    """`arrtop.feasibility.feasible_point` in Fraction arithmetic: the
    flat as a rational point p and directions, the same elimination, the
    bounds and the witness p + sum u_j·basis_j as Fractions."""
    if any(not any(a) and c <= 0 for a, c in rows):
        return None
    reduced = [(a, c) for a, c in rows if any(a)]
    m = len(basis)
    if m == 0:
        return tuple(p)
    levels = _eliminate(reduced, m)
    if levels is None:
        return None
    u = [Fraction(0)] * m
    for v in range(m):
        u[v] = _interval_pick(levels[m - 1 - v], v, u)
    return tuple(x + sum(c * vec[i] for c, vec in zip(u, basis)) for i, x in enumerate(p))


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
            row = [s * dot(h.normal, v) for v in basis] + [s * affine_value(h, point)]
            scale = lcm(*(x.denominator for x in row))
            row = [int(x * scale) for x in row]
            rows.append((row[:-1], row[-1]))
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


def cover_pairs(fc):
    """The pairs (i, j) with faces[j] covering faces[i], read off fc.covering
    in face order, as covers_by_scan lists them."""
    return tuple((i, j) for i, covers in enumerate(fc.covering) for j in covers)


def adjacent_chambers_by_scan(fc, face_index):
    """Chambers whose sign vector agrees with the face's wherever the
    face's is nonzero, in index order."""
    sign = fc.faces[face_index].sign
    return tuple(c for c in fc.chambers
                 if all(s == 0 or s == t for s, t in zip(sign, fc.faces[c].sign)))


def _sign(x):
    return (x > 0) - (x < 0)


def faces_by_fractions(arr):
    """The faces of the arrangement, sorted by (codim, sign), split one
    hyperplane at a time with witnesses in Fraction arithmetic."""
    n = arr.dim
    poset = intersection_poset(arr)
    flats, meet, rows = poset.by_containing, poset.meet, poset.rows
    frames = {key: frame_as_fractions(frame) for key, frame in poset.frames.items()}
    origin = tuple(Fraction(0) for _ in range(n))
    faces = [((), origin, frozenset())]      # (sign, witness, containing set of its flat)
    for k, h in enumerate(arr.hyperplanes):
        split = []
        for sigma, w, flat in faces:
            sw = _sign(affine_value(h, w))
            zero_flat = meet.get((flat, k))
            if zero_flat is None:
                split.append((sigma + (sw,), w, flat))
                continue
            strict = [(i, arr.hyperplanes[i]) for i, s in enumerate(sigma) if s != 0]
            if sw == 0:
                split.append((sigma + (0,), w, zero_flat))
                v = next(v for v in frames[flat][1] if dot(h.normal, v) != 0)
                t = Fraction(1)
                for i, hp in strict:
                    move = dot(hp.normal, v)
                    if move != 0:
                        t = min(t, sigma[i] * affine_value(hp, w) / (2 * abs(move)))
                for eps in (t, -t):
                    pt = tuple(x + eps * y for x, y in zip(w, v))
                    split.append((sigma + (_sign(affine_value(h, pt)),), pt, flat))
            else:
                split.append((sigma + (sw,), w, flat))
                zrows = rows[zero_flat]
                zero_w = feasible_point(*frames[zero_flat], [
                    ([sigma[i] * x for x in zrows[i][0]], sigma[i] * zrows[i][1])
                    for i, _ in strict])
                if zero_w is not None:
                    split.append((sigma + (0,), zero_w, zero_flat))
                    delta = Fraction(1)
                    for i, hp in strict:
                        gw = sigma[i] * affine_value(hp, w)
                        gz = sigma[i] * affine_value(hp, zero_w)
                        if gw > gz:
                            delta = min(delta, gz / (2 * (gw - gz)))
                    far = tuple(z + delta * (z - x) for x, z in zip(w, zero_w))
                    split.append((sigma + (-sw,), far, flat))
        faces = split
    faces.sort(key=lambda f: (-flats[f[2]].codim, f[0]))
    return tuple(Face(sigma, n - flats[flat].codim, primitive_row((*w, 1)))
                 for sigma, w, flat in faces)


def is_bounded_by_rays(fc, face_index):
    """Whether the face is bounded, by sign vectors alone: its closure, the
    faces whose signs are its own or 0, is a polyhedron, bounded exactly
    when it has a vertex (so holds no line) and no ray, an edge closed by
    fewer than two vertices, since a pointed polyhedron with a recession
    direction has an unbounded edge.  Needs no essential arrangement."""
    def closure(sigma):
        return [g for g in fc.faces if all(t in (0, s) for s, t in zip(sigma, g.sign))]

    faces = closure(fc.faces[face_index].sign)
    return any(g.dim == 0 for g in faces) and all(
        sum(v.dim == 0 for v in closure(e.sign)) == 2 for e in faces if e.dim == 1)


def is_bounded_by_lp(fc, face_index):
    """Whether the face is bounded: its recession cone, the directions u
    of its flat with a_i·u >= 0 for a_i = s_i·A_i, each strict sign s_i,
    is {0}.  On an essential arrangement the restriction to any flat is
    essential, so a_i·u = 0 for all i only at u = 0, and by Stiemke's
    alternative the cone is {0} exactly when some y > 0 has sum y_i·a_i = 0:
    one strict LP on the kernel of the poset's integer rows.  On a
    non-essential one every face holds a line."""
    arr = fc.arrangement
    if not arr.is_essential:
        return False
    sigma = fc.faces[face_index].sign
    rows = intersection_poset(arr).rows[frozenset(i for i, s in enumerate(sigma) if s == 0)]
    cone = [tuple(s * x for x in rows[i][0]) for i, s in enumerate(sigma) if s != 0]
    _, kernel = solve_affine([(column, 0) for column in zip(*cone)], len(cone))
    kernel = [primitive_row(v) for v in kernel]
    return feasibility.feasible_point((0,) * len(cone) + (1,), [(*v, 0) for v in kernel],
                                      [(tuple(v[i] for v in kernel), 0)
                                       for i in range(len(cone))]) is not None
