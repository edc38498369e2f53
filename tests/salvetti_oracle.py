"""Oracles for `arrtop.salvetti.twisted_complex`, which specializes only
the complex reduced over Λ, over Q on ints times one scale.

The full boundary over Λ: a SalvettiComplex keeps only the reduced one,
so the oracles rebuild the full one with the build's first step,
`_full_complex`, and read each signed unit ±(1 + neg) as the polynomial
{packed exponent of neg: ±1}, the mask neg a 0/1 exponent vector.  Its
untwisted matrices at t = 1 are each entry's coefficient sum, ±1: the
oracle of `untwisted_homology`, which reads the reduced complex at the
constant system.  Its composition over Λ, which the build certifies
entry by entry without composing, is the reduced gate run on it.

The full twisted specialization of the Salvetti complex: every entry
of the full boundary over Λ becomes an r x r block, each monomial
c * t^e evaluated from its packed exponent as c times the transposed
product of M_i^e_i.  The matrices compose to zero because the build
gated the full boundary over Λ.

The plan's evaluation in field arithmetic: the reduced complex's
specialization itself, entries Fractions over Q, with no scale, each
monomial a triple-loop product of row-major matrices and each block
summed scalar by scalar.

The full boundary over Λ from sign tuples: G∘C composed sign by sign,
t^neg summed over the hyperplanes where C's sign is below G∘C's, and
the chamber G∘C found by its sign vector.  `build_salvetti` reads the
same entries off packed sign masks.

The greedy reduction: Gaussian elimination on unit entries of the full
boundary, with no matching fixed beforehand, the oracle of the build's
coreduction Morse rounds.  Its complex is another reduced complex of
the same arrangement, so the two agree in twisted Betti numbers, not in
matrices."""

from heapq import heapify, heappop, heappush

from arrtop.exactla import FMatrixSparse, complex_dims
from arrtop.localsys import identity_matrix, mat_inverse, mat_mul
from arrtop.salvetti import (_BIAS, _BITS, SalvettiComplex, TwistedComplex, _compile,
                             _full_complex, _orient, _out_of_range, _packing)


def cell_pairs(fc):
    """cells[k] = the (face, adjacent chamber) pairs of codim k, in the
    order of the full boundary's positions: by the face's sign vector,
    then the chamber's."""
    n = fc.arrangement.dim
    cells = [[] for _ in range(max(n - f.dim for f in fc.faces) + 1)]
    for f, face in enumerate(fc.faces):
        cells[n - face.dim] += [(f, c) for c in fc.adjacent_chambers(f)]
    for layer in cells:
        layer.sort(key=lambda cell: (fc.faces[cell[0]].sign, fc.faces[cell[1]].sign))
    return cells


def full_boundary(sc):
    """boundary[k][pos] = {target: {packed exponent: ±1}}, the full
    boundary over Λ on the cells of cell_pairs(sc.fc), built again from
    sc's faces."""
    boundary = as_polynomials(_full_complex(sc.fc)[0], sc.fc.arrangement.d)
    assert [len(layer) for layer in boundary] == sc.cell_counts
    assert sc.cell_counts == [len(layer) for layer in cell_pairs(sc.fc)]
    return boundary


def packed_mask(neg, d):
    """The packed exponent of the 0/1 vector with bit i of neg at t_i."""
    return _packing(d)[0] + sum(1 << (_BITS * i) for i in range(d) if neg >> i & 1)


def as_polynomials(boundary, d):
    """The full boundary with each signed unit ±(1 + neg) as the
    polynomial {packed_mask(neg): ±1}."""
    return [[{t: {packed_mask(abs(w) - 1, d): 1 if w > 0 else -1} for t, w in row.items()}
             for row in layer] for layer in boundary]


def full_untwisted_matrices(sc):
    """The full boundary matrices at t = 1: ±1 entries."""
    return untwisted_matrices(full_boundary(sc), sc.cell_counts)


def untwisted_matrices(boundary, counts):
    """Boundary matrices at t = 1 of boundary[k][pos] = {target: {packed
    exponent: coefficient}}, each entry the sum of its coefficients."""
    mats = []
    for k, layer in enumerate(boundary[1:], start=1):
        m = FMatrixSparse(counts[k - 1], counts[k])
        for pos, row in enumerate(layer):
            for target, poly in row.items():
                m.entries[target, pos] = sum(poly.values())
        mats.append(m)
    return mats


def full_untwisted_homology(sc, field):
    """Homology dims of the full complex at t = 1, padded like
    untwisted_homology; composition is checked over the field."""
    hom = complex_dims(full_untwisted_matrices(sc), sc.cell_counts, field).homology
    return hom + [0] * (sc.fc.arrangement.dim + 1 - len(hom))


def boundary_by_sign_tuples(sc):
    """boundary[k][pos] = {target: {packed exponent: ±1}} over the cells
    of cell_pairs(sc.fc)."""
    fc = sc.fc
    cells = cell_pairs(fc)
    by_sign = {f.sign: i for i, f in enumerate(fc.faces)}
    index = [{cell: i for i, cell in enumerate(layer)} for layer in cells]
    eps = _orient(fc)
    one, _ = _packing(fc.arrangement.d)
    boundary = [[{} for _ in cells[0]]]
    for k in range(1, len(cells)):
        layer = []
        for face, chamber in cells[k]:
            csign = fc.faces[chamber].sign
            entries = []
            for g, s in eps[face].items():
                dsign = tuple(x if x != 0 else c for x, c in zip(fc.faces[g].sign, csign))
                neg = sum(1 << (_BITS * i) for i, (a, b) in enumerate(zip(csign, dsign))
                          if a < b)
                entries.append((index[k - 1][g, by_sign[dsign]], {one + neg: s}))
            layer.append(dict(sorted(entries)))
        boundary.append(layer)
    return boundary


def full_twisted_complex(sc, system) -> TwistedComplex:
    arr = sc.fc.arrangement
    if system.d != arr.d:
        raise ValueError(f"system has {system.d} matrices, arrangement has {arr.d}")
    field, p = system.field, system.field.p
    r = system.rank
    ident = identity_matrix(field, r)
    mask = (1 << _BITS) - 1
    monomials = {}

    def monomial(m):
        """Product of M_i^e_i for the packed exponent m."""
        got = monomials.get(m)
        if got is None:
            got = ident
            for i in range(arr.d):
                e = ((m >> (_BITS * i)) & mask) - _BIAS
                for _ in range(abs(e)):
                    got = mat_mul(field, got, system.monodromy[i] if e > 0
                                  else system.inverse[i])
            monomials[m] = got
        return got

    counts = sc.cell_counts
    dims = [r * c for c in counts]
    boundary = full_boundary(sc)
    mats = []
    for k in range(1, len(counts)):
        m = FMatrixSparse(dims[k - 1], dims[k])
        for pos, row in enumerate(boundary[k]):
            for target, poly in row.items():
                if not 0 <= target < counts[k - 1]:
                    raise IndexError(f"boundary target {target} outside degree {k - 1}")
                for a in range(r):
                    for b in range(r):
                        # transposed
                        v = sum(c * monomial(e)[b][a] for e, c in poly.items())
                        if p:
                            v %= p
                        if v:
                            m.entries[r * target + a, r * pos + b] = v
        mats.append(m)
    return TwistedComplex(field, dims, mats)


def full_twisted_betti(sc, system):
    """Homology dims of the full specialization, padded like twisted_betti;
    composition is checked over the system's field, not taken from Λ."""
    tc = full_twisted_complex(sc, system)
    hom = complex_dims(tc.matrices, tc.dims, tc.field).homology
    return hom + [0] * (sc.fc.arrangement.dim + 1 - len(hom))


def _matmul(a, b, r, p):
    """Product of flat row-major r x r matrices, reduced mod p unless p is None."""
    out = [sum(a[i * r + l] * b[l * r + j] for l in range(r))
           for i in range(r) for j in range(r)]
    return [x % p for x in out] if p else out


def plan_twisted_complex(sc, system) -> TwistedComplex:
    """The reduced boundary's evaluation plan at the monodromy, each
    product in the field's own elements (Fraction over Q), reduced mod p
    once per product and once per entry; scale 1."""
    field, r, p = system.field, system.rank, system.field.p
    gens = {}

    def generator(i, s):
        got = gens.get((i, s))
        if got is None:
            m = system.monodromy[i] if s > 0 else mat_inverse(field, system.monodromy[i])
            got = gens[i, s] = m[0][0] if r == 1 else [x for row in m for x in row]
        return got

    if r == 1:
        vals = [field.one]
        for parent, g in sc.monomials:
            v = vals[parent] * generator(*sc.generators[g])
            vals.append(v % p if p else v)
    else:
        vals = [[field.one if i == j else field.zero for i in range(r) for j in range(r)]]
        for parent, g in sc.monomials:
            vals.append(_matmul(vals[parent], generator(*sc.generators[g]), r, p))

    dims = [r * len(layer) for layer in sc.boundary]
    mats = []
    for k, layer in enumerate(sc.rows, start=1):
        m = FMatrixSparse(dims[k - 1], dims[k])
        for target, pos, terms in ((t, pos, terms) for t, row in layer for pos, terms in row):
            block = [sum(c * (vals[j] if r == 1 else vals[j][x]) for j, c in terms)
                     for x in range(r * r)]
            for a in range(r):
                for b in range(r):
                    v = block[b * r + a]             # transposed
                    if p:
                        v %= p
                    if v:
                        m.entries[r * target + a, r * pos + b] = v
        mats.append(m)
    return TwistedComplex(field, dims, mats)


def unpruned_morse(boundary, pairs):
    """The Morse complex of a matching by plain Gaussian elimination over
    Λ, the oracle of `salvetti._morse`: pair by pair in the given order,
    every row with σ in its boundary, critical or not, becomes
    d - c·u⁻¹·d(τ), u = [∂τ : σ], then σ's row and τ's row and column are
    dropped.  No column is dropped before its products.  boundary is
    {target: {packed exponent: coefficient}} per row and stays as it is;
    the result has None for every matched cell, which `compacted` drops."""
    rows = [[dict(row) for row in layer] for layer in boundary]
    for k, s, t in pairs:
        tau = rows[k][t]
        ((a, cu),) = tau.pop(s).items()
        for x, row in enumerate(rows[k]):
            if row is None or x == t or s not in row:
                continue
            p = row.pop(s)
            for y, poly in tau.items():
                acc = dict(row.get(y, {}))
                for m, c in p.items():
                    for b, e in poly.items():
                        acc[m - a + b] = acc.get(m - a + b, 0) - c * cu * e
                acc = {m: c for m, c in acc.items() if c}
                if acc:
                    row[y] = acc
                else:
                    row.pop(y, None)
        rows[k][t] = rows[k - 1][s] = None
        for row in rows[k + 1] if k + 1 < len(rows) else ():
            if row is not None:
                row.pop(t, None)
    return rows


def greedy_reduce(rows, d):
    """Eliminate the unit entries of rows, degrees top down: Gaussian
    elimination over Λ, a chain homotopy equivalence for every abelian
    local system at once.

    In degree k the next cell σ of degree k - 1 is the one with the fewest
    current coboundary entries (a heap, invalidated lazily); its partner τ
    is its shortest coboundary cell whose entry u at σ is ±t^a.  Every other
    τ' with σ in its boundary becomes d(τ') - c'·u⁻¹·d(τ), c' its entry at
    σ; then τ and σ are dropped, with σ's boundary and τ's column one
    degree up.  rows is {target: {packed exponent: coefficient}} per row,
    worked on in place, a dropped cell's row None.  Returns the reduced
    boundary on the cells kept, `compacted`."""
    top_bits = _packing(d)[1]
    top = len(rows) - 1
    # cob[k][pos] = the cells of degree k + 1 with cell pos in their boundary
    cob = [[set() for _ in layer] for layer in rows]
    for k in range(1, top + 1):
        for pos, row in enumerate(rows[k]):
            for t in row or ():
                cob[k - 1][t].add(pos)

    for k in range(top, 0, -1):
        up, down = rows[k], cob[k - 1]
        heap = [(len(users), s) for s, users in enumerate(down)]
        heapify(heap)
        while heap:
            n, s = heappop(heap)
            users = down[s]
            if n != len(users):
                continue
            units = [t for t in users                      # entries ±t^a
                     if len(u := up[t][s]) == 1 and next(iter(u.values())) in (1, -1)]
            if not units:
                continue
            t = min(units, key=lambda t: (len(up[t]), t))
            row = up[t]
            up[t] = None
            ((mu, cu),) = row.pop(s).items()
            for x in row:
                down[x].discard(t)
            users.discard(t)
            for t2 in users:
                row2 = up[t2]
                # -c'·u⁻¹ = -c'·cu·t^(-a); qm + m below is then the packed
                # exponent of the product with a term t^m of d(τ)
                q = [(m - mu, -c * cu) for m, c in row2.pop(s).items()]
                for x, poly in row.items():
                    acc = row2.get(x)
                    if acc is None:
                        acc = row2[x] = {}
                        down[x].add(t2)
                    for qm, qc in q:
                        for m, c in poly.items():
                            key = qm + m
                            if key & top_bits:
                                raise _out_of_range()
                            v = acc.get(key, 0) + qc * c
                            if v:
                                acc[key] = v
                            else:
                                del acc[key]
                    if not acc:
                        del row2[x]
                        down[x].discard(t2)
            users.clear()
            if k > 1:
                for lam in rows[k - 1][s]:
                    cob[k - 2][lam].discard(s)
            rows[k - 1][s] = None
            if k < top:
                for rho in cob[k][t]:
                    del rows[k + 1][rho][t]
                cob[k][t] = set()
            for x in row:
                heappush(heap, (len(down[x]), x))

    return compacted(rows)


def compacted(rows):
    """rows with every None row dropped and each target renumbered onto
    the rows left one degree down, in position order, targets sorted."""
    new = [{pos: i for i, pos in enumerate(pos for pos, row in enumerate(layer)
                                            if row is not None)} for layer in rows]
    return [[{new[k - 1][t]: poly for t, poly in sorted(row.items())}
             for row in layer if row is not None] for k, layer in enumerate(rows)]


def greedy_complex(fc):
    """The SalvettiComplex of fc reduced by greedy_reduce alone, on the
    full boundary that `_full_complex` builds."""
    full = as_polynomials(_full_complex(fc)[0], fc.arrangement.d)
    counts = [len(layer) for layer in full]
    boundary = greedy_reduce(full, fc.arrangement.d)
    return SalvettiComplex(fc, counts, boundary, *_compile(boundary, fc.arrangement.d))
