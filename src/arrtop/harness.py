"""Theorem-derived verification suite.

Each check restates one dimension-level identity or inequality about
twisted Betti numbers as an exact integer comparison, evaluated on a
reproducible corpus of arrangements and abelian local systems.  There
are no tolerances: a check passes exactly or fails with full
reproduction data (ids plus the generating seed).

The corpus is deterministic in its seed, closed under entrywise matrix
inversion of local systems, and contains at least 100 nontrivial
systems per arrangement by default.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb

from . import geometry, localsys, realfaces, salvetti
from .exactla import FMatrixSparse, identity_matrix, mat_sub_identity, rank as matrix_rank
from .fields import FieldSpec
from .geometry import Arrangement, Hyperplane
from .localsys import LocalSystem, build_local_system, is_trivial


class PreconditionError(Exception):
    """A check was invoked on inputs outside its stated hypotheses."""


DEFAULT_PRIMES = (2, 3, 7, 101)

# ranks of the constant systems in every corpus and in constant_equality
CONSTANT_RANKS = (1, 2, 3)


@dataclass
class CheckReport:
    check: str
    arrangement: str
    system: str | None
    status: str            # pass / fail / skipped
    data: dict = dc_field(default_factory=dict)
    aux: str = ""

    def to_json(self):
        """The report's own fields, not a copy: a caller that adds one
        copies first."""
        return vars(self)


# ---------------------------------------------------------------------------
# named and generated arrangements


def _hyp(normal, offset, label):
    return Hyperplane(tuple(Fraction(x) for x in normal), Fraction(offset), label)


def named_arrangements():
    """The fixed examples every corpus contains."""
    build = Arrangement.build
    named = {
        "a1": build(1, [_hyp((1,), 0, "H1")]),
        "a2": build(1, [_hyp((1,), 0, "H1"), _hyp((1,), 1, "H2")]),
        "bool2": build(2, [_hyp((1, 0), 0, "x"), _hyp((0, 1), 0, "y")]),
        "gen3": build(2, [_hyp((1, 0), 0, "x"), _hyp((0, 1), 0, "y"),
                          _hyp((1, 1), 1, "x+y-1")]),
        "cen3": build(2, [_hyp((1, 0), 0, "x"), _hyp((0, 1), 0, "y"),
                          _hyp((1, -1), 0, "x-y")]),
    }
    return named


def braid_essentialized(m: int) -> Arrangement:
    """All x_i = x_j in C^m, quotiented by the diagonal."""
    hyps = []
    for i in range(m):
        for j in range(i + 1, m):
            normal = [Fraction(0)] * m
            normal[i], normal[j] = Fraction(1), Fraction(-1)
            hyps.append(Hyperplane(tuple(normal), Fraction(0), f"x{i + 1}-x{j + 1}"))
    return geometry.essentialize(Arrangement.build(m, hyps))


def _subseed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _sample(kind, d, n, seed, offset, accept) -> Arrangement:
    """The first essential arrangement `accept` takes among 64 seeded draws
    of d hyperplanes with normals in [-5, 5]^n and offsets `offset(rng)`."""
    rng = random.Random(seed)
    for _ in range(64):
        hyps = [Hyperplane(tuple(Fraction(rng.randint(-5, 5)) for _ in range(n)),
                           Fraction(offset(rng)), f"H{i + 1}") for i in range(d)]
        try:
            arr = Arrangement.build(n, hyps)
        except geometry.ArrangementError:
            continue
        if arr.is_essential and accept(arr):
            return arr
    raise RuntimeError(f"failed to sample a {kind} ({d},{n}) arrangement")


def _in_general_position(arr: Arrangement) -> bool:
    """An essential arrangement is in general position exactly when its
    Betti numbers are the binomial coefficients; the poset read here is the
    one the run would build for the arrangement anyway."""
    return geometry.betti_numbers(geometry.intersection_poset(arr)) == \
        [comb(arr.d, i) for i in range(arr.dim + 1)]


def random_generic(d: int, n: int, seed: int) -> Arrangement:
    """d hyperplanes in general position in C^n."""
    return _sample("generic", d, n, seed, lambda rng: rng.randint(-9, 9),
                   _in_general_position)


def random_central(d: int, n: int, seed: int) -> Arrangement:
    """d distinct hyperplanes through the origin, essential."""
    return _sample("central", d, n, seed, lambda rng: 0, lambda arr: True)


# ---------------------------------------------------------------------------
# corpus of local systems


# the corpus shape: braid sizes m, (d, n) of the random generic and random
# central arrangements, and the random systems drawn per arrangement
BRAID_SIZES = (3, 4)
GENERIC_SIZES = ((4, 2), (6, 2), (4, 3))
CENTRAL_SIZES = ((4, 3), (5, 3))
RANK1_Q_RANDOM = 6
RANK1_FP_RANDOM = 9
RANK2_DIAG_Q = 2
RANK2_DIAG_FP = 2


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic corpus description; expansion depends only on seed."""

    seed: int = 0
    primes: tuple = DEFAULT_PRIMES
    min_nontrivial: int = 100


@dataclass
class CorpusItem:
    arrangement_id: str
    arrangement: Arrangement
    systems: tuple        # of (system_id, LocalSystem)


def _id_frag(x) -> str:
    return str(x).replace("/", "_").replace("-", "m")


def _add_with_inverse(out, seen, sys_id, system) -> int:
    """Append the system and its inverse unless seen; returns how many."""
    added = 0
    for candidate_id, candidate in ((sys_id, system),
                                    (sys_id + "-inv", system.inverse_system())):
        if candidate not in seen:        # its content is hashed once and cached in _hash
            seen[candidate] = candidate_id
            out.append((candidate_id, candidate))
            added += 1
    return added


def _fp_scalars(rng, p, d) -> list:
    """d scalars in F_p^*, redrawn until one is not 1."""
    while True:
        scalars = [rng.randrange(1, p) for _ in range(d)]
        if any(s != 1 for s in scalars):
            return scalars


def _fp_diagonal(rng, p, d) -> list:
    """d diagonal 2 x 2 matrices with entries in 2..p-1, drawn row by row."""
    return [[[rng.randrange(2, p), 0], [0, rng.randrange(2, p)]] for _ in range(d)]


def systems_for_arrangement(arr: Arrangement, spec: CorpusSpec, arr_id: str):
    """Local systems attached to one arrangement, closed under inversion."""
    d = arr.d
    q = FieldSpec.rationals()
    out, seen = [], {}

    for r in CONSTANT_RANKS:
        out.append((f"const-r{r}", LocalSystem(q, r, (identity_matrix(q, r),) * d)))

    pool = [Fraction(2), Fraction(3), Fraction(5), Fraction(1, 2), Fraction(-1)]
    for s in pool:
        _add_with_inverse(out, seen, f"q1-eq-{_id_frag(s)}",
                          localsys.scalar_system(q, [s] * d))
    rng = random.Random(_subseed(spec.seed, arr_id, "q1"))
    for t in range(RANK1_Q_RANDOM):
        scalars = [pool[rng.randrange(len(pool))] for _ in range(d)]
        _add_with_inverse(out, seen, f"q1-rnd-{t}", localsys.scalar_system(q, scalars))

    if d >= 2:
        bal = [Fraction(2)] + [Fraction(1)] * (d - 2) + [Fraction(1, 2)]
        _add_with_inverse(out, seen, "q1-bal", localsys.scalar_system(q, bal))
        diag = [(Fraction(2), Fraction(3))] * (d - 1) + \
            [(Fraction(2) ** (1 - d), Fraction(3) ** (1 - d))]
        mats = [[[a, 0], [0, b]] for a, b in diag]
        _add_with_inverse(out, seen, "q2-bal", build_local_system(q, 2, mats))

    for p in spec.primes:
        if p == 2:
            continue
        fp = FieldSpec.prime(p)
        for s in sorted({2 % p, 3 % p, p - 1}):
            if s in (0, 1):
                continue
            _add_with_inverse(out, seen, f"f{p}1-eq-{s}",
                              localsys.scalar_system(fp, [s] * d))
        rng = random.Random(_subseed(spec.seed, arr_id, f"fp1-{p}"))
        for t in range(RANK1_FP_RANDOM):
            _add_with_inverse(out, seen, f"f{p}1-rnd-{t}",
                              localsys.scalar_system(fp, _fp_scalars(rng, p, d)))

    rng = random.Random(_subseed(spec.seed, arr_id, "q2"))
    for t in range(RANK2_DIAG_Q):
        mats = []
        for _ in range(d):
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            mats.append([[a, 0], [0, b]])
        _add_with_inverse(out, seen, f"q2-diag-{t}", build_local_system(q, 2, mats))

    for p in (7, 101):
        if p not in spec.primes:
            continue
        fp = FieldSpec.prime(p)
        rng = random.Random(_subseed(spec.seed, arr_id, f"fp2-{p}"))
        for t in range(RANK2_DIAG_FP):
            _add_with_inverse(out, seen, f"f{p}2-diag-{t}",
                              build_local_system(fp, 2, _fp_diagonal(rng, p, d)))

    uni = [[1, 1], [0, 1]]
    _add_with_inverse(out, seen, "q2-uni", build_local_system(q, 2, [uni] * d))
    for p in (2, 3, 7):
        if p in spec.primes:
            _add_with_inverse(out, seen, f"f{p}2-uni",
                              build_local_system(FieldSpec.prime(p), 2, [uni] * d))

    # top up with cheap prime-field systems until the nontrivial target
    odd_primes = [p for p in spec.primes if p > 2]
    if spec.min_nontrivial and odd_primes:
        p = max(odd_primes)
        fp = FieldSpec.prime(p)
        rng = random.Random(_subseed(spec.seed, arr_id, "topup"))
        attempt = 0
        # every top-up system and its inverse differ from the identity
        nontrivial = sum(1 for _, s in out if not is_trivial(s))
        while attempt < 20 * spec.min_nontrivial and nontrivial < spec.min_nontrivial:
            attempt += 1
            if attempt % 3:
                nontrivial += _add_with_inverse(out, seen, f"f{p}1-top-{attempt}",
                                                localsys.scalar_system(fp, _fp_scalars(rng, p, d)))
            else:
                nontrivial += _add_with_inverse(out, seen, f"f{p}2-top-{attempt}",
                                                build_local_system(fp, 2, _fp_diagonal(rng, p, d)))
    return tuple(out)


def generate_corpus(spec: CorpusSpec):
    """Deterministic corpus: named examples, essentialized braids, random
    generic and random central arrangements, each with its systems."""
    items = []
    arrangements = list(named_arrangements().items())
    for m in BRAID_SIZES:
        arrangements.append((f"braid{m}", braid_essentialized(m)))
    for d, n in GENERIC_SIZES:
        arrangements.append(
            (f"gen-{d}-{n}", random_generic(d, n, _subseed(spec.seed, "gen", d, n))))
    for d, n in CENTRAL_SIZES:
        arrangements.append(
            (f"cen-{d}-{n}", random_central(d, n, _subseed(spec.seed, "cen", d, n))))
    for arr_id, arr in arrangements:
        if not arr.is_essential:
            raise RuntimeError(f"corpus arrangement {arr_id} is not essential")
        items.append(CorpusItem(arr_id, arr, systems_for_arrangement(arr, spec, arr_id)))
    return items


# ---------------------------------------------------------------------------
# cached computation context


class VerifyContext:
    """Shared caches for one verification run: one table per fact, keyed
    by what decides it.  Arrangements have string ids, derived ones too
    (`|sec{k}`, `|dec{i}`, `|loc...`; no input id holds `|`).  Faces are
    enumerated once per arrangement for its covector set, the ambient dim
    with the face sign vectors in face order (canonical: a face's codim,
    the rank of the face poset above it, is a function of the set); there
    is one Salvetti complex per covector set, built from the faces of the
    first arrangement that has it, and twisted_betti runs once per
    (complex, system).  That is sound:
    the complex is built from the covectors alone (Salvetti 1987), and
    twisted_betti depends on it and the system only.

    Local systems key the tables themselves, by LocalSystem's equality
    (field, rank and every matrix), so equal systems share every entry and
    unequal ones never do.  One content table maps each system to the
    first object of its content met, the canonical one.  A system is made
    canonical where it enters the run: the corpus's, the constant ones
    check_constant_equality makes, and each inverse, restriction and
    descent, made by localsys once per (system, derivation), carrying its
    source's inverses.  So the checks pass canonical objects, and a lookup
    hashes a cached int and compares by identity; only `canonical` compares
    the matrices of a new object.

    One answer serves L and L.inverse_system(): every arrangement here has
    rational equations, so complex conjugation c is a homeomorphism of U
    acting by -1 on H_1(U), through which commuting monodromy factors, so
    c*L = L^-1 and H_*(U; L) ≅ H_*(U; L^-1) over Q and F_p, cohomology too
    (Dimca 2017).  c1_expected too: M_i and M_i^-1 fix the same vectors.
    """

    def __init__(self, seed: int, primes=DEFAULT_PRIMES):
        self.seed = seed
        self.primes = tuple(primes)
        self.arrangements = {}
        self.dimension1 = {}     # (arr_id, sys_id, system) -> dims, dimension-1 arrangements
        self._betti = {}
        self._complexes = {}     # (ambient dim, face sign vectors in face order) -> complex
        self._covectors = {}     # arr_id -> the complex of its covector set
        self._systems = {}       # system -> the canonical object of its content
        self._inverses = {}      # system -> its inverse system, both ways
        self._answers = {}       # (complex, system) -> twisted Betti numbers
        self._c1 = {}            # system -> c1_expected_dims of it
        self._locals = {}
        self._restricted = {}    # (system, index map) -> restricted system
        self._descended = {}     # (system, i0) -> descended system

    def canonical(self, system: LocalSystem) -> LocalSystem:
        """The first object met of the system's content."""
        return self._systems.setdefault(system, system)

    def inverse(self, system: LocalSystem) -> LocalSystem:
        """The system's canonical inverse system, made once per pair: the
        inverse of the inverse is the system itself."""
        inverse = self._inverses.get(system)
        if inverse is None:
            inverse = self.canonical(system.inverse_system())
            self._inverses[system], self._inverses[inverse] = inverse, system
        return inverse

    def register(self, arr_id: str, arr: Arrangement):
        """Input and derived arrangements alike; one too large is refused."""
        salvetti.check_size(arr, arr_id)
        self.arrangements[arr_id] = arr

    def arrangement(self, arr_id: str) -> Arrangement:
        return self.arrangements[arr_id]

    def poset(self, arr_id):
        return geometry.intersection_poset(self.arrangements[arr_id])

    def betti(self, arr_id):
        if arr_id not in self._betti:
            self._betti[arr_id] = geometry.betti_numbers(self.poset(arr_id))
        return self._betti[arr_id]

    def salvetti(self, arr_id):
        """The complex of the arrangement's covector set, (ambient dim,
        face sign vectors in face order); a new set has it built from this
        arrangement's faces."""
        sc = self._covectors.get(arr_id)
        if sc is None:
            fc = realfaces.enumerate_faces(self.arrangements[arr_id])
            key = (fc.arrangement.dim, tuple(f.sign for f in fc.faces))
            sc = self._complexes.get(key)
            if sc is None:
                sc = self._complexes[key] = salvetti.build_salvetti(fc)
            self._covectors[arr_id] = sc
        return sc

    def dims(self, arr_id, sys_id, system):
        # keyed on the complex and the system, so no answer is ever shared
        # by sys_id alone, and none is missed between equal systems
        sc = self.salvetti(arr_id)
        dims = self._answers.get((sc, system))
        if dims is None:
            dims = self._answers[sc, system] = salvetti.twisted_betti(sc, system)
            self._answers.setdefault((sc, self.inverse(system)), dims)
        if self.arrangements[arr_id].dim == 1:
            self.dimension1[arr_id, sys_id, system] = dims
        return dims

    def c1_expected(self, system):
        expected = self._c1.get(system)
        if expected is None:
            expected = self._c1[system] = c1_expected_dims(system)
            self._c1.setdefault(self.inverse(system), expected)
        return expected

    def section(self, arr_id, k):
        """The id of the certified generic k-section of the arrangement:
        its own id when k is its dimension."""
        arr = self.arrangements[arr_id]
        sec_id = arr_id if k == arr.dim else f"{arr_id}|sec{k}"
        if sec_id not in self.arrangements:
            self.register(sec_id, geometry.generic_section(
                arr, k, _subseed(self.seed, "section", arr_id, k)))
        return sec_id

    def localizations(self, arr_id):
        """(loc_id, index_map) per zero flat; the localized arrangement at
        a zero flat is central and essential."""
        if arr_id not in self._locals:
            poset = self.poset(arr_id)
            out = []
            for flat in geometry.zero_flats(poset):
                loc = geometry.localize(self.arrangements[arr_id], flat)
                index_map = tuple(sorted(flat.containing))
                loc_id = f"{arr_id}|loc" + "-".join(str(i) for i in index_map)
                self.register(loc_id, loc)
                out.append((loc_id, index_map))
            self._locals[arr_id] = tuple(out)
        return self._locals[arr_id]

    def restricted(self, system, index_map):
        """The system restricted along index_map (see localsys.restrict)."""
        key = (system, tuple(index_map))
        restricted = self._restricted.get(key)
        if restricted is None:
            restricted = self._restricted[key] = self.canonical(localsys.restrict(*key))
        return restricted

    def descended(self, arr_id, system, i0):
        """The system descended along deconing at hyperplane i0; the
        arrangement only lets localsys check that it descends."""
        key = (system, i0)
        descended = self._descended.get(key)
        if descended is None:
            descended = self._descended[key] = self.canonical(
                localsys.decone_system(self.arrangements[arr_id], *key))
        return descended

    def decone(self, arr_id, i0):
        m_id = f"{arr_id}|dec{i0}"
        if m_id not in self.arrangements:
            self.register(m_id, geometry.decone(self.arrangements[arr_id], i0))
        return m_id


# ---------------------------------------------------------------------------
# checks


def check_untwisted_match(ctx: VerifyContext, arr_id: str) -> CheckReport:
    """Regions are counted on the shared complex's faces, which may be
    another arrangement's with the same (ambient dim, covector set); both
    counts are functions of it.  Chambers are the sign vectors without a
    zero, and on an essential arrangement a closed chamber C is bounded
    exactly when Σ (-1)^dim F over its faces F ≤ C is 1 (0 when not),
    the face order and dims being read off the covectors.  The homology
    ranks repeat on purpose what the build's t = 1 gate proves, b_i = cells_i."""
    arr, b = ctx.arrangement(arr_id), ctx.betti(arr_id)
    chi = geometry.characteristic_polynomial(ctx.poset(arr_id))
    sc = ctx.salvetti(arr_id)
    data = {"betti": b, "regions": list(realfaces.region_counts(sc.fc)),
            "homology_q": salvetti.untwisted_homology(sc),
            "zaslavsky": list(geometry.zaslavsky_counts(chi, arr.is_essential))}
    for p in ctx.primes:
        data[f"homology_f{p}"] = salvetti.untwisted_homology(sc, FieldSpec.prime(p))
    ok = data["regions"] == data["zaslavsky"] and \
        all(hom == b for key, hom in data.items() if key.startswith("homology"))
    return CheckReport("untwisted_match", arr_id, None, "pass" if ok else "fail", data)


def check_constant_equality(ctx: VerifyContext, arr_id: str, r: int) -> CheckReport:
    """The build's t = 1 gate already proves r·cells_i = r·b_i on a minimal
    complex; the ranks are kept on purpose, as a second computation."""
    arr = ctx.arrangement(arr_id)
    q = FieldSpec.rationals()
    system = ctx.canonical(LocalSystem(q, r, (identity_matrix(q, r),) * arr.d))
    dims = ctx.dims(arr_id, f"const-r{r}", system)
    b = ctx.betti(arr_id)
    expected = [r * x for x in b]
    status = "pass" if dims == expected else "fail"
    return CheckReport("constant_equality", arr_id, f"const-r{r}", status,
                       {"dims": dims, "expected": expected})


def check_main_theorem(ctx: VerifyContext, arr_id: str, sys_id: str,
                       system: LocalSystem) -> CheckReport:
    arr = ctx.arrangement(arr_id)
    dims = ctx.dims(arr_id, sys_id, system)
    bound = [system.rank * x for x in ctx.betti(arr_id)]
    ok = all(dims[i] < bound[i] for i in range(arr.dim + 1))
    return CheckReport("main_theorem", arr_id, sys_id, "pass" if ok else "fail",
                       {"dims": dims, "strict_bound": bound})


def check_euler(ctx: VerifyContext, arr_id: str, sys_id: str,
                system: LocalSystem) -> CheckReport:
    dims = ctx.dims(arr_id, sys_id, system)
    b = ctx.betti(arr_id)
    twisted = sum((-1) ** i * x for i, x in enumerate(dims))
    untwisted = sum((-1) ** i * x for i, x in enumerate(b))
    ok = twisted == system.rank * untwisted
    return CheckReport("euler", arr_id, sys_id, "pass" if ok else "fail",
                       {"twisted_euler": twisted, "euler": untwisted,
                        "rank": system.rank})


def check_relative_section(ctx: VerifyContext, arr_id: str, sys_id: str,
                           system: LocalSystem) -> CheckReport:
    n = ctx.arrangement(arr_id).dim
    sec_id = ctx.section(arr_id, n - 1)
    dims_a = ctx.dims(arr_id, sys_id, system)
    dims_b = ctx.dims(sec_id, sys_id, system)
    r, b = system.rank, ctx.betti(arr_id)
    low_match = all(dims_a[i] == dims_b[i] for i in range(n - 1))
    relative = dims_b[n - 1] - dims_a[n - 1] + dims_a[n] == r * b[n]
    top_equal_implies = dims_a[n] != r * b[n] or dims_a[n - 1] == dims_b[n - 1]
    ok = low_match and relative and top_equal_implies
    return CheckReport("relative_section", arr_id, sys_id, "pass" if ok else "fail",
                       {"dims": dims_a, "section_dims": dims_b, "top_bound": r * b[n]})


def check_local_global(ctx: VerifyContext, arr_id: str, sys_id: str,
                       system: LocalSystem) -> CheckReport:
    arr = ctx.arrangement(arr_id)
    n = arr.dim
    dims_a = ctx.dims(arr_id, sys_id, system)
    local_sum = 0
    parts = []
    for loc_id, index_map in ctx.localizations(arr_id):
        local_dims = ctx.dims(loc_id, sys_id, ctx.restricted(system, index_map))
        local_sum += local_dims[n]
        parts.append(local_dims[n])
    if is_trivial(system):
        ok = dims_a[n] == local_sum
    else:
        ok = dims_a[n] >= local_sum
    return CheckReport("local_global", arr_id, sys_id, "pass" if ok else "fail",
                       {"top": dims_a[n], "local_tops": parts,
                        "constant": is_trivial(system)})


def check_nearby_section(ctx: VerifyContext, arr_id: str, sys_id: str,
                         system: LocalSystem, loc_id: str, index_map) -> CheckReport:
    arr = ctx.arrangement(arr_id)
    n = arr.dim
    sec_id = ctx.section(arr_id, n - 1)
    loc_sec_id = ctx.section(loc_id, n - 1)
    global_dims = ctx.dims(sec_id, sys_id, system)
    local_dims = ctx.dims(loc_sec_id, sys_id, ctx.restricted(system, index_map))
    ok = global_dims[n - 1] >= local_dims[n - 1]
    return CheckReport("nearby_section", arr_id, sys_id, "pass" if ok else "fail",
                       {"section_dim": global_dims[n - 1],
                        "local_section_dim": local_dims[n - 1]}, aux=loc_id)


def check_central_structure(ctx: VerifyContext, arr_id: str, sys_id: str,
                            system: LocalSystem) -> CheckReport:
    arr = ctx.arrangement(arr_id)
    n = arr.dim
    turn = localsys.total_turn(arr, system)
    dims_a = ctx.dims(arr_id, sys_id, system)
    if turn == identity_matrix(system.field, system.rank):
        if n == 1:
            expected = [system.rank * x for x in ctx.betti(arr_id)]
            ok = dims_a == expected
            return CheckReport("central_structure", arr_id, sys_id,
                               "pass" if ok else "fail",
                               {"case": "turn-identity", "dims": dims_a,
                                "expected": expected})
        details = {}
        ok = True
        for i0 in range(arr.d):
            m_id = ctx.decone(arr_id, i0)
            descended = ctx.descended(arr_id, system, i0)
            dims_m = ctx.dims(m_id, sys_id, descended)
            padded = list(dims_m) + [0]
            expected = [padded[k] + (padded[k - 1] if k else 0) for k in range(n + 1)]
            details[f"decone{i0}"] = dims_m
            ok = ok and dims_a == expected
        details.update({"case": "turn-identity", "dims": dims_a})
        return CheckReport("central_structure", arr_id, sys_id,
                           "pass" if ok else "fail", details)
    if matrix_rank(FMatrixSparse.from_rows(mat_sub_identity(system.field, turn)),
                   system.field) == system.rank:
        ok = all(x == 0 for x in dims_a)
        return CheckReport("central_structure", arr_id, sys_id,
                           "pass" if ok else "fail",
                           {"case": "turn-invertible-difference", "dims": dims_a})
    return CheckReport("central_structure", arr_id, sys_id, "skipped",
                       {"case": "turn-degenerate", "reason":
                        "total turn differs from the identity but T - I is singular"})


def check_lefschetz(ctx: VerifyContext, arr_id: str, sys_id: str,
                    system: LocalSystem, i: int) -> CheckReport:
    sec_id = ctx.section(arr_id, i)
    dims_a = ctx.dims(arr_id, sys_id, system)
    dims_b = ctx.dims(sec_id, sys_id, system)
    ok = dims_a[i] <= dims_b[i] and ctx.betti(sec_id)[i] == ctx.betti(arr_id)[i]
    return CheckReport("lefschetz", arr_id, sys_id, "pass" if ok else "fail",
                       {"degree": i, "dim": dims_a[i], "section_dim": dims_b[i]},
                       aux=f"i{i}")


def c1_expected_dims(system: LocalSystem):
    """Closed form on C^1 minus d points: b_0 is the dimension of the
    common fixed space of the monodromies, b_1 = r(d-1) + b_0."""
    r, d = system.rank, system.d
    stacked = [row for mat in system.monodromy
               for row in mat_sub_identity(system.field, mat)]
    b0 = r - matrix_rank(FMatrixSparse.from_rows(stacked), system.field)
    return [b0, r * (d - 1) + b0]


def check_c1_closed_form(ctx: VerifyContext, arr_id: str, sys_id: str,
                         system: LocalSystem, computed) -> CheckReport:
    expected = ctx.c1_expected(system)
    ok = list(computed[:2]) == expected and all(x == 0 for x in computed[2:])
    return CheckReport("c1_oracle", arr_id, sys_id, "pass" if ok else "fail",
                       {"dims": list(computed), "expected": expected})


# ---------------------------------------------------------------------------
# registry and runner


ARRANGEMENT, SYSTEM, DIMS_CACHE = "arrangement", "system", "dims-cache"


def _cached_dimension1(ctx):
    """(arr_id, sys_id, system, dims) per dimension-1 answer, sorted by
    ids, since systems have no order (file ids carry a `file:` prefix)."""
    return sorted(((*key, dims) for key, dims in ctx.dimension1.items()),
                  key=lambda entry: entry[:2])


@dataclass(frozen=True)
class Check:
    """One declared check.  `run` gets (ctx, arr_id) under scope ARRANGEMENT,
    (ctx, arr_id, sys_id, system) under SYSTEM, then each tuple of
    `expand(ctx, arr_id)`, where both predicates hold.  DIMS_CACHE runs
    last, once per tuple of `expand(ctx)`.

    The predicates `on_arrangement` and `on_system` are the check's
    hypotheses, stated here only: `run` assumes them and tests none, the
    runner calls it only where they hold, and `outside` reads them for
    inputs given explicitly."""

    statement: str
    run: Callable
    scope: str = SYSTEM
    on_arrangement: Callable = lambda arr: True
    on_system: Callable = lambda system: True
    expand: Callable = lambda ctx, arr_id: ((),)

    def outside(self, item) -> list:
        """The ids of a corpus item that the hypotheses exclude: the
        arrangement's first, then each excluded system's."""
        ids = [] if self.on_arrangement(item.arrangement) else [item.arrangement_id]
        return ids + [sys_id for sys_id, system in item.systems if not self.on_system(system)]


CHECKS = {
    "untwisted_match": Check(
        "Salvetti homology equals Whitney-sum Betti numbers; "
        "chamber counts match the characteristic-polynomial evaluations",
        check_untwisted_match, ARRANGEMENT, on_arrangement=lambda arr: arr.is_essential),
    "constant_equality": Check(
        "constant rank-r coefficients give exactly r times the "
        "untwisted Betti numbers in every degree",
        check_constant_equality, ARRANGEMENT,
        expand=lambda ctx, arr_id: ((r,) for r in CONSTANT_RANKS)),
    "main_theorem": Check(
        "nontrivial coefficients: b_i(U;L) < r*b_i(U) in every degree",
        check_main_theorem, on_arrangement=lambda arr: arr.is_essential,
        on_system=lambda system: not is_trivial(system)),
    "euler": Check(
        "alternating sum of twisted Betti numbers equals r times the "
        "Euler characteristic of the complement",
        check_euler),
    "relative_section": Check(
        "for a generic hyperplane section B: b_i agrees for i <= n-2 "
        "and b_{n-1}(B) - b_{n-1}(U) + b_n(U) = r*b_n(U)",
        check_relative_section, on_arrangement=lambda arr: arr.dim >= 2),
    "local_global": Check(
        "b_n(U;L) >= sum of b_n over localizations at 0-flats; "
        "equality for constant coefficients",
        check_local_global),
    "nearby_section": Check(
        "generic section of U dominates the generic section of "
        "each localization in degree n-1",
        check_nearby_section, on_arrangement=lambda arr: arr.dim >= 2,
        expand=lambda ctx, arr_id: ctx.localizations(arr_id)),
    "central_structure": Check(
        "central case: invertible (T - I) forces vanishing; "
        "T = I gives b_k(U) = b_k(M) + b_{k-1}(M) for every decone",
        check_central_structure,
        on_arrangement=lambda arr: arr.is_central and arr.is_essential),
    "lefschetz": Check(
        "generic i-section: b_i(U;L) <= b_i(B;L) and untwisted b_i agree",
        check_lefschetz,
        expand=lambda ctx, arr_id: ((i,) for i in range(1, ctx.arrangement(arr_id).dim + 1))),
    "c1_oracle": Check(
        "dimension-1 closed form: (dim ker-intersection, r(d-1) + same)",
        check_c1_closed_form, DIMS_CACHE, expand=_cached_dimension1),
}

ALL_CHECKS = tuple(CHECKS)


def run_verification(corpus, seed: int, checks=None, primes=DEFAULT_PRIMES):
    """Run the selected checks over a corpus; returns (reports, summary).

    Reports are sorted by (check, arrangement, system, aux); the summary
    counts pass, fail and skipped, in total and per selected check, and
    states each selected check once."""
    unknown = set(checks or ()) - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    selected = [name for name in ALL_CHECKS if not checks or name in checks]
    entries = [CHECKS[name] for name in selected]
    ctx = VerifyContext(seed, primes)
    items = []                           # (item, its systems as canonical objects)
    for item in corpus:
        ctx.register(item.arrangement_id, item.arrangement)
        items.append((item, [(sys_id, ctx.canonical(system)) for sys_id, system in item.systems]))
    reports = []
    for item, systems in items:
        aid = item.arrangement_id
        for check in entries:
            if check.scope == DIMS_CACHE or not check.on_arrangement(item.arrangement):
                continue
            subjects = [()] if check.scope == ARRANGEMENT else \
                [pair for pair in systems if check.on_system(pair[1])]
            reports.extend(check.run(ctx, aid, *subject, *extra)
                           for subject in subjects for extra in check.expand(ctx, aid))
    for check in entries:
        if check.scope == DIMS_CACHE:
            reports.extend(check.run(ctx, *args) for args in check.expand(ctx))
    reports.sort(key=lambda r: (r.check, r.arrangement, r.system or "", r.aux))
    by_check = {name: {"pass": 0, "fail": 0, "skipped": 0} for name in selected}
    for r in reports:
        by_check[r.check][r.status] += 1
    totals = Counter(r.status for r in reports)
    summary = {"total": len(reports), "passed": totals["pass"], "failed": totals["fail"],
               "skipped": totals["skipped"], "by_check": by_check, "seed": seed,
               "statements": {name: CHECKS[name].statement for name in selected}}
    return reports, summary


def reports_to_json(reports, summary):
    return {"reports": [r.to_json() for r in reports], "summary": summary}
