"""A verification run builds one Salvetti complex per covector set and
takes twisted_betti once per covector set and pair {system, inverse}.

The premises: twisted Betti numbers depend on the covectors alone,
checked on affine images, and a system and its inverse have the same
ones, checked on every pair a run asks for by the slow path.  Then the
answers a run gives, and the region counts on the faces its shared
complexes hold, against those of each arrangement's own faces, and the
work the run does, counted.  The reports of the seed 0, 1 and 2 runs are
pinned by their sha256.  The run's tables key on the systems, one
canonical object per content: the systems it makes, hashes and compares
are counted, and LocalSystem equality by identity or by (field, rank)
fails the answer count, the run or the report pin."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from arrtop import cli, harness, localsys, salvetti
from arrtop.fields import FieldSpec
from arrtop.geometry import Arrangement, Hyperplane
from arrtop.harness import (CorpusSpec, braid_essentialized, generate_corpus, random_generic,
                            run_verification)
from arrtop.localsys import LocalSystem, build_local_system, scalar_system
from arrtop.realfaces import enumerate_faces, region_counts
from arrtop.salvetti import build_salvetti, twisted_betti

from dense_rank_oracle import rank_dense
from salvetti_oracle import full_boundary

Q, F7 = FieldSpec.rationals(), FieldSpec.prime(7)
SMALL = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)]


def affine_image(arr, rng):
    """arr in the coordinates y of x = A·y + b, A a random invertible
    rational matrix, each equation then times a random positive rational:
    H_i at x and its image at y have one sign, so the sign vectors stay."""
    n = arr.dim
    while True:
        a = [[rng.choice(SMALL) for _ in range(n)] for _ in range(n)]
        if rank_dense(a) == n:
            break
    b = [rng.choice(SMALL) for _ in range(n)]
    hyps = []
    for h in arr.hyperplanes:
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        normal = tuple(lam * sum(h.normal[i] * a[i][j] for i in range(n)) for j in range(n))
        offset = lam * (h.offset - sum(x * y for x, y in zip(h.normal, b)))
        hyps.append(Hyperplane(normal, offset, h.label))
    return Arrangement.build(n, hyps)


def some_systems(d, rng):
    """Commuting systems of rank 1 and 2 over Q and over F_7."""
    pool = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1)]
    units = [(rng.randrange(1, 7), rng.randrange(7)) for _ in range(d)]
    return (scalar_system(Q, [rng.choice(pool) for _ in range(d)]),
            scalar_system(F7, [rng.randrange(1, 7) for _ in range(d)]),
            build_local_system(Q, 2, [[[rng.choice(pool), 0], [0, rng.choice(pool)]]
                                      for _ in range(d)]),
            build_local_system(F7, 2, [[[c, c * k], [0, c]] for c, k in units]))


def test_twisted_betti_depend_only_on_the_covectors():
    # the seed-0 corpus, braid4 and generic lines in the plane
    rng = random.Random(0)
    arrs = [item.arrangement for item in generate_corpus(CorpusSpec(seed=0))]
    arrs += [braid_essentialized(4)] + [random_generic(6, 2, s) for s in range(3)]
    for arr in arrs:
        image = affine_image(arr, rng)
        assert image.hyperplanes != arr.hyperplanes
        fc, fc_image = enumerate_faces(arr), enumerate_faces(image)
        assert sorted(f.sign for f in fc.faces) == sorted(f.sign for f in fc_image.faces)
        sc, sc_image = build_salvetti(fc), build_salvetti(fc_image)
        assert full_boundary(sc) == full_boundary(sc_image)
        assert sc.boundary == sc_image.boundary
        for system in some_systems(arr.d, rng):
            assert twisted_betti(sc, system) == twisted_betti(sc_image, system)


def test_the_covector_key_holds_the_ambient_dimension():
    # x = 0 in C^1 and in C^2 have one sign vector set but differ in b_2
    ctx = harness.VerifyContext(seed=0)
    for n in (1, 2):
        ctx.register(f"c{n}", Arrangement.build(n, [Hyperplane(
            tuple(Fraction(int(j == 0)) for j in range(n)), Fraction(0), "x")]))
    assert ctx.salvetti("c1") is not ctx.salvetti("c2")
    system = scalar_system(Q, [Fraction(1)])
    assert (ctx.dims("c1", "t", system), ctx.dims("c2", "t", system)) == ([1, 1], [1, 1, 0])


@pytest.fixture
def contexts(monkeypatch):
    """Every VerifyContext that run_verification makes, in order, each
    recording in `asked` what its dims() returned per (arr_id, sys_id, system)."""
    made = []

    class Recorded(harness.VerifyContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.asked = {}
            made.append(self)

        def dims(self, arr_id, sys_id, system):
            self.asked[arr_id, sys_id, system] = super().dims(arr_id, sys_id, system)
            return self.asked[arr_id, sys_id, system]

    monkeypatch.setattr(harness, "VerifyContext", Recorded)
    return made


def covector_key(arr):
    fc = enumerate_faces(arr)
    return fc.arrangement.dim, tuple(sorted(f.sign for f in fc.faces))


# sha256 of the report `verify --all --seed S --out` writes, S = 0 and
# then S = 1, 2; a change that changes reports updates them and says so
SEED0_REPORT_SHA256 = "16914136e3930aa949762a58e07d12694b22e5ce23aba04457b2aaff86f527a7"
REPORT_SHA256 = {1: "9b5a65560f278954aeff0d4a43017bc265ab9bd603bc9260c9d0681474a4cf06",
                 2: "089cfda34399cd910fbe753fb62313f7682bc0329f57a447fc41d08c4955087c"}


def test_every_cached_answer_is_its_own_arrangements_answer(contexts):
    reports, summary = run_verification(generate_corpus(CorpusSpec(seed=0)), seed=0)
    text = cli._report_text(harness.reports_to_json(reports, summary))
    assert hashlib.sha256(text.encode()).hexdigest() == SEED0_REPORT_SHA256
    (ctx,) = contexts
    fresh = {}
    for (arr_id, sys_id, system), dims in ctx.asked.items():
        if arr_id not in fresh:
            fresh[arr_id] = build_salvetti(enumerate_faces(ctx.arrangement(arr_id)))
            assert fresh[arr_id].fc.arrangement is ctx.arrangement(arr_id)
        assert dims == twisted_betti(fresh[arr_id], system), (arr_id, sys_id)
    # not vacuous: some arrangements were answered on another one's complex
    assert any(ctx.salvetti(arr_id).fc.arrangement is not ctx.arrangement(arr_id)
               for arr_id in fresh)


def test_one_build_per_covector_set_and_one_answer_per_system(contexts, call_counter):
    # the run keys complexes on the face signs in face order, the oracle
    # key on the sorted signs: the two must share the same complexes
    builds = call_counter(salvetti, "build_salvetti")
    answers = call_counter(salvetti, "twisted_betti")
    for seed, sets in ((0, 48), (1, 49), (2, 47)):
        del builds[:], answers[:]
        run_verification(generate_corpus(CorpusSpec(seed=seed)), seed=seed)
        ctx = contexts[-1]
        key = {arr_id: covector_key(arr) for arr_id, arr in ctx.arrangements.items()}
        assert len(ctx.arrangements) == len(key) == 120
        assert len(builds) == len(set(key.values())) == sets
        assert len({id(ctx.salvetti(arr_id)) for arr_id in key}) == sets
        assert len(answers) == len({(key[arr_id], frozenset((system, system.inverse_system())))
                                    for arr_id, _sys_id, system in ctx.asked})
        if seed == 0:
            assert len(ctx.asked) == 10423
            assert len({(key[arr_id], system) for arr_id, _sys_id, system in ctx.asked}) == 5999
            assert len(answers) == 3318


def test_region_counts_on_the_shared_complex_are_each_arrangements_own(contexts):
    run_verification(generate_corpus(CorpusSpec(seed=0)), seed=0)
    (ctx,) = contexts
    shared = 0
    for arr_id, arr in ctx.arrangements.items():
        fc = ctx.salvetti(arr_id).fc
        shared += fc.arrangement is not arr
        assert region_counts(fc) == region_counts(enumerate_faces(arr)), arr_id
    assert shared > 0


def test_c1_oracle_once_per_distinct_system_in_each_run(contexts, call_counter):
    oracle = call_counter(harness, "c1_expected_dims")
    corpus = generate_corpus(CorpusSpec(seed=0))[:4]
    expected = 0
    for run in range(2):
        reports, _summary = run_verification(corpus, seed=0, checks=("lefschetz", "c1_oracle"))
        ctx = contexts[run]
        assert ctx.dimension1 == {key: dims for key, dims in ctx.asked.items()
                                  if ctx.arrangement(key[0]).dim == 1}
        systems = [system for _arr_id, _sys_id, system in ctx.dimension1]
        assert all(ctx.canonical(system) is system for system in systems)
        pairs = {frozenset((system, system.inverse_system())) for system in systems}
        c1_reports = sum(1 for r in reports if r.check == "c1_oracle")
        assert c1_reports > len(set(systems)) > len(pairs) > 0  # systems repeat across ids
        assert all(args[0] is ctx.canonical(args[0]) for args in oracle[expected:])
        expected += len(pairs)                                  # nothing kept across runs
        assert len(oracle) == expected


def test_one_restricted_system_per_system_and_index_map(contexts, call_counter, monkeypatch):
    restrict, restricts = localsys.restrict, call_counter(localsys, "restrict")
    corpus, checks = generate_corpus(CorpusSpec(seed=0)), ("local_global", "nearby_section")
    reports, _summary = run_verification(corpus, seed=0, checks=checks)
    (ctx,) = contexts
    # one entry per (system, index map), each the restriction made afresh;
    # restrict runs once per entry, and equal restrictions share one object
    assert len(ctx._restricted) == len(restricts) == 3790
    assert all(restricted == restrict(system, index_map)
               for (system, index_map), restricted in ctx._restricted.items())
    assert restricts == list(ctx._restricted)
    assert len(set(ctx._restricted.values())) == 1805
    assert len({id(r) for r in ctx._restricted.values()}) == 1805
    uses = sum(len(r.data["local_tops"]) if r.check == "local_global" else 1 for r in reports)
    assert uses > len(ctx._restricted)                     # pairs repeat across reports
    # the same reports with every restricted system made afresh
    monkeypatch.setattr(harness.VerifyContext, "restricted",
                        lambda self, system, index_map: localsys.restrict(system, index_map))
    fresh, _summary = run_verification(corpus, seed=0, checks=checks)
    assert len(restricts) == 3790 + uses
    assert [r.to_json() for r in fresh] == [r.to_json() for r in reports]


@pytest.mark.parametrize("seed", [1, 2])
def test_reports_at_seeds_1_and_2_are_pinned(seed):
    reports, summary = run_verification(generate_corpus(CorpusSpec(seed=seed)), seed=seed)
    text = cli._report_text(harness.reports_to_json(reports, summary))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[seed]


def pair_mismatches(ctx):
    """The slow path on both members of every pair the run asked for: per
    (arr_id, sys_id, system) asked, twisted_betti on the run's complex at
    the system and at its inverse system, each (complex, system) computed
    afresh once.  Returns (arr_id, sys_id, run's answer, direct, inverse)
    wherever the three are not equal."""
    fresh, out = {}, []

    def direct(arr_id, system):
        key = (ctx.salvetti(arr_id), system)
        if key not in fresh:
            fresh[key] = twisted_betti(ctx.salvetti(arr_id), system)
        return fresh[key]

    for (arr_id, sys_id, system), dims in ctx.asked.items():
        answers = (dims, direct(arr_id, system), direct(arr_id, system.inverse_system()))
        if not answers[0] == answers[1] == answers[2]:
            out.append((arr_id, sys_id) + answers)
    return out


# twisted_betti calls of `verify --all --seed S`: 5999, 6043 and 6067
# before one answer served each pair {L, L^-1}
PAIR_CALLS = {0: 3318, 1: 3362, 2: 3342}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_answer_per_pair_agrees_with_the_slow_path_on_both_members(
        seed, contexts, call_counter, tmp_path):
    answers = call_counter(salvetti, "twisted_betti")
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--all", "--seed", str(seed), "--out", str(out)]) == 0
    pinned = SEED0_REPORT_SHA256 if seed == 0 else REPORT_SHA256[seed]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned
    (ctx,) = contexts
    pairs = {(ctx.salvetti(arr_id), frozenset((system, system.inverse_system())))
             for arr_id, _sys_id, system in ctx.asked}
    assert len(answers) == len(pairs) == PAIR_CALLS[seed]
    # both members were asked for in most pairs, so most answers served two
    asked = {(ctx.salvetti(arr_id), system) for arr_id, _sys_id, system in ctx.asked}
    assert len(asked) > 1.7 * len(pairs)
    assert pair_mismatches(ctx) == []


def test_the_pair_oracle_fails_when_t_inverse_is_evaluated_at_m(contexts, monkeypatch):
    # a mutation no gate sees: each t_i^-1 evaluated at M_i, not M_i^-1
    real = salvetti.twisted_complex
    monkeypatch.setattr(salvetti, "twisted_complex", lambda sc, system: real(
        sc, localsys._derived(system, system.monodromy, system.monodromy)))
    run_verification(generate_corpus(CorpusSpec(seed=0)), seed=0)
    (ctx,) = contexts
    assert pair_mismatches(ctx)


# ---------------------------------------------------------------------------
# the run's tables key on the systems themselves, one canonical object per
# content, so every lookup after the first compares by identity


def count_system_work(monkeypatch):
    """Counts each LocalSystem made (built or derived) under "made", and
    each call of its __hash__ and __eq__ under "hash" and "eq"."""
    counts = Counter()

    def counting(kind, real):
        def counted(*args):
            counts[kind] += 1
            return real(*args)
        return counted

    for owner, name, kind in ((LocalSystem, "__post_init__", "made"),
                              (localsys, "_derived", "made"),
                              (LocalSystem, "__hash__", "hash"),
                              (LocalSystem, "__eq__", "eq")):
        monkeypatch.setattr(owner, name, counting(kind, getattr(owner, name)))
    return counts


# systems made, and their __hash__ and __eq__ calls, in `verify --all
# --seed 0`, corpus generation included.  Earlier designs: 10154, 106984
# and 38882 when tables keyed on whatever object a check passed; 6946,
# 9298 and 4721 with int ids, each derivation made before it was
# interned; 2802, 2734 and 322 with derivations found by a content key
# before any system was made.  Now each derivation is made once per
# (system, derivation) and each hash returns a cached int.
SEED0_SYSTEM_WORK = {"made": 6946, "hash": 72817, "eq": 4721}


def test_the_run_makes_hashes_and_compares_systems_as_pinned(monkeypatch, call_counter,
                                                            tmp_path):
    counts = count_system_work(monkeypatch)
    answers = call_counter(salvetti, "twisted_betti")
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--all", "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SEED0_REPORT_SHA256
    assert dict(counts) == SEED0_SYSTEM_WORK
    assert len(answers) == PAIR_CALLS[0]


def test_the_engine_and_derivations_get_one_object_per_content(contexts, call_counter):
    calls = {f"{module.__name__}.{name}": call_counter(module, name)
             for module, name in ((salvetti, "twisted_betti"), (localsys, "restrict"),
                                  (localsys, "decone_system"), (localsys, "total_turn"))}
    run_verification(generate_corpus(CorpusSpec(seed=0)), seed=0)
    (ctx,) = contexts
    assert all(key is system for key, system in ctx._systems.items())
    canonical = {id(system) for system in ctx._systems}
    for name, args in calls.items():
        got = [arg for call in args for arg in call if isinstance(arg, LocalSystem)]
        assert got and all(id(system) in canonical for system in got), name
    for _arr_id, _sys_id, system in ctx.asked:
        assert ctx.canonical(system) is system


def run_with_equality(monkeypatch, key, corpus):
    """LocalSystem's __eq__ and __hash__ replaced by key(system)'s, for a
    verify run on `corpus`, made beforehand with the real ones."""
    monkeypatch.setattr(LocalSystem, "__eq__", lambda self, other: key(self) == key(other))
    monkeypatch.setattr(LocalSystem, "__hash__", lambda self: hash(key(self)))
    monkeypatch.setattr(harness, "generate_corpus", lambda spec: corpus)


def test_equality_by_identity_fails_the_answer_count(contexts, call_counter, monkeypatch):
    # every object its own content: an inverse system made afresh never
    # meets its equal in the corpus, so pairs no longer share an answer
    corpus = generate_corpus(CorpusSpec(seed=0))
    run_with_equality(monkeypatch, id, corpus)
    answers = call_counter(salvetti, "twisted_betti")
    run_verification(corpus, seed=0)
    monkeypatch.undo()
    (ctx,) = contexts
    pairs = {(ctx.salvetti(arr_id), frozenset((system, system.inverse_system())))
             for arr_id, _sys_id, system in ctx.asked}
    assert len(pairs) == PAIR_CALLS[0] < len(answers)


@pytest.mark.parametrize("key", [lambda s: (s.field, s.rank), lambda s: (s.field, s.rank, s.d)],
                         ids=["field-rank", "field-rank-d"])
def test_equality_by_field_and_rank_fails_the_run_or_the_pin(key, monkeypatch, tmp_path):
    # by (field, rank), some system meets an arrangement of another number
    # of hyperplanes and the run stops; with that number in the key too,
    # no check fails, but the reports are not the pinned ones
    run_with_equality(monkeypatch, key, generate_corpus(CorpusSpec(seed=0)))
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--all", "--seed", "0", "--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    assert (code, digest) != (0, SEED0_REPORT_SHA256)


def test_the_content_key_holds_the_field_and_a_collision_keeps_both_contents():
    # hash(2) == hash(Fraction(2)) and ((2,),) == ((Fraction(2),),): only
    # the field keeps the Q and F_7 systems on 2, 3 apart
    ctx = harness.VerifyContext(seed=0)
    q, f7 = scalar_system(Q, [2, 3]), scalar_system(F7, [2, 3])
    assert hash(q.monodromy) == hash(f7.monodromy) and q.monodromy == f7.monodromy
    assert ctx.canonical(q) is q and ctx.canonical(f7) is f7
    assert [ctx.restricted(s, (1,)).field for s in (q, f7)] == [Q, F7]
    assert [ctx.inverse(s).field for s in (q, f7)] == [Q, F7]
    # hash(-1) == hash(-2): two contents of one hash, each found again by content
    minus = [scalar_system(Q, [x, 3]) for x in (-1, -2)]
    assert hash(minus[0]) == hash(minus[1]) and minus[0] != minus[1]
    assert [ctx.canonical(s) for s in minus] == minus
    assert all(ctx.canonical(scalar_system(Q, [x, 3])) is s for x, s in zip((-1, -2), minus))
    assert [ctx.restricted(s, (0,)).monodromy for s in minus] == [(((-1,),),), (((-2,),),)]
    assert [ctx.inverse(s) for s in minus] == [s.inverse_system() for s in minus]
