import ast
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from arrtop import harness
from arrtop.fields import FieldSpec
from arrtop.geometry import (
    Arrangement,
    ArrangementError,
    Hyperplane,
    betti_numbers,
    characteristic_polynomial,
    intersection_poset,
)
from arrtop.harness import (
    ALL_CHECKS,
    CHECKS,
    CorpusSpec,
    VerifyContext,
    _in_general_position,
    braid_essentialized,
    check_central_structure,
    check_constant_equality,
    check_euler,
    check_lefschetz,
    check_local_global,
    check_main_theorem,
    check_nearby_section,
    check_relative_section,
    check_untwisted_match,
    generate_corpus,
    named_arrangements,
    random_central,
    random_generic,
    reports_to_json,
    run_verification,
    systems_for_arrangement,
)
from arrtop.localsys import LocalSystemError, build_local_system, is_trivial, scalar_system

from conftest import make_arrangement
from dense_rank_oracle import rank_dense

Q = FieldSpec.rationals()
F7 = FieldSpec.prime(7)

SPEC = CorpusSpec(seed=0)


def small_corpus():
    """The default corpus's first six items, the named examples and braid3:
    every check has instances on them."""
    return generate_corpus(SPEC)[:6]


def ctx_with(*pairs):
    ctx = VerifyContext(seed=0)
    for arr_id, arr in pairs:
        ctx.register(arr_id, arr)
    return ctx


def times_c(arr):
    """arr x C: each normal gains a zero coordinate, so it is not essential."""
    return Arrangement.build(arr.dim + 1, [Hyperplane((*h.normal, Fraction(0)), h.offset,
                                                      h.label) for h in arr.hyperplanes])


@pytest.fixture
def named_ctx():
    ctx = VerifyContext(seed=0)
    for arr_id, arr in named_arrangements().items():
        ctx.register(arr_id, arr)
    return ctx


def test_braid4_betti_closed_form():
    # chi(t) = (t-1)(t-2)(t-3) once the diagonal is quotiented away
    arr = braid_essentialized(4)
    assert arr.dim == 3 and arr.d == 6
    poset = intersection_poset(arr)
    assert characteristic_polynomial(poset) == [-6, 11, -6, 1]
    assert betti_numbers(poset) == [1, 6, 11, 6]


def test_random_generic_is_general_position():
    arr = random_generic(5, 2, seed=1)
    assert betti_numbers(intersection_poset(arr)) == [1, 5, 10]


def test_random_central_flags():
    arr = random_central(5, 3, seed=1)
    assert arr.is_central and arr.is_essential


def test_untwisted_match(named_ctx):
    for arr_id in ("gen3", "cen3"):
        report = check_untwisted_match(named_ctx, arr_id)
        assert report.status == "pass"
    gen3 = check_untwisted_match(named_ctx, "gen3")
    assert gen3.data["betti"] == [1, 3, 3]
    assert gen3.data["regions"] == [7, 1]


def test_constant_equality(named_ctx):
    for arr_id, expected in (("gen3", [2, 6, 6]), ("cen3", [1, 3, 2]), ("bool2", [3, 6, 3])):
        r = {"gen3": 2, "cen3": 1, "bool2": 3}[arr_id]
        report = check_constant_equality(named_ctx, arr_id, r)
        assert report.status == "pass"
        assert report.data["dims"] == expected


def test_main_theorem_gen3(named_ctx):
    report = check_main_theorem(named_ctx, "gen3", "s", scalar_system(Q, [2, 2, 2]))
    assert report.status == "pass"
    assert report.data["dims"] == [0, 0, 1]
    assert report.data["strict_bound"] == [1, 3, 3]


def test_main_theorem_central_vanishing(named_ctx):
    report = check_main_theorem(named_ctx, "cen3", "s", scalar_system(Q, [2, 2, 2]))
    assert report.status == "pass"
    assert report.data["dims"] == [0, 0, 0]


def test_main_theorem_a2(named_ctx):
    report = check_main_theorem(named_ctx, "a2", "s", scalar_system(Q, [2, 3]))
    assert report.status == "pass"
    assert report.data["dims"] == [0, 1]


def test_main_theorem_rejects_trivial(named_ctx):
    # declared for nontrivial systems on essential arrangements only
    main = CHECKS["main_theorem"]
    assert not main.on_system(scalar_system(Q, [1, 1, 1]))
    assert main.on_system(scalar_system(Q, [2, 1, 1]))
    assert main.on_arrangement(named_ctx.arrangement("gen3"))
    assert not main.on_arrangement(times_c(named_ctx.arrangement("gen3")))


def test_euler_check(named_ctx):
    assert check_euler(named_ctx, "gen3", "s",
                       scalar_system(Q, [2, 2, 2])).status == "pass"
    assert check_euler(named_ctx, "cen3", "s",
                       scalar_system(F7, [2, 2, 2])).status == "pass"


def test_relative_section_untwisted(named_ctx):
    report = check_relative_section(named_ctx, "gen3", "const-r1",
                                    scalar_system(Q, [1, 1, 1]))
    assert report.status == "pass"
    assert report.data["section_dims"][1] == 3    # three points on a generic line


def test_relative_section_twisted(named_ctx):
    report = check_relative_section(named_ctx, "cen3", "s", scalar_system(F7, [2, 2, 2]))
    assert report.status == "pass"
    # dims (0,1,1), section dims (0,2): 2 - 1 + 1 = 2 = r*b_2
    assert report.data["dims"] == [0, 1, 1]
    assert report.data["section_dims"][1] == 2
    assert report.data["top_bound"] == 2


def test_relative_section_rejects_dimension1(named_ctx):
    # declared for dim >= 2 in the registry, so a run never calls it there;
    # called anyway, it asks for a 0-section, which does not exist
    assert not CHECKS["relative_section"].on_arrangement(named_ctx.arrangement("a2"))
    assert CHECKS["relative_section"].on_arrangement(named_ctx.arrangement("gen3"))
    with pytest.raises(ArrangementError):
        check_relative_section(named_ctx, "a2", "s", scalar_system(Q, [2, 3]))


def test_local_global_brieskorn(named_ctx):
    report = check_local_global(named_ctx, "gen3", "const-r1", scalar_system(Q, [1, 1, 1]))
    assert report.status == "pass"
    assert report.data["top"] == 3 and report.data["local_tops"] == [1, 1, 1]


def test_local_global_twisted(named_ctx):
    report = check_local_global(named_ctx, "gen3", "s", scalar_system(Q, [2, 2, 2]))
    assert report.status == "pass"
    assert report.data["local_tops"] == [0, 0, 0]   # every local turn is 4 != 1


def test_nearby_section(named_ctx):
    locs = named_ctx.localizations("gen3")
    by_flat = {tuple(index_map): loc_id for loc_id, index_map in locs}
    loc_id = by_flat[(0, 1)]
    untwisted = check_nearby_section(named_ctx, "gen3", "const-r1",
                                     scalar_system(Q, [1, 1, 1]), loc_id, (0, 1))
    assert untwisted.status == "pass"
    assert untwisted.data["section_dim"] == 3 and untwisted.data["local_section_dim"] == 2
    twisted = check_nearby_section(named_ctx, "gen3", "s",
                                   scalar_system(Q, [2, 3, 5]), loc_id, (0, 1))
    assert twisted.status == "pass"
    assert twisted.data["section_dim"] == 2 and twisted.data["local_section_dim"] == 1


def test_central_structure_vanishing(named_ctx):
    report = check_central_structure(named_ctx, "cen3", "s", scalar_system(Q, [2, 2, 2]))
    assert report.status == "pass"
    assert report.data["case"] == "turn-invertible-difference"


def test_central_structure_kunneth(named_ctx):
    report = check_central_structure(named_ctx, "cen3", "s", scalar_system(F7, [2, 2, 2]))
    assert report.status == "pass"
    assert report.data["dims"] == [0, 1, 1]
    assert report.data["decone0"] == [0, 1]


def test_central_structure_balanced_rank1(named_ctx):
    report = check_central_structure(named_ctx, "bool2", "s",
                                     scalar_system(Q, [5, Fraction(1, 5)]))
    assert report.status == "pass"
    assert report.data["dims"] == [0, 0, 0]


def test_central_structure_degenerate_turn_skips(named_ctx):
    unipotent = build_local_system(Q, 2, [[[1, 1], [0, 1]]] * 3)
    report = check_central_structure(named_ctx, "cen3", "s", unipotent)
    assert report.status == "skipped"


def test_central_structure_rejects_noncentral(named_ctx):
    # declared for central essential arrangements; called anyway on a
    # non-central one, it has no total turn to read
    central = CHECKS["central_structure"]
    cen3, gen3 = named_ctx.arrangement("cen3"), named_ctx.arrangement("gen3")
    assert central.on_arrangement(cen3)
    assert not central.on_arrangement(gen3)
    assert not central.on_arrangement(times_c(cen3))
    with pytest.raises(LocalSystemError):
        check_central_structure(named_ctx, "gen3", "s", scalar_system(Q, [2, 2, 2]))


def test_lefschetz(named_ctx):
    report = check_lefschetz(named_ctx, "gen3", "s", scalar_system(Q, [2, 2, 2]), 1)
    assert report.status == "pass"
    assert report.data["section_dim"] == 2
    full = check_lefschetz(named_ctx, "cen3", "const-r1", scalar_system(Q, [1, 1, 1]), 2)
    assert full.status == "pass"
    assert full.data["dim"] == full.data["section_dim"]


def test_no_check_body_tests_its_own_hypotheses():
    # each check's hypotheses are stated once, in its CHECKS entry
    tree = ast.parse(Path(harness.__file__).read_text())
    bodies = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")}
    assert set(bodies) == {check.run.__name__ for check in CHECKS.values()}
    for name, body in bodies.items():
        raised = {node.id for stmt in ast.walk(body) if isinstance(stmt, ast.Raise)
                  for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        assert "PreconditionError" not in raised, name


def test_non_essential_arrangements_get_every_other_check():
    # braid3 before essentializing, gen3 x C, three parallel lines and
    # cen3 x C: every check that applies runs and passes; untwisted_match,
    # main_theorem and central_structure are declared for essential
    # arrangements only, and no 0-flat gives nearby_section an instance
    named = named_arrangements()
    arrs = {"braid3-full": make_arrangement(3, [((1, -1, 0), 0), ((1, 0, -1), 0),
                                                ((0, 1, -1), 0)]),
            "gen3xC": times_c(named["gen3"]),
            "lines3": make_arrangement(2, [((1, 0), c) for c in range(3)]),
            "cen3xC": times_c(named["cen3"])}
    corpus = [harness.CorpusItem(arr_id, arr, systems_for_arrangement(arr, SPEC, arr_id))
              for arr_id, arr in arrs.items()]
    assert not any(arr.is_essential for arr in arrs.values())
    reports, summary = run_verification(corpus, seed=0)
    assert summary["passed"] == summary["total"] == len(reports) > 0
    assert {r.check for r in reports} == set(ALL_CHECKS) - {
        "untwisted_match", "main_theorem", "central_structure", "nearby_section"}
    assert {r.arrangement for r in reports if r.check != "c1_oracle"} == set(arrs)


def test_corpus_determinism():
    a = generate_corpus(SPEC)
    b = generate_corpus(SPEC)
    assert [item.arrangement_id for item in a] == [item.arrangement_id for item in b]
    for x, y in zip(a, b):
        assert x.arrangement == y.arrangement
        assert x.systems == y.systems


def test_corpus_closed_under_inversion():
    for item in generate_corpus(SPEC):
        keys = {(s.field, s.monodromy) for _, s in item.systems}
        for _, s in item.systems:
            inv = s.inverse_system()
            assert (inv.field, inv.monodromy) in keys


# sha256 of repr of (arrangement id, system id, monodromy, inverse) for
# every system of generate_corpus(SPEC): reports carry dimensions, not
# matrices, so a change to what generation builds could pass the report pin
CORPUS0_SYSTEMS_SHA256 = "0cb00164b49305f33d4d0b5d53dffb153465fd43f32b43399e8519d8bc58626a"


def test_corpus_systems_and_inverses_are_pinned():
    rows = [(item.arrangement_id, sys_id, s.monodromy, s.inverse)
            for item in generate_corpus(SPEC) for sys_id, s in item.systems]
    assert len(rows) == 1242
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CORPUS0_SYSTEMS_SHA256


@pytest.fixture(scope="module")
def small_run():
    corpus = small_corpus()
    return corpus, run_verification(corpus, seed=0)


def test_run_verification_small(small_run):
    corpus, (reports, summary) = small_run
    assert summary["failed"] == 0
    assert summary["total"] == len(reports)
    by_check = {}
    for r in reports:
        if r.status != "skipped":
            by_check.setdefault(r.check, []).append(r)
    # nothing vacuous
    for name in ("untwisted_match", "constant_equality", "main_theorem", "euler",
                 "relative_section", "local_global", "nearby_section",
                 "central_structure", "lefschetz", "c1_oracle"):
        assert by_check.get(name), f"{name} never ran"
    # twisted and untwisted coverage where both apply
    corpus_by_id = {item.arrangement_id: dict(item.systems) for item in corpus}

    def kinds(name):
        seen = set()
        for r in by_check[name]:
            system = corpus_by_id.get(r.arrangement, {}).get(r.system)
            if system is not None:
                seen.add("trivial" if is_trivial(system) else "twisted")
        return seen

    for name in ("euler", "relative_section", "local_global", "nearby_section",
                 "lefschetz", "central_structure"):
        assert kinds(name) == {"trivial", "twisted"}, name


def test_run_verification_check_filter():
    corpus = small_corpus()
    reports, summary = run_verification(corpus, seed=0, checks=["untwisted_match"])
    assert {r.check for r in reports} == {"untwisted_match"}
    assert summary["failed"] == 0
    with pytest.raises(ValueError):
        run_verification(corpus, seed=0, checks=["nonsense"])


def test_registry_declares_every_check_in_order(small_run):
    assert ALL_CHECKS == ("untwisted_match", "constant_equality", "main_theorem", "euler",
                          "relative_section", "local_global", "nearby_section",
                          "central_structure", "lefschetz", "c1_oracle")
    assert tuple(CHECKS) == ALL_CHECKS
    _corpus, (reports, summary) = small_run
    assert list(summary["statements"]) == list(ALL_CHECKS)
    assert summary["statements"] == {name: CHECKS[name].statement for name in ALL_CHECKS}
    for entry in reports_to_json(reports, summary)["reports"]:
        # each report states its check once, through the summary
        assert set(entry) == {"check", "arrangement", "system", "status", "data", "aux"}
        assert entry["check"] in summary["statements"]


@pytest.mark.parametrize("name", [name for name in ALL_CHECKS if name != "c1_oracle"])
def test_single_check_run_matches_full_run(small_run, name):
    # c1_oracle alone sees no complexes: it reads those other checks evaluated
    corpus, (reports, _summary) = small_run
    alone, summary = run_verification(corpus, seed=0, checks=[name])
    assert alone and [r.to_json() for r in alone] == \
        [r.to_json() for r in reports if r.check == name]
    assert list(summary["by_check"]) == list(summary["statements"]) == [name]


def test_summary_counts_add_up(small_run):
    _corpus, (reports, summary) = small_run
    assert summary["passed"] + summary["failed"] + summary["skipped"] == \
        summary["total"] == len(reports)
    # skips come only from central_structure on a degenerate total turn
    assert summary["skipped"] == summary["by_check"]["central_structure"]["skipped"] > 0
    assert list(summary["by_check"]) == list(ALL_CHECKS)
    for name, counts in summary["by_check"].items():
        assert counts == {status: sum(1 for r in reports
                                      if r.check == name and r.status == status)
                          for status in ("pass", "fail", "skipped")}
    assert sum(sum(c.values()) for c in summary["by_check"].values()) == summary["total"]


def test_general_position_certificate_agrees_with_the_poset():
    # random_generic accepts a draw whose poset has the binomial Betti
    # numbers; it must take exactly the draws the Fraction-rank certificate
    # takes.  Small coordinate ranges make most draws degenerate.
    rng = random.Random(11)
    outcomes = []
    for d, n, size, per_shape in ((3, 1, 2, 200), (3, 2, 1, 300), (4, 2, 1, 200),
                                  (5, 2, 2, 100), (4, 3, 1, 150), (5, 3, 2, 30),
                                  (4, 3, 5, 30)):
        drawn = 0
        while drawn < per_shape:
            hyps = [Hyperplane(tuple(Fraction(rng.randint(-size, size)) for _ in range(n)),
                               Fraction(rng.randint(-size, size)), f"H{i + 1}")
                    for i in range(d)]
            try:
                arr = Arrangement.build(n, hyps)
            except ArrangementError:
                continue
            if not arr.is_essential:
                continue
            drawn += 1
            generic = _in_general_position_by_fractions(arr)
            assert _in_general_position(arr) == generic, arr.to_json()
            outcomes.append(generic)
    assert len(outcomes) >= 1000
    assert 200 <= sum(outcomes) <= len(outcomes) - 200, sum(outcomes)


def _in_general_position_by_fractions(arr):
    """The certificate in Fraction arithmetic: dense ranks of the
    [normal | offset] rows as given."""
    n = arr.dim
    rows = [[*h.normal, h.offset] for h in arr.hyperplanes]
    k = min(n, arr.d)
    return (all(rank_dense([row[:n] for row in sub]) == k for sub in combinations(rows, k))
            and all(rank_dense(sub) == n + 1 for sub in combinations(rows, n + 1)))


def test_general_position_certificate_matches_the_fraction_rank_oracle():
    # the certificate takes sparse ranks of primitive integer rows; the
    # oracle takes Fraction ranks of the rows as given.  Each draw plants,
    # at random, a hyperplane whose normal is a rational combination of two
    # others and n + 1 hyperplanes through one rational point
    rng = random.Random(5)
    outcomes = []
    for d, n in ((3, 1), (3, 2), (4, 2), (5, 2), (4, 3), (6, 3), (5, 4)):
        for _ in range(40):
            normals = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                       for _ in range(d)]
            offsets = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(d)]
            if n >= 2 and rng.random() < 0.4:
                a, b, c = rng.sample(range(d), 3)
                s, t = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3))
                normals[c] = [s * x + t * y for x, y in zip(normals[a], normals[b])]
            if d > n and rng.random() < 0.4:
                point = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for i in rng.sample(range(d), n + 1):
                    offsets[i] = sum(x * y for x, y in zip(normals[i], point))
            hyps = [Hyperplane(tuple(v), o, f"H{i + 1}")
                    for i, (v, o) in enumerate(zip(normals, offsets))]
            try:
                arr = Arrangement.build(n, hyps)
            except ArrangementError:
                continue
            generic = _in_general_position_by_fractions(arr)
            assert _in_general_position(arr) == generic, arr.to_json()
            outcomes.append(generic)
    assert len(outcomes) >= 200
    assert 50 <= sum(outcomes) <= len(outcomes) - 50, sum(outcomes)


def test_random_generic_draws_what_the_fraction_oracle_accepts():
    # the corpus and ladder shapes, seeds 0-9: the same draws as an
    # acceptance by Fraction ranks, and the same arrangements as when
    # random_generic took those ranks itself (their digest)
    drawn = []
    for d, n in ((4, 2), (6, 2), (4, 3), (8, 3)):
        for seed in range(10):
            arr = random_generic(d, n, seed)
            oracle = harness._sample("generic", d, n, seed, lambda rng: rng.randint(-9, 9),
                                     _in_general_position_by_fractions)
            assert arr == oracle
            drawn.append(arr.to_json())
    digest = hashlib.sha256(json.dumps(drawn).encode()).hexdigest()
    assert digest == "be40c7e3dd8a4a00cba1695f711863500245808c2f76fa1cc2ad220692b9f72b"
