import json
import shlex
import time
from dataclasses import replace

import pytest
from conftest import make_arrangement, oracle_arrangements
from info_oracle import info_by_faces

from arrtop import cli, geometry, harness, localsys, realfaces, salvetti
from arrtop.cli import _arrangement_summary, main
from arrtop.harness import braid_essentialized

GEN3 = {"dim": 2, "hyperplanes": [
    {"label": "x", "normal": ["1", "0"], "offset": "0"},
    {"label": "y", "normal": ["0", "1"], "offset": "0"},
    {"label": "x+y-1", "normal": ["1", "1"], "offset": "1"},
]}
CEN3 = {"dim": 2, "hyperplanes": [
    {"label": "x", "normal": ["1", "0"], "offset": "0"},
    {"label": "y", "normal": ["0", "1"], "offset": "0"},
    {"label": "x-y", "normal": ["1", "-1"], "offset": "0"},
]}
SYS_222_Q = {"field": {"kind": "Q"}, "rank": 1, "monodromy": [["2"], ["2"], ["2"]]}
SYS_TRIVIAL = {"field": {"kind": "Q"}, "rank": 1, "monodromy": [["1"], ["1"], ["1"]]}
TWO_POINTS = {"dim": 1, "hyperplanes": [
    {"label": "a", "normal": ["1"], "offset": "0"},
    {"label": "b", "normal": ["1"], "offset": "1"}]}
SYS_23_Q = {"field": {"kind": "Q"}, "rank": 1, "monodromy": [["2"], ["3"]]}
SYS_11_Q = {"field": {"kind": "Q"}, "rank": 1, "monodromy": [["1"], ["1"]]}
LINES = {"dim": 2, "hyperplanes": [            # x = 0 and x = 1: not essential
    {"label": "x", "normal": ["1", "0"], "offset": "0"},
    {"label": "x-1", "normal": ["1", "0"], "offset": "1"}]}
ESSENTIAL_ONLY = ("main_theorem", "untwisted_match", "central_structure")


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_info_gen3(tmp_path, capsys):
    assert main(["info", write(tmp_path, "gen3.json", GEN3)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == [1, 3, 3]
    assert out["regions"] == 7 and out["bounded"] == 1
    assert out["cells"] == [7, 18, 12]
    assert out["central"] is False and out["essential"] is True


def test_info_cen3(tmp_path, capsys):
    assert main(["info", write(tmp_path, "cen3.json", CEN3)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == [1, 3, 2]
    assert out["regions"] == 6 and out["bounded"] == 0
    assert out["cells"] == [6, 12, 6]


def test_info_matches_the_face_oracle():
    # every invariant read off the poset equals the one counted on the
    # faces and the built complex, non-essential arrangements included;
    # x = 0, y = 0, x + y = 1 in C^3 has (-1)^3·χ(1) = -1 and no bounded
    # chamber
    gen3_x_c = make_arrangement(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 1, 0), 1)])
    chi = geometry.characteristic_polynomial(geometry.intersection_poset(gen3_x_c))
    assert -geometry.evaluate_poly(chi, 1) == -1
    parallel = make_arrangement(2, [((1, 0), 0), ((1, 0), 1)])
    arrs = [*oracle_arrangements(), gen3_x_c, parallel]
    assert sum(not arr.is_essential for arr in arrs) == 3
    for arr in arrs:
        assert _arrangement_summary(arr) == info_by_faces(arr)


def test_info_enumerates_no_face_and_builds_no_complex(tmp_path, capsys, call_counter):
    calls = [call_counter(realfaces, "enumerate_faces"), call_counter(realfaces, "region_counts"),
             call_counter(salvetti, "build_salvetti")]
    for name, arr, cells in (("gen3.json", GEN3, [7, 18, 12]), ("lines.json", LINES, [3, 4])):
        assert main(["info", write(tmp_path, name, arr)]) == 0
        assert json.loads(capsys.readouterr().out)["cells"] == cells
    assert calls == [[], [], []]


def test_info_braid7(tmp_path, capsys):
    # braid7 was too large to build for info; its sizes come from the poset
    path = tmp_path / "braid7.json"
    path.write_text(json.dumps(braid_essentialized(7).to_json()))
    assert main(["info", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cells"] == [5040, 30240, 75600, 100800, 75600, 30240, 5040]
    assert out["regions"] == 5040 and out["bounded"] == 0


@pytest.mark.parametrize("command", ["betti", "verify"])
def test_an_arrangement_too_large_to_build_exits_2_before_any_face(tmp_path, capsys,
                                                                   monkeypatch, command):
    # the Boolean arrangement in C^10 has 10485760 Λ-terms, read off the
    # poset flat by flat from the top codim down until the sum passes the
    # bound.  A face enumerated would exit 3 here, at once
    monkeypatch.setattr(realfaces, "enumerate_faces", _raising(AssertionError("a face")))
    bool10 = make_arrangement(10, [(tuple(int(i == j) for j in range(10)), 0)
                                   for i in range(10)])
    arr = write(tmp_path, "bool10.json", bool10.to_json())
    system = write(tmp_path, "sys.json", {"field": {"kind": "Fp", "p": 101}, "rank": 1,
                                          "monodromy": [["2"]] * bool10.d})
    argv = ["betti", arr, "--system", system] if command == "betti" else ["verify", arr, system]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    name = arr if command == "betti" else "file:bool10"
    assert capsys.readouterr().err == (f"error: {name}: its Salvetti complex has at least "
                                       f"10004480 Λ-terms, above the bound of 10000000\n")


@pytest.mark.parametrize("kind", ["|sec", "|loc", "|dec"])
def test_verify_refuses_a_derived_arrangement_above_the_bound(tmp_path, capsys, monkeypatch,
                                                              kind):
    # sections, localizations and decones are checked where they are
    # registered, like inputs; here the bound is 0 for one kind of them.
    # The system's total turn is 1, so central_structure decones
    real = salvetti.check_size

    def strict_for_kind(arr, name):
        with monkeypatch.context() as patch:
            if kind in name:
                patch.setattr(salvetti, "MAX_TERMS", 0)
            real(arr, name)

    monkeypatch.setattr(salvetti, "check_size", strict_for_kind)
    turn_one = {"field": {"kind": "Q"}, "rank": 1, "monodromy": [["2"], ["3"], ["1/6"]]}
    argv = ["verify", write(tmp_path, "cen3.json", CEN3), write(tmp_path, "s.json", turn_one),
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: file:cen3{kind}") and err.count("\n") == 1
    assert err.endswith("Λ-terms, above the bound of 0\n")


def test_info_malformed_exits_2(tmp_path, capsys):
    bad = {"dim": 1, "hyperplanes": [{"label": "H", "normal": ["0.5"], "offset": "0"}]}
    assert main(["info", write(tmp_path, "bad.json", bad)]) == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("arrangement", [
    {"dim": 2, "hyperplanes": [["1", "0"]]},
    {"dim": 2, "hyperplanes": [{"label": "x", "normal": 1, "offset": "0"}]},
    {"dim": 2, "hyperplanes": [{"label": "x", "normal": "10", "offset": "0"}]},
    {"dim": 2, "hyperplanes": 7},
    {"dim": 1, "hyperplanes": [{"label": "x", "normal": [True], "offset": "0"}]},
], ids=["list-row", "int-normal", "string-normal", "int-hyperplanes", "bool-normal"])
def test_info_malformed_hyperplanes_exit_2(tmp_path, capsys, arrangement):
    assert main(["info", write(tmp_path, "bad.json", arrangement)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed hyperplane 1")


def test_info_missing_file_exits_2(tmp_path, capsys):
    assert main(["info", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("content", [
    b'{"dim": 1, "hyperplanes": [{"label": "\xff", "normal": ["1"], "offset": "0"}]}',
    b'{"dim": ' + b"1" * 5000 + b', "hyperplanes": []}',
    b"[" * 100000,
], ids=["not-utf8", "int-past-the-digit-limit", "nested-past-the-recursion-limit"])
@pytest.mark.parametrize("command", ["info", "betti-arrangement", "betti-system", "verify"])
def test_an_unreadable_input_file_exits_2(tmp_path, capsys, command, content):
    # UnicodeDecodeError and json's int-length error are ValueErrors, and
    # nesting past the decoder's limit a RecursionError, which the file
    # reader refuses as input errors, not internal failures
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {"info": ["info", str(bad)],
            "betti-arrangement": ["betti", str(bad), "--system",
                                  write(tmp_path, "sys.json", SYS_222_Q)],
            "betti-system": ["betti", write(tmp_path, "gen3.json", GEN3), "--system", str(bad)],
            "verify": ["verify", str(bad)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["info", "betti", "verify", "corpus"])
def test_an_unwritable_out_path_exits_2(tmp_path, capsys, command):
    # a directory, paths under a missing directory, and an existing file
    # as the corpus root: each refused as an input error, not exit 3
    gen3, taken = write(tmp_path, "gen3.json", GEN3), tmp_path / "taken"
    taken.write_text("")
    out, argv = {
        "info": (tmp_path, ["info", gen3]),
        "betti": (tmp_path / "missing" / "x.json",
                  ["betti", gen3, "--system", write(tmp_path, "sys.json", SYS_222_Q)]),
        "verify": (tmp_path / "missing" / "r.json", ["verify", "--all", "--checks", "euler"]),
        "corpus": (taken, ["corpus", "generate"]),
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["betti", "verify"])
def test_a_system_with_no_matrices_exits_2_before_its_rank_is_used(tmp_path, capsys, command):
    # no arrangement has zero hyperplanes; anything sized by rank 10^9
    # would take minutes and gigabytes
    gen3 = write(tmp_path, "gen3.json", GEN3)
    system = write(tmp_path, "sys.json", {"field": {"kind": "Q"}, "rank": 10**9, "monodromy": []})
    argv = ["betti", gen3, "--system", system] if command == "betti" else ["verify", gen3, system]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == \
        "error: a local system needs one matrix per hyperplane, got none\n"


def test_betti_command(tmp_path, capsys):
    code = main(["betti", write(tmp_path, "gen3.json", GEN3),
                 "--system", write(tmp_path, "sys.json", SYS_222_Q)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == [1, 3, 3]
    assert out["twisted_betti"] == [0, 0, 1]


def test_betti_dimension_mismatch(tmp_path, capsys):
    two = {"field": {"kind": "Q"}, "rank": 1, "monodromy": [["2"], ["2"]]}
    code = main(["betti", write(tmp_path, "gen3.json", GEN3),
                 "--system", write(tmp_path, "sys.json", two)])
    assert code == 2


def test_verify_files_pass(tmp_path, capsys):
    code = main(["verify", "--checks", "main_theorem",
                 write(tmp_path, "gen3.json", GEN3),
                 write(tmp_path, "sys.json", SYS_222_Q),
                 "--out", str(tmp_path / "report.json")])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"]["failed"] == 0
    assert report["reports"][0]["check"] == "main_theorem"
    assert report["reports"][0]["status"] == "pass"


def test_verify_report_has_one_report_per_line(tmp_path):
    # a header line, the reports, then the summary: the report diffs line
    # by line and is still one JSON object
    out = tmp_path / "report.json"
    assert main(["verify", write(tmp_path, "gen3.json", GEN3),
                 write(tmp_path, "sys.json", SYS_222_Q), "--out", str(out)]) == 0
    text = out.read_text()
    report = json.loads(text)
    lines = text.splitlines()
    total = report["summary"]["total"]
    assert total == len(report["reports"]) > 1 and len(lines) == total + 3
    assert lines[0] == '{"reports": [' and lines[total + 1] == "],"
    assert lines[total + 2].startswith('"summary": {')
    assert [json.loads(line.removesuffix(",")) for line in lines[1:total + 1]] == \
        report["reports"]


def test_verify_builds_one_complex_for_an_affine_image(tmp_path, call_counter):
    # GEN3 at x = u + v, y = v - 1, its last equation times 3: the same
    # sign vectors, so one complex serves both arrangements; faces are
    # still enumerated per arrangement
    image = {"dim": 2, "hyperplanes": [
        {"label": "x", "normal": ["1", "1"], "offset": "0"},
        {"label": "y", "normal": ["0", "1"], "offset": "1"},
        {"label": "x+y-1", "normal": ["3", "6"], "offset": "6"},
    ]}
    builds = call_counter(salvetti, "build_salvetti")
    faces = call_counter(realfaces, "enumerate_faces")
    out = tmp_path / "report.json"
    checks = ["untwisted_match", "constant_equality", "main_theorem", "euler"]
    code = main(["verify", write(tmp_path, "a.json", GEN3), write(tmp_path, "b.json", image),
                 write(tmp_path, "sys.json", SYS_222_Q), "--out", str(out),
                 *(arg for name in checks for arg in ("--checks", name))])
    assert code == 0
    assert len(builds) == 1 and len(faces) == 2
    reports = json.loads(out.read_text())["reports"]
    seen = {arr: [(r["check"], r["system"], r["aux"], r["status"], r["data"])
                  for r in reports if r["arrangement"] == arr] for arr in ("file:a", "file:b")}
    assert seen["file:a"] == seen["file:b"]
    assert {entry[0] for entry in seen["file:a"]} == set(checks)


def test_verify_trivial_main_theorem_exits_2(tmp_path, capsys):
    code = main(["verify", "--checks", "main_theorem",
                 write(tmp_path, "gen3.json", GEN3),
                 write(tmp_path, "triv.json", SYS_TRIVIAL)])
    assert code == 2


@pytest.mark.parametrize("kind,first,second", [
    ("system", {"field": {"kind": "Q"}, "rank": 1, "monodromy": [["2"], ["3"]]},
     {"field": {"kind": "Q"}, "rank": 1, "monodromy": [["1"], ["1"]]}),
    ("arrangement", GEN3, CEN3),
], ids=["system", "arrangement"])
def test_verify_refuses_repeated_ids(tmp_path, capsys, kind, first, second):
    # ids come from file stems; two files with one stem would share cached results
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    if kind == "system":
        files = [write(tmp_path, "arr.json", TWO_POINTS),
                 write(tmp_path / "a", "sys.json", first),
                 write(tmp_path / "b", "sys.json", second)]
    else:
        files = [write(tmp_path / "a", "arr.json", first),
                 write(tmp_path / "b", "arr.json", second),
                 write(tmp_path, "sys.json", SYS_222_Q)]
    assert main(["verify", *files]) == 2
    err = capsys.readouterr().err
    assert files[1] in err and files[2 if kind == "system" else 0] in err


def test_verify_refuses_a_stem_that_reads_as_a_derived_id(tmp_path, capsys):
    # a.json's sections and localizations are registered as file:a|...;
    # a file a|sec1.json would be replaced by a's section in the caches
    files = [write(tmp_path, "a.json", GEN3), write(tmp_path, "a|sec1.json", CEN3),
             write(tmp_path, "sys.json", SYS_222_Q)]
    assert main(["verify", *files]) == 2
    assert files[1] in capsys.readouterr().err


def test_verify_file_named_like_a_builtin_system(tmp_path, capsys):
    # constant_equality caches its own system as const-r1; a file with that
    # stem must not share its cached dimensions
    def statuses(stem):
        out = tmp_path / f"{stem}-report.json"
        code = main(["verify", write(tmp_path, "gen3.json", GEN3),
                     write(tmp_path, f"{stem}.json", SYS_222_Q), "--out", str(out)])
        reports = json.loads(out.read_text())["reports"]
        return code, [(r["check"], r["status"]) for r in reports]

    assert statuses("const-r1") == statuses("s222")
    code, checks = statuses("const-r1")
    assert code == 0 and all(status == "pass" for _check, status in checks)


def test_verify_dimension1_file_named_like_a_builtin_system(tmp_path, capsys):
    # a file's id is file:<stem>, so the file system const-r1 and the
    # built-in const-r1 get one c1_oracle report each, under distinct ids
    files = [write(tmp_path, "pts.json", TWO_POINTS),
             write(tmp_path, "const-r1.json", SYS_23_Q)]
    outs = [tmp_path / "one.json", tmp_path / "two.json"]
    for out in outs:
        assert main(["verify", *files, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    report = json.loads(outs[0].read_text())
    keys = [(r["check"], r["arrangement"], r["system"], r["aux"]) for r in report["reports"]]
    assert len(keys) == len(set(keys))
    c1 = {r["system"]: r for r in report["reports"]
          if r["check"] == "c1_oracle" and r["arrangement"] == "file:pts"
          and r["system"] in ("const-r1", "file:const-r1")}
    assert len(c1) == 2 and all(r["status"] == "pass" for r in c1.values())
    assert c1["file:const-r1"]["data"]["dims"] == [0, 1]
    assert c1["const-r1"]["data"]["dims"] == [1, 2]
    assert "skipped: " in capsys.readouterr().err


@pytest.mark.parametrize("system", [
    {"rank": 1, "monodromy": [["2"], ["2"], ["2"]]},
    {"field": {"kind": "Fp"}, "rank": 1, "monodromy": [["2"], ["2"], ["2"]]},
    [["2"], ["2"], ["2"]],
    {"field": {"kind": "Q"}, "rank": 1, "monodromy": [5, 6]},
    {**SYS_222_Q, "rank": 1.7},
    {"field": {"kind": "Fp", "p": 7.9}, "rank": 1, "monodromy": [["2"]] * 3},
], ids=["no-field", "fp-without-p", "top-level-list", "scalar-matrices", "float-rank",
        "float-p"])
def test_betti_malformed_system_exits_2(tmp_path, capsys, system):
    code = main(["betti", write(tmp_path, "gen3.json", GEN3),
                 "--system", write(tmp_path, "sys.json", system)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("rank,matrix,message", [
    (2, [["2", "0"], ["0", "2"]], "matrix needs 4 row-major entries, got 2"),
    (1, [["2"]], "malformed rational ['2']"),
], ids=["rank-2", "rank-1"])
@pytest.mark.parametrize("command", ["betti", "verify"])
def test_a_nested_system_matrix_exits_2(tmp_path, capsys, command, rank, matrix, message):
    # a system file gives each matrix as one row-major list, nothing else
    gen3 = write(tmp_path, "gen3.json", GEN3)
    system = write(tmp_path, "sys.json",
                   {"field": {"kind": "Q"}, "rank": rank, "monodromy": [matrix] * 3})
    argv = ["betti", gen3, "--system", system] if command == "betti" else ["verify", gen3, system]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


Q_FIELD, F7_FIELD = {"kind": "Q"}, {"kind": "Fp", "p": 7}


@pytest.mark.parametrize("system,message", [
    ({"field": Q_FIELD, "rank": 1, "monodromy": [[True], ["2"], ["2"]]},
     "malformed rational True"),
    ({"field": Q_FIELD, "rank": 1, "monodromy": [[0.5], ["2"], ["2"]]},
     "malformed rational 0.5"),
    ({"field": F7_FIELD, "rank": 1, "monodromy": [["1/7"], ["2"], ["2"]]},
     "1/7 has no image in F_7"),
    ({"field": Q_FIELD, "rank": 1, "monodromy": [["2"], ["0"], ["2"]]},
     "monodromy matrix 2 is singular"),
    ({"field": F7_FIELD, "rank": 1, "monodromy": [["2"], [7], ["2"]]},
     "monodromy matrix 2 is singular"),
    # block {0, 1} beside the size-one block {2}: singular in the block,
    # then a zero scalar beside an invertible block
    ({"field": Q_FIELD, "rank": 3, "monodromy": [
        [2, 0, 0, 0, 2, 0, 0, 0, 3], [1, 1, 0, 1, 1, 0, 0, 0, 2], [2, 0, 0, 0, 2, 0, 0, 0, 5]]},
     "monodromy matrix 2 is singular"),
    ({"field": F7_FIELD, "rank": 3, "monodromy": [
        [1, 1, 0, 0, 1, 0, 0, 0, 3], [2, 0, 0, 0, 2, 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0, 1]]},
     "monodromy matrix 2 is singular"),
], ids=["bool", "float", "seventh-over-F7", "zero-Q", "zero-F7", "singular-block",
        "zero-beside-a-block"])
def test_betti_refuses_a_bad_entry_or_block_with_its_message(tmp_path, capsys, system, message):
    code = main(["betti", write(tmp_path, "gen3.json", GEN3),
                 "--system", write(tmp_path, "sys.json", system)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _with_entry(obj, path, value):
    """A deep copy of obj with the entry at path (keys and indices) set."""
    obj = json.loads(json.dumps(obj))
    *head, last = path
    target = obj
    for step in head:
        target = target[step]
    target[last] = value
    return obj


@pytest.mark.parametrize("command,arrangement,system", [
    ("info", _with_entry(GEN3, ("hyperplanes", 2, "normal", 1), "1/0"), None),
    ("info", _with_entry(GEN3, ("hyperplanes", 2, "offset"), "1/0"), None),
    ("betti", GEN3, _with_entry(SYS_222_Q, ("monodromy", 1, 0), "1/0")),
], ids=["normal", "offset", "monodromy"])
def test_zero_denominator_exits_2(tmp_path, capsys, command, arrangement, system):
    argv = [command, write(tmp_path, "arr.json", arrangement)]
    if system is not None:
        argv += ["--system", write(tmp_path, "sys.json", system)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "zero denominator" in err


def test_verify_without_inputs_exits_2(capsys):
    assert main(["verify"]) == 2


def test_verify_unknown_check_exits_2(tmp_path):
    assert main(["verify", "--checks", "bogus", "x.json"]) == 2


def test_verify_multiple_checks_on_files(tmp_path, capsys):
    code = main(["verify", "--checks", "euler", "--checks", "local_global",
                 write(tmp_path, "cen3.json", CEN3),
                 write(tmp_path, "sys.json", SYS_222_Q)])
    assert code == 0


@pytest.mark.parametrize("mode", ["all", "files", "dims-cache"])
def test_verify_failure_carries_a_repro_that_reproduces_it(tmp_path, capsys, monkeypatch,
                                                          mode):
    # one check is patched to fail on one instance: only that entry gains
    # a repro, and running the repro fails the same way again
    if mode == "all":
        name, target = "untwisted_match", ("braid4", None)
        argv = ["verify", "--all", "--seed", "3", "--checks", name]
        expected = f"arrtop verify --all --seed 3 --checks {name}"
    elif mode == "dims-cache":
        # c1_oracle alone exits 2: its repro keeps the checks that fill the cache
        name, target = "c1_oracle", ("file:pts", "file:s23")
        files = [write(tmp_path, "pts.json", TWO_POINTS), write(tmp_path, "s23.json", SYS_23_Q)]
        argv = ["verify", *files, "--checks", "euler", "--checks", name]
        expected = f"arrtop verify {shlex.join(files)} --seed 0 --checks euler --checks {name}"
    else:
        name, target = "euler", ("file:gen3", "file:s 222")
        files = [write(tmp_path, "gen3.json", GEN3), write(tmp_path, "s 222.json", SYS_222_Q)]
        argv = ["verify", *files, "--prime", "5", "--prime", "11"]
        expected = (f"arrtop verify {shlex.join(files)} --seed 0 --checks {name} "
                    "--prime 5 --prime 11")
    real = harness.CHECKS[name]

    def failing_once(ctx, arr_id, *args):
        report = real.run(ctx, arr_id, *args)
        if (report.arrangement, report.system) == target:
            report.status = "fail"
        return report

    monkeypatch.setitem(harness.CHECKS, name, replace(real, run=failing_once))
    out, again = tmp_path / "report.json", tmp_path / "again.json"
    assert main([*argv, "--out", str(out)]) == 1
    reports = json.loads(out.read_text())["reports"]
    failed = [r for r in reports if r["status"] == "fail"]
    assert len(failed) == 1 and failed[0]["repro"] == expected
    assert len(reports) > 1 and all("repro" not in r for r in reports if r is not failed[0])
    repro = shlex.split(failed[0]["repro"])
    assert repro[0] == "arrtop" and main([*repro[1:], "--out", str(again)]) == 1
    assert [r for r in json.loads(again.read_text())["reports"]
            if r["status"] == "fail"] == failed


def test_verify_vacuous_check_exits_2(tmp_path, capsys):
    # c1_oracle sees only dimension-1 complexes other checks evaluated
    out = tmp_path / "report.json"
    assert main(["verify", "--all", "--checks", "c1_oracle", "--out", str(out)]) == 2
    assert "c1_oracle" in capsys.readouterr().err
    assert not out.exists()


def test_verify_non_essential_file_gets_every_other_check(tmp_path, capsys):
    files = [write(tmp_path, "line.json", LINES), write(tmp_path, "s.json", SYS_23_Q),
             write(tmp_path, "t.json", SYS_11_Q)]
    out = tmp_path / "report.json"
    assert main(["verify", *files, "--out", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    assert reports and all(r["status"] == "pass" for r in reports)
    assert {r["check"] for r in reports} == set(harness.ALL_CHECKS) - {
        *ESSENTIAL_ONLY, "nearby_section"}                        # no 0-flat to localize at


@pytest.mark.parametrize("check", ESSENTIAL_ONLY)
def test_verify_essential_only_check_on_a_non_essential_file_exits_2(tmp_path, capsys, check):
    files = [write(tmp_path, "line.json", LINES), write(tmp_path, "s.json", SYS_23_Q)]
    out = tmp_path / "report.json"
    assert main(["verify", *files, "--checks", check, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "file:line" in err and check in err
    assert not out.exists()


def test_verify_relative_section_in_dimension1_exits_2(tmp_path, capsys):
    # declared for ambient dimension >= 2, it has no instance on points in
    # C^1, alone or beside a plane arrangement
    three_points = {"dim": 1, "hyperplanes": [
        {"label": str(i), "normal": ["1"], "offset": str(i)} for i in range(3)]}
    out = tmp_path / "report.json"
    for files in ([write(tmp_path, "a2.json", TWO_POINTS), write(tmp_path, "s.json", SYS_23_Q)],
                  [write(tmp_path, "gen3.json", GEN3), write(tmp_path, "p3.json", three_points),
                   write(tmp_path, "s222.json", SYS_222_Q)]):
        assert main(["verify", *files, "--checks", "relative_section",
                     "--out", str(out)]) == 2
        assert "relative_section" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [["verify", "--all", "--prime", "1_01"],
                                  ["verify", "--all", "--seed", "1_0"],
                                  ["corpus", "generate", "--seed", "1_0"]],
                         ids=["prime", "verify-seed", "corpus-seed"])
def test_an_option_with_a_digit_separator_is_a_usage_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert f"'{argv[3]}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["betti", "verify"])
def test_a_field_prime_with_a_digit_separator_exits_2(tmp_path, capsys, command):
    # "1_01" is no integer string, so it is not read as F_101
    gen3 = write(tmp_path, "gen3.json", GEN3)
    system = write(tmp_path, "sys.json", {**SYS_222_Q, "field": {"kind": "Fp", "p": "1_01"}})
    argv = ["betti", gen3, "--system", system] if command == "betti" else ["verify", gen3, system]
    assert main(argv) == 2
    assert "malformed integer '1_01'" in capsys.readouterr().err


def test_verify_prime_beyond_engine_limit_exits_2(capsys):
    assert main(["verify", "--all", "--prime", "4294967311"]) == 2
    assert "4294967311" in capsys.readouterr().err


def test_corpus_generate(tmp_path):
    out = tmp_path / "corpus"
    assert main(["corpus", "generate", "--seed", "3", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    ids = [entry["id"] for entry in manifest["arrangements"]]
    assert "gen3" in ids and "braid4" in ids
    sample = json.loads((out / "gen3" / "arrangement.json").read_text())
    assert sample["dim"] == 2
    first_system = manifest["arrangements"][0]["systems"][0]
    arr0 = manifest["arrangements"][0]["id"]
    assert (out / arr0 / f"{first_system}.json").exists()


def test_verify_all_with_files_exits_2(tmp_path, capsys):
    # --all runs the generated corpus; files next to it must not be ignored
    code = main(["verify", "--all", "--checks", "euler", write(tmp_path, "cen3.json", CEN3)])
    assert code == 2
    assert "--all" in capsys.readouterr().err


@pytest.mark.parametrize("dim,normal", [(2.9, ["1", "0"]), (True, ["1"])],
                         ids=["float-dim", "bool-dim"])
def test_info_non_integer_dim_exits_2(tmp_path, capsys, dim, normal):
    # refused, not truncated to 2 or read as 1
    arrangement = {"dim": dim, "hyperplanes": [{"label": "x", "normal": normal}]}
    assert main(["info", write(tmp_path, "bad.json", arrangement)]) == 2
    assert "bad ambient dimension" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["info", "betti", "verify"])
def test_an_ambient_dimension_above_the_bound_exits_2_where_the_file_enters(
        tmp_path, capsys, monkeypatch, command):
    # one hyperplane in C^3000 cost 3.2 s of poset frames before any size
    # check; the bound refuses it as the file is read, before any poset
    monkeypatch.setattr(geometry, "_build_poset", _raising(AssertionError("a poset")))
    dim = geometry.MAX_DIM + 1
    arr = write(tmp_path, "wide.json", {"dim": dim, "hyperplanes": [
        {"label": "x", "normal": ["1"] + ["0"] * (dim - 1), "offset": "0"}]})
    system = write(tmp_path, "sys.json", {"field": {"kind": "Q"}, "rank": 1,
                                          "monodromy": [["2"]]})
    argv = {"info": ["info", arr], "betti": ["betti", arr, "--system", system],
            "verify": ["verify", arr, system, "--out", str(tmp_path / "r.json")]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: ambient dimension {dim} is above the bound "
                                       f"of {geometry.MAX_DIM}\n")


def test_an_ambient_dimension_at_the_bound_is_accepted(tmp_path, capsys):
    dim = geometry.MAX_DIM
    arr = write(tmp_path, "wide.json", {"dim": dim, "hyperplanes": [
        {"label": "x", "normal": ["1"] + ["0"] * (dim - 1), "offset": "0"}]})
    assert main(["info", arr]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == [1, 1] + [0] * (dim - 1) and out["essential"] is False


def test_integer_strings_are_accepted(tmp_path, capsys):
    system = {"field": {"kind": "Fp", "p": "7"}, "rank": "1", "monodromy": [["2"]] * 3}
    code = main(["betti", write(tmp_path, "arr.json", {**GEN3, "dim": "2"}),
                 "--system", write(tmp_path, "sys.json", system)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["field"] == {"kind": "Fp", "p": 7}


@pytest.mark.parametrize("argv", [["info"], ["betti", "x.json"], []])
def test_usage_errors_exit_2(argv):
    assert main(argv) == 2


real_orient = salvetti._orient


def _corrupted_orientation(fc):
    # a vertex's dual cell then no longer composes to zero over Λ
    eps = real_orient(fc)
    f = next(f for f, face in enumerate(fc.faces) if face.dim == 0)
    g = next(iter(eps[f]))
    eps[f][g] = -eps[f][g]
    return eps


def _raising(exc):
    def raise_it(*args):
        raise exc
    return raise_it


@pytest.mark.parametrize("command", ["betti", "verify"])
@pytest.mark.parametrize("name,patch,message", [
    ("_orient", _corrupted_orientation, "internal failure: ChainComplexError: boundary "
                                        "composition nonzero over Λ"),
    ("_morse", _raising(MemoryError()), "internal failure: MemoryError: out of memory"),
    ("_orient", _raising(RuntimeError("inconsistent signs on a dual cell")),
     "internal failure: RuntimeError: inconsistent signs on a dual cell"),
], ids=["gate", "memory", "other"])
def test_internal_failures_exit_3_without_a_traceback(tmp_path, capsys, monkeypatch, command,
                                                      name, patch, message):
    # exit 1 means a check failed; a failed gate, exhausted memory or any
    # other error of the program's own exits 3 with one line on stderr
    monkeypatch.setattr(salvetti, name, patch)
    arr = write(tmp_path, "gen3.json", GEN3)
    argv = {"betti": ["betti", arr, "--system", write(tmp_path, "s.json", SYS_222_Q)],
            "verify": ["verify", arr, "--out", str(tmp_path / "r.json")]}[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("exc,message", [
    (MemoryError(), "internal failure: MemoryError: out of memory"),
    (RuntimeError("a poset failure"), "internal failure: RuntimeError: a poset failure"),
], ids=["memory", "other"])
def test_info_internal_failures_exit_3_without_a_traceback(tmp_path, capsys, monkeypatch,
                                                           exc, message):
    # info builds no complex, so no Salvetti gate runs under it; a failure
    # in its own poset work exits 3 with one line on stderr
    monkeypatch.setattr(geometry, "cell_counts", _raising(exc))
    assert main(["info", write(tmp_path, "gen3.json", GEN3)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert "Traceback" not in err


def test_out_of_memory_in_a_command_says_so(tmp_path, capsys, monkeypatch):
    # MemoryError() carries no message; the line must not end at the colon
    monkeypatch.setattr(cli, "cmd_verify", _raising(MemoryError()))
    assert main(["verify", "--all", "--out", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err == "internal failure: MemoryError: out of memory\n"


def test_a_value_error_of_the_program_exits_3(tmp_path, capsys, monkeypatch):
    # verify --all reads no user input, so a ValueError raised inside it is
    # the program's own failure, not a usage error: here twisted_complex's
    # count check, handed each system one matrix short
    real = salvetti.twisted_complex
    monkeypatch.setattr(salvetti, "twisted_complex", lambda sc, system: real(
        sc, localsys.restrict(system, range(system.d - 1))))
    assert main(["verify", "--all", "--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal failure: ValueError: system has ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_dump_writes_what_json_dumps_writes():
    # _dump avoids json's indenting encoder, whose closures make a cycle
    # per call; json.dumps is its oracle
    objects = [{}, [], (1, (2, 3)), [1.5, None, True, False, 'q"\n', "é☃"],
               {"a": {}, "b": [], "c": [[], {}]}, {10: "ten", 3: "three"}]
    for item in harness.generate_corpus(harness.CorpusSpec(seed=0)):
        objects += [_arrangement_summary(item.arrangement), item.arrangement.to_json()]
        objects += [system.to_json() for _, system in item.systems]
    for obj in objects:
        assert cli._dump(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
