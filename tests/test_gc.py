"""arrtop makes no reference cycles, so `cli.main` runs a command with the
cyclic garbage collector paused: these tests guard both halves.

With the collector off, `gc.collect()` returns the number of unreachable
objects it found, that is the cyclic garbage made since the last call.
A command may leave only what building its argparse parser leaves (the
parser's own cycle); the library paths leave nothing.
"""

import gc
from dataclasses import replace

import pytest
from test_cli import GEN3, SYS_222_Q, _raising, write

from arrtop import cli, geometry, harness, realfaces, salvetti
from arrtop.cli import main
from arrtop.fields import FieldSpec
from arrtop.harness import CorpusSpec, braid_essentialized
from arrtop.localsys import scalar_system


@pytest.fixture
def collector_off():
    """Collect what is there and turn the collector off for the test."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parser_garbage() -> int:
    cli.build_parser()
    return gc.collect()


def _assert_commands_leave_only_the_parser(tmp_path):
    arr, system = write(tmp_path, "gen3.json", GEN3), write(tmp_path, "s.json", SYS_222_Q)
    baseline = _parser_garbage()
    assert baseline > 0                  # argparse's cycle: the count sees cycles
    for argv in (["betti", arr, "--system", system, "--out", str(tmp_path / "b.json")],
                 ["info", arr, "--out", str(tmp_path / "i.json")],
                 ["corpus", "generate", "--seed", "0", "--out", str(tmp_path / "corpus")],
                 ["verify", "--all", "--seed", "0", "--out", str(tmp_path / "r.json")]):
        assert main(argv) == 0
        assert gc.collect() == baseline, argv


def test_commands_make_no_cycles(tmp_path, collector_off):
    _assert_commands_leave_only_the_parser(tmp_path)


def test_library_paths_make_no_cycles(collector_off):
    corpus = harness.generate_corpus(CorpusSpec(seed=2))
    harness.run_verification(corpus, seed=2)
    assert gc.collect() == 0
    braid5 = braid_essentialized(5)
    sc = salvetti.build_salvetti(realfaces.enumerate_faces(braid5))
    assert gc.collect() == 0
    for field in (FieldSpec.prime(2), FieldSpec.prime(101), FieldSpec.rationals()):
        salvetti.twisted_betti(sc, scalar_system(field, [-1] * braid5.d))
    assert gc.collect() == 0


def test_the_guard_sees_a_cycle(tmp_path, collector_off, monkeypatch):
    # a complex that holds itself outlives its command: the guard must fail
    real = salvetti.build_salvetti

    def cyclic(fc):
        sc = real(fc)
        sc.itself = sc
        return sc

    monkeypatch.setattr(salvetti, "build_salvetti", cyclic)
    with pytest.raises(AssertionError, match="betti"):
        _assert_commands_leave_only_the_parser(tmp_path)


def _failing_euler(monkeypatch):
    real = harness.CHECKS["euler"]

    def failing(*args):
        report = real.run(*args)
        report.status = "fail"
        return report

    monkeypatch.setitem(harness.CHECKS, "euler", replace(real, run=failing))


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("code,argv,patch", [
    (0, ["info", "{arr}"], None),
    (1, ["verify", "{arr}", "{sys}", "--checks", "euler"], _failing_euler),
    (2, ["info", "{missing}"], None),
    (2, ["info"], None),
    (3, ["info", "{arr}"],
     lambda mp: mp.setattr(geometry, "cell_counts", _raising(MemoryError()))),
], ids=["pass", "check-fails", "unreadable", "usage", "out-of-memory"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, capsys,
                                                  caller_enabled, code, argv, patch):
    paths = {"arr": write(tmp_path, "gen3.json", GEN3),
             "sys": write(tmp_path, "s.json", SYS_222_Q),
             "missing": str(tmp_path / "missing.json")}
    if patch:
        patch(monkeypatch)
    enabled = gc.isenabled()
    if not caller_enabled:
        gc.disable()
    try:
        assert main([arg.format(**paths) for arg in argv]) == code
        assert gc.isenabled() is caller_enabled
    finally:
        if enabled:
            gc.enable()


def test_main_restores_the_collector_when_a_base_exception_escapes(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "cmd_info", _raising(KeyboardInterrupt()))
    assert gc.isenabled()
    with pytest.raises(KeyboardInterrupt):
        main(["info", write(tmp_path, "gen3.json", GEN3)])
    assert gc.isenabled()
