"""The benchmark's workloads.

Each workload builds its inputs from the seed (``setup``, timed as
``setup_s``), answers its systems (``execute``, the timed phase) and
checks every answer against an independent oracle (``check``, untimed).
Calls go through module attributes (``salvetti.twisted_betti``), so the
tracer and the call timer see them.  Why each workload exists is in
README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from arrtop import cli, geometry, harness, localsys, realfaces, salvetti
from arrtop.fields import FieldSpec


@dataclass
class Outcome:
    """What ``check`` found in one pass."""

    attempted: int
    answered: int            # systems answered, the numerator of systems_per_s
    digest: str              # must repeat across passes and runs of one seed
    problems: list = field(default_factory=list)
    report_bytes: int = 0

    @property
    def failed(self) -> int:
        return len(self.problems)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _euler(values) -> int:
    return sum((-1) ** i * x for i, x in enumerate(values))


def _answer(sc, system):
    """Twisted Betti numbers, or the exception text when the call raises."""
    try:
        return salvetti.twisted_betti(sc, system)
    except Exception as exc:  # an exception is a failed operation, not a crash
        return f"{type(exc).__name__}: {exc}"


class VerifyCorpus:
    """``arrtop verify --all --seed S`` in process: the run users make."""

    name = "verify-corpus"
    setup_repeats = 3
    required_spans = (
        "cli.main", "harness.generate_corpus", "harness.run_verification",
        "harness.VerifyContext.dims", "geometry.intersection_poset",
        "geometry.generic_section", "geometry.localize", "geometry.decone",
        "realfaces.enumerate_faces", "realfaces.region_counts",
        "feasibility.feasible_point<realfaces", "salvetti.build_salvetti",
        "salvetti.untwisted_homology", "salvetti.twisted_betti",
        "salvetti.twisted_complex", "exactla.complex_dims<salvetti",
        "exactla.rank<exactla", "exactla.rank<harness", "localsys.is_trivial",
        "localsys.restrict", "localsys.decone_system", "localsys.total_turn",
    )

    def setup(self, seed):
        corpus = harness.generate_corpus(harness.CorpusSpec(seed=seed))
        for item in corpus:
            geometry.intersection_poset(item.arrangement)
            salvetti.build_salvetti(realfaces.enumerate_faces(item.arrangement))
        return corpus

    def execute(self, corpus, seed, scratch):
        out = scratch / "report.json"
        if out.exists():
            out.unlink()
        code = cli.main(["verify", "--all", "--seed", str(seed), "--out", str(out)])
        return code, out

    def check(self, corpus, raw):
        code, out = raw
        systems = sum(len(item.systems) for item in corpus)
        if not out.exists():
            return Outcome(1, systems, "", [f"exit code {code}, no report written"])
        data = out.read_bytes()
        report = json.loads(data)
        entries = report["reports"]
        run_gates = []
        if code != 0:
            run_gates.append(f"exit code {code}")
        if report["summary"]["failed"] != 0:
            run_gates.append(f"summary counts {report['summary']['failed']} failures")
        passed = {entry["check"] for entry in entries if entry["status"] == "pass"}
        run_gates += [f"check {check} has no passing report"
                      for check in harness.ALL_CHECKS if check not in passed]
        problems = [f"{entry['check']} {entry['arrangement']} {entry['system']} "
                    f"{entry['aux']}: {entry['status']}"
                    for entry in entries if entry["status"] not in ("pass", "skipped")]
        if run_gates:
            problems.append("; ".join(run_gates))
        return Outcome(len(entries) + 1, systems, hashlib.sha256(data).hexdigest(),
                       problems, report_bytes=len(data))


@dataclass
class Rung:
    name: str
    poset: object
    complex: object
    systems: tuple           # (system id, LocalSystem)


class Ladder:
    """braid5 and gen-8-3 built cold, three rank-1 systems each."""

    name = "ladder"
    setup_repeats = 2        # one set-up takes ~9 s; two keep a run near 40 s
    required_spans = (
        "harness.braid_essentialized", "harness.random_generic",
        "geometry.intersection_poset", "realfaces.enumerate_faces",
        "feasibility.feasible_point<realfaces",
        "salvetti.build_salvetti", "salvetti.twisted_betti",
        "salvetti.twisted_complex", "exactla.complex_dims<salvetti",
        "exactla.rank<exactla", "localsys.scalar_system",
    )
    # scalar-2 answers: braid5 is central with total turn 2^10, so T - I is
    # invertible over Q and F_101 and everything vanishes; a generic
    # arrangement of 8 planes in C^3 keeps only |chi| = 35 in the top degree.
    SCALAR2 = {"braid5": [0, 0, 0, 0, 0], "gen-8-3": [0, 0, 0, 35]}

    def setup(self, seed):
        q, f101 = FieldSpec.rationals(), FieldSpec.prime(101)
        rungs = []
        for name, arr in (("braid5", harness.braid_essentialized(5)),
                          ("gen-8-3", harness.random_generic(8, 3, seed))):
            poset = geometry.intersection_poset(arr)
            sc = salvetti.build_salvetti(realfaces.enumerate_faces(arr))
            systems = (
                ("scalar2-Q", localsys.scalar_system(q, [2] * arr.d)),
                ("scalar2-F101", localsys.scalar_system(f101, [2] * arr.d)),
                ("const-F101", localsys.scalar_system(f101, [1] * arr.d)),
            )
            rungs.append(Rung(name, poset, sc, systems))
        return rungs

    def execute(self, rungs, seed, scratch):
        return [[rung.name, sys_id, _answer(rung.complex, system)]
                for rung in rungs for sys_id, system in rung.systems]

    def check(self, rungs, answers):
        problems = []
        by_name = {rung.name: rung for rung in rungs}
        for name, sys_id, dims in answers:
            if isinstance(dims, str):
                problems.append(f"{name} {sys_id}: {dims}")
                continue
            whitney = geometry.betti_numbers(by_name[name].poset)
            expected = whitney if sys_id == "const-F101" else self.SCALAR2[name]
            why = []
            if dims != expected:
                why.append(f"{dims} != {expected}")
            if _euler(dims) != _euler(whitney):
                why.append("Euler characteristic differs")
            if why:
                problems.append(f"{name} {sys_id}: " + "; ".join(why))
        return Outcome(len(answers), len(answers), _digest(answers), problems)


@dataclass
class Sweep:
    complex: object
    systems: tuple
    whitney: list = None


class SweepFp:
    """One complex (dbraid5), every F_p system of a 200-system corpus."""

    name = "sweep-fp"
    setup_repeats = 3
    required_spans = (
        "harness.braid_essentialized", "harness.systems_for_arrangement",
        "geometry.essentialize", "geometry.decone", "realfaces.enumerate_faces",
        "feasibility.feasible_point<realfaces", "salvetti.build_salvetti",
        "salvetti.twisted_betti", "salvetti.twisted_complex",
        "exactla.complex_dims<salvetti", "exactla.rank<exactla",
        "localsys.scalar_system",
    )

    def setup(self, seed):
        arr = geometry.decone(harness.braid_essentialized(5), 0)
        sc = salvetti.build_salvetti(realfaces.enumerate_faces(arr))
        spec = harness.CorpusSpec(seed=seed, min_nontrivial=200)
        systems = tuple((sys_id, system) for sys_id, system
                        in harness.systems_for_arrangement(arr, spec, "dbraid5")
                        if system.field.kind == "Fp")
        return Sweep(sc, systems)

    def execute(self, sweep, seed, scratch):
        return [[sys_id, _answer(sweep.complex, system)]
                for sys_id, system in sweep.systems]

    def check(self, sweep, answers):
        if sweep.whitney is None:
            arr = sweep.complex.fc.arrangement
            sweep.whitney = geometry.betti_numbers(geometry.intersection_poset(arr))
        b = sweep.whitney
        problems = []
        for (sys_id, dims), (_, system) in zip(answers, sweep.systems):
            if isinstance(dims, str):
                problems.append(f"{sys_id}: {dims}")
                continue
            r = system.rank
            why = []
            if localsys.is_trivial(system):
                why.append("trivial system in the sweep")
            if _euler(dims) != r * _euler(b):
                why.append(f"Euler characteristic {_euler(dims)} != {r} * {_euler(b)}")
            if not all(x < r * y for x, y in zip(dims, b)):
                why.append(f"breaks the strict bound r * {b}")
            if why:
                problems.append(f"{sys_id} {dims}: " + "; ".join(why))
        return Outcome(len(answers), len(answers), _digest(answers), problems)


WORKLOADS = {w.name: w for w in (VerifyCorpus(), Ladder(), SweepFp())}
