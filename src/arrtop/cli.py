"""Command line interface.

Subcommands:
  info    <arr.json>                     invariants of the intersection poset
  betti   <arr.json> --system <sys.json> twisted Betti numbers
  verify  [--all | files...]             run verification checks
  corpus  generate --seed N --out dir    write a corpus to disk

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage,
parse or precondition error (an unreadable input file, an unwritable
--out path, an arrangement file above geometry.MAX_DIM dimensions and an
arrangement whose full Salvetti boundary the poset predicts above
salvetti.MAX_TERMS Λ-terms included), 3 internal failure
(a failed gate, memory exhausted, any other unexpected error, a bare
ValueError included), reported on stderr without a traceback.  Input is
checked where it enters and refused with an input error type; identical
inputs and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import gc
import json
import shlex
import sys
from pathlib import Path

from . import geometry, harness, localsys, realfaces, salvetti
from .fields import FieldSpec, parse_int
from .geometry import ArrangementError, GenericityError
from .harness import CorpusSpec, PreconditionError
from .localsys import LocalSystemError


# The C encoder of json.dumps(obj, sort_keys=True), built once
# (JSONEncoder.encode builds one per call); it skips the circularity
# check, since what arrtop writes is a tree.
_C_ENCODER = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ": ", ", ", True, False, True)   # indent, separators, sort_keys, skipkeys, allow_nan


def _compact(obj) -> str:
    return "".join(_C_ENCODER(obj, 0))


def _indented(obj, indent="") -> str:
    """json.dumps(obj, sort_keys=True, indent=2) for str or int keys, by a
    plain recursive function: json's indenting encoder is nested closures,
    which make a reference cycle on every call."""
    if not obj or not isinstance(obj, (dict, list, tuple)):
        return _compact(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        left, right = "{", "}"
        lines = (f"{_compact(str(k))}: {_indented(v, inner)}" for k, v in sorted(obj.items()))
    else:
        left, right = "[", "]"
        lines = (_indented(v, inner) for v in obj)
    return f"{left}\n{inner}" + f",\n{inner}".join(lines) + f"\n{indent}{right}"


def _dump(obj) -> str:
    return _indented(obj) + "\n"


def _report_text(out) -> str:
    """The verify report as one JSON object with one report per line, so
    it diffs line by line."""
    reports = ",\n".join(map(_compact, out["reports"]))
    return f'{{"reports": [\n{reports}\n],\n"summary": {_compact(out["summary"])}}}\n'


def _write(path: Path, text: str, parents=False):
    """Write a file, making its missing directories when `parents`; a path
    that cannot be written is an input error, like one that cannot be read."""
    try:
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ArrangementError(f"cannot write {path}: {exc}") from None


def _emit(text, out_path):
    if out_path:
        _write(Path(out_path), text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:    # bad JSON, UTF-8, int size; nesting
        raise ArrangementError(f"cannot read {path}: {exc}")


def _arrangement_summary(arr):
    """Read off the poset alone (Zaslavsky, 1975): regions and bounded
    chambers from χ, and cells."""
    poset = geometry.intersection_poset(arr)
    chi = geometry.characteristic_polynomial(poset)
    regions, bounded = geometry.zaslavsky_counts(chi, arr.is_essential)
    return {
        "dim": arr.dim,
        "num_hyperplanes": arr.d,
        "central": arr.is_central,
        "essential": arr.is_essential,
        "flat_counts": poset.flat_counts(),
        "char_poly": chi,
        "betti": geometry.betti_numbers(poset),
        "regions": regions,
        "bounded": bounded,
        "cells": geometry.cell_counts(poset),
    }


def cmd_info(args) -> int:
    arr = geometry.validate_arrangement(_load_json(args.arrangement))
    _emit(_dump(_arrangement_summary(arr)), args.out)
    return 0


def cmd_betti(args) -> int:
    arr = geometry.validate_arrangement(_load_json(args.arrangement))
    system = localsys.local_system_from_json(_load_json(args.system))
    if system.d != arr.d:
        raise LocalSystemError(
            f"system has {system.d} matrices, arrangement has {arr.d} hyperplanes")
    salvetti.check_size(arr, args.arrangement)
    sc = salvetti.build_salvetti(realfaces.enumerate_faces(arr))
    poset = geometry.intersection_poset(arr)
    _emit(_dump({
        "betti": geometry.betti_numbers(poset),
        "twisted_betti": salvetti.twisted_betti(sc, system),
        "rank": system.rank,
        "field": system.field.to_json(),
    }), args.out)
    return 0


def _classify_files(paths):
    """(id, arrangement) and (id, system) pairs.  A file's id is
    `file:<stem>`, so it never equals a built-in id, and a stem may not
    hold `|`, which joins an id to those of arrangements derived from it."""
    arrangements, systems = [], []
    first_path = {}                      # (kind, id) -> path; ids key the caches
    for path in paths:
        obj = _load_json(path)
        file_id = f"file:{Path(path).stem}"
        if "|" in file_id:
            raise PreconditionError(f"{path}: a file stem may not contain '|'")
        if isinstance(obj, dict) and "hyperplanes" in obj:
            kind = "arrangement"
            arrangements.append((file_id, geometry.validate_arrangement(obj)))
        elif isinstance(obj, dict) and "monodromy" in obj:
            kind = "system"
            systems.append((file_id, localsys.local_system_from_json(obj)))
        else:
            raise ArrangementError(f"{path}: neither an arrangement nor a local system")
        if (kind, file_id) in first_path:
            raise PreconditionError(f"{first_path[kind, file_id]} and {path} share the "
                                    f"{kind} id {file_id!r} (ids come from file stems)")
        first_path[kind, file_id] = path
    return arrangements, systems


def _file_corpus(paths):
    arrangements, systems = _classify_files(paths)
    if not arrangements:
        raise ArrangementError("no arrangement files given")
    items = []
    used = set()
    for arr_id, arr in arrangements:
        matching = [(sid, s) for sid, s in systems if s.d == arr.d]
        used.update(sid for sid, _ in matching)
        items.append(harness.CorpusItem(arr_id, arr, tuple(matching)))
    orphans = [sid for sid, _ in systems if sid not in used]
    if orphans:
        raise LocalSystemError(
            f"system(s) {orphans} match no given arrangement (hyperplane "
            "counts differ)")
    return items


def _repro(args, primes, check) -> str:
    """The command that reruns `check` on the same inputs, seed and primes.
    A post-pass over the dims cache (c1_oracle) needs the checks that
    filled it, so it repeats the run's own selection."""
    argv = ["arrtop", "verify", *(["--all"] if args.all else args.files),
            "--seed", str(args.seed)]
    selected = [check]
    if harness.CHECKS[check].scope == harness.DIMS_CACHE:
        selected = args.checks or []
    for name in selected:
        argv += ["--checks", name]
    if primes != harness.DEFAULT_PRIMES:
        for p in primes:
            argv += ["--prime", str(p)]
    return shlex.join(argv)


def cmd_verify(args) -> int:
    primes = tuple(args.prime) if args.prime else harness.DEFAULT_PRIMES
    checks = args.checks or None
    if args.all and args.files:
        raise ArrangementError("--all runs the generated corpus; it takes no input files")
    if args.all:
        spec = CorpusSpec(seed=args.seed, primes=primes)
        corpus = harness.generate_corpus(spec)
    else:
        if not args.files:
            raise ArrangementError("give input files or use --all")
        corpus = _file_corpus(args.files)
        # explicit files plus an explicit check: enforce the check's hypotheses
        for name in checks or ():
            check = harness.CHECKS[name]
            outside = [i for item in corpus for i in check.outside(item)]
            if outside:
                raise PreconditionError(f"{outside[0]}: outside the hypotheses of "
                                        f"{name} ({check.statement})")
    reports, summary = harness.run_verification(
        corpus, seed=args.seed, checks=checks, primes=primes)
    if checks:
        # a selected check that applies nowhere must not read as a pass
        vacuous = sorted(set(checks) - {r.check for r in reports})
        if vacuous:
            raise PreconditionError(
                f"selected check(s) {', '.join(vacuous)} produced no reports "
                "on these inputs")
    out = harness.reports_to_json(reports, summary)
    out["reports"] = [{**entry, "repro": _repro(args, primes, entry["check"])}
                      if entry["status"] == "fail" else entry for entry in out["reports"]]
    _emit(_report_text(out), args.out)
    if not args.out:
        sys.stdout.flush()
    sys.stderr.write(f"checks: {summary['total']}, passed: {summary['passed']}, "
                     f"failed: {summary['failed']}, skipped: {summary['skipped']}\n")
    return 0 if summary["failed"] == 0 else 1


def cmd_corpus(args) -> int:
    spec = CorpusSpec(seed=args.seed)
    corpus = harness.generate_corpus(spec)
    root = Path(args.out)
    manifest = {"seed": args.seed, "arrangements": []}
    for item in corpus:
        arr_dir = root / item.arrangement_id
        _write(arr_dir / "arrangement.json", _dump(item.arrangement.to_json()), parents=True)
        sys_index = []
        for sys_id, system in item.systems:
            _write(arr_dir / f"{sys_id}.json", _dump(system.to_json()))
            sys_index.append(sys_id)
        manifest["arrangements"].append({
            "id": item.arrangement_id,
            "dim": item.arrangement.dim,
            "num_hyperplanes": item.arrangement.d,
            "systems": sys_index,
        })
    _write(root / "manifest.json", _dump(manifest), parents=True)
    sys.stderr.write(f"wrote {len(corpus)} arrangements under {root}\n")
    return 0


def _prime(text) -> int:
    """A --prime value: a prime the engine takes, else a usage error."""
    try:
        return FieldSpec.prime(parse_int(text)).p
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arrtop",
        description="Exact twisted Betti numbers of complexified-real "
                    "hyperplane arrangement complements")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="arrangement invariants")
    p_info.add_argument("arrangement")
    p_info.add_argument("--out")
    p_info.set_defaults(func=cmd_info)

    p_betti = sub.add_parser("betti", help="twisted Betti numbers")
    p_betti.add_argument("arrangement")
    p_betti.add_argument("--system", required=True)
    p_betti.add_argument("--out")
    p_betti.set_defaults(func=cmd_betti)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("files", nargs="*")
    p_verify.add_argument("--all", action="store_true",
                          help="run every check on the generated default corpus")
    p_verify.add_argument("--checks", action="append", choices=harness.ALL_CHECKS,
                          metavar="NAME", help="repeatable check filter")
    p_verify.add_argument("--seed", type=parse_int, default=0)
    p_verify.add_argument("--prime", type=_prime, action="append")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_corpus = sub.add_parser("corpus", help="corpus files on disk")
    p_corpus.add_argument("action", choices=["generate"])
    p_corpus.add_argument("--seed", type=parse_int, default=0)
    p_corpus.add_argument("--out", required=True)
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # arrtop makes no reference cycles (tests/test_gc.py), so the cyclic
    # collector would only rescan acyclic data: pause it for the command
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ArrangementError, LocalSystemError, PreconditionError, GenericityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:     # anything else is the program's own failure
        message = "out of memory" if isinstance(exc, MemoryError) else exc
        sys.stderr.write(f"internal failure: {type(exc).__name__}: {message}\n")
        return 3
    finally:
        if enabled:
            gc.enable()


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
