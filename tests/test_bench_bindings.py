"""The benchmark's tracer patches arrtop functions by name; a refactor
that renames one would silently drop a layer from traced runs, and one
that stops calling one would fail the traced run's required spans."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest
from conftest import make_arrangement

from arrtop.exactla import FMatrixSparse
from arrtop.fields import FieldSpec
from arrtop.localsys import scalar_system
from arrtop.realfaces import enumerate_faces
from arrtop.salvetti import build_salvetti

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")

# Traced names whose function left arrtop with its work, not under a new
# name: the tracer lists them as not found.  Each must stay gone.
REMOVED = {
    # the full boundary at t = 1; untwisted homology reads the reduced complex
    "salvetti.boundary_matrices",
}


def _spans_constants():
    """TRACED and MUST_PATCH, read from the source without importing it."""
    found = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TRACED", "MUST_PATCH"):
                found[name] = ast.literal_eval(node.value)
    return found["TRACED"], found["MUST_PATCH"]


def test_every_traced_name_resolves_in_arrtop():
    traced, must_patch = _spans_constants()
    functions = set()
    for layer, names in traced.items():
        module = importlib.import_module(f"arrtop.{layer}")
        for name in names:
            owner, attr = module, name
            if "." in name:
                cls, attr = name.split(".")
                owner = getattr(module, cls)
            fn = vars(owner).get(attr)
            if f"{layer}.{name}" in REMOVED:
                assert fn is None, f"{layer}.{name} is listed as removed but still defined"
                continue
            assert callable(fn), f"{layer}.{name} is traced but gone"
            functions.add(fn)
    for dotted in must_patch:
        layer, attr = dotted.split(".")
        value = getattr(importlib.import_module(f"arrtop.{layer}"), attr, None)
        assert value in functions, f"{dotted} is not bound to a traced function"


def _load(path):
    """A perfbench module, loaded by path (and listed in sys.modules,
    where dataclasses look a module up)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_reads_a_real_result():
    # each hook reads attributes off its function's result; a refactor that
    # drops one (cell_counts, faces, matrices) must fail here, not in a
    # traced run
    q = FieldSpec.rationals()
    gen3 = make_arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)])
    fc = enumerate_faces(gen3)
    sc = build_salvetti(fc)
    calls = {
        "exactla.rank": ((FMatrixSparse.from_rows([[1, 2], [2, 4]]), q), ("Q", 4, False)),
        "realfaces.enumerate_faces": ((gen3,), 19),
        "salvetti.build_salvetti": ((fc,), (7, 18, 12)),
        "salvetti.twisted_complex": ((sc, scalar_system(q, [2, 3, 5])), None),
    }
    hooks = _load(SPANS).HOOKS
    assert set(hooks) == set(calls)
    for name, hook in hooks.items():
        layer, attr = name.split(".")
        args, expected = calls[name]
        got = hook(args, getattr(importlib.import_module(f"arrtop.{layer}"), attr)(*args))
        if expected is None:             # the twisted complex's stored entries
            assert isinstance(got, int) and got > 0
        else:
            assert got == expected


@pytest.mark.parametrize("name", sorted(_load(WORKLOADS).WORKLOADS))
def test_each_workload_makes_its_required_traced_calls(name, tmp_path):
    # one traced set-up and pass at the benchmark's seed, checked as a
    # traced run checks them: each required span, "<layer" naming the
    # layer of its caller, was called at least once
    workload = _load(WORKLOADS).WORKLOADS[name]
    tracer = _load(SPANS).Tracer(None)
    tracer.install()
    try:
        workload.execute(workload.setup(1), 1, tmp_path)
    finally:
        tracer.uninstall()
    seen = tracer.calls_by_parent_layer()
    missing = []
    for required in workload.required_spans:
        span, _, parent = required.partition("<")
        if not any(n == span and (not parent or p == parent) for n, p in seen):
            missing.append(required)
    assert missing == []
