"""The benchmark's tracer patches arrtop functions by name; a refactor
that renames one would silently drop a layer from traced runs."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

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
