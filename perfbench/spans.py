"""Span tracer for the benchmark's traced runs.

The tracer replaces each traced public function of an arrtop layer by a
wrapper that records one span per call: name, parent span, start and
end.  Span lengths are calibrated by the host clock (hostclock.py) like
every other time.
A function is patched at every module attribute bound to it, so a
caller that imported the name (``from .exactla import rank``) is traced
just like one that looks it up on its defining module.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer self times and
counters after the run.

Self time of a span is its duration minus the durations of its direct
children (calls are nested on one thread, so children never overlap).
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Public functions traced per layer; "Class.method" patches the class.
TRACED = {
    "geometry": ("intersection_poset", "generic_section", "localize", "decone",
                 "essentialize", "zero_flats", "betti_numbers",
                 "characteristic_polynomial"),
    "realfaces": ("enumerate_faces", "region_counts"),
    "feasibility": ("feasible_point",),
    "salvetti": ("build_salvetti", "twisted_complex", "twisted_betti",
                 "untwisted_homology", "boundary_matrices"),
    "exactla": ("complex_dims", "rank"),
    "localsys": ("build_local_system", "scalar_system", "is_trivial", "restrict",
                 "decone_system", "total_turn", "LocalSystem.inverse_system"),
    "harness": ("generate_corpus", "systems_for_arrangement", "braid_essentialized",
                "random_generic", "random_central", "run_verification",
                "reports_to_json", "VerifyContext.dims"),
    "cli": ("main",),
}

# Re-exported bindings that callers use today; each must end up traced.
MUST_PATCH = ("salvetti.complex_dims", "harness.matrix_rank",
              "realfaces.feasible_point", "exactla.rank")

MAX_DEGREE = 4

# Metrics derived from the spans: self times in seconds, then counters
# that must repeat exactly across runs of one commit and seed.
TIME_METRICS = (
    "geometry.poset_s", "geometry.section_s", "realfaces.enumerate_s",
    "realfaces.region_counts_s", "feasibility.s", "salvetti.build_s",
    "exactla.gate_build_s", "exactla.rank_q_build_s", "salvetti.assemble_s",
    "exactla.gate_system_s", "exactla.rank_q_s", "exactla.rank_fp_s",
    "localsys.s", "harness.generate_s", "harness.self_s", "cli.self_s",
)
COUNT_METRICS = (
    "geometry.poset_calls", "geometry.section_calls", "realfaces.faces",
    "feasibility.calls", "salvetti.cells",
    *(f"salvetti.cells_d{k}" for k in range(MAX_DEGREE + 1)),
    "salvetti.assemble_calls", "salvetti.assemble_nnz",
    "salvetti.twisted_betti_calls",
    "exactla.rank_q_calls", "exactla.rank_q_elems", "exactla.rank_q_full",
    "exactla.rank_fp_calls", "exactla.rank_fp_elems", "exactla.rank_fp_full",
    "harness.dims_calls", "harness.dims_hit_ratio", "trace.spans",
)


def _rank_attrs(args, result):
    matrix, fieldspec = args[0], args[1]
    return (fieldspec.kind, matrix.nrows * matrix.ncols,
            result == min(matrix.nrows, matrix.ncols))


HOOKS = {
    "exactla.rank": _rank_attrs,
    "realfaces.enumerate_faces": lambda args, result: len(result.faces),
    "salvetti.build_salvetti": lambda args, result: tuple(result.cell_counts),
    "salvetti.twisted_complex":
        lambda args, result: sum(len(m.entries) for m in result.matrices),
}


class Tracer:
    def __init__(self, clock):
        self.clock = clock           # HostClock that runs during the trace
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.attrs = {}
        self._stack = [-1]
        self._restore = []
        self._durations = []
        self.missing = []

    def _wrap(self, name, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, attrs, hook = self._stack, self.attrs, HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                attrs[idx] = hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every traced function at each module attribute bound to it."""
        modules = [m for key, m in sys.modules.items()
                   if (key == "arrtop" or key.startswith("arrtop.")) and m is not None]
        originals = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"arrtop.{layer}")
            for name in names:
                owner, attr = module, name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(module, cls)
                fn = owner.__dict__.get(attr)
                if fn is None:           # gone from the program: nothing to trace
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                originals[id(fn)] = (fn, wrapper)
                self._patch(owner, attr, fn, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1])
        for dotted in MUST_PATCH:
            layer, attr = dotted.split(".")
            value = getattr(importlib.import_module(f"arrtop.{layer}"), attr)
            if not hasattr(value, "__wrapped__"):
                raise RuntimeError(f"{dotted} is not traced")

    def _patch(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- analysis -----------------------------------------------------------

    def durations(self):
        """Calibrated span lengths (reference-kernel runs excluded)."""
        if len(self._durations) != len(self.names):
            seconds = self.clock.seconds
            self._durations = [seconds(s, e) for s, e in zip(self.starts, self.ends)]
        return self._durations

    def self_times(self):
        dur = self.durations()
        own = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def calls_by_parent_layer(self):
        """Counter of (span name, layer of the parent span or None)."""
        out = Counter()
        for name, parent in zip(self.names, self.parents):
            out[(name, self.names[parent].split(".")[0] if parent >= 0 else None)] += 1
        return out

    def profile(self):
        """Call-tree summary: one row per path of span names."""
        dur, own = self.durations(), self.self_times()
        paths = []
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, parent) in enumerate(zip(self.names, self.parents)):
            path = name if parent < 0 else f"{paths[parent]}/{name}"
            paths.append(path)
            row = rows[path]
            row[0] += 1
            row[1] += dur[idx]
            row[2] += own[idx]
        return [{"path": p, "calls": c, "total_s": t, "self_s": s}
                for p, (c, t, s) in sorted(rows.items())]


def _under_build(tracer, idx, memo):
    """Whether the nearest salvetti-layer ancestor is build_salvetti."""
    chain = []
    found = False
    while idx >= 0:
        if idx in memo:
            found = memo[idx]
            break
        name = tracer.names[idx]
        chain.append(idx)
        if name.startswith("salvetti."):
            found = name == "salvetti.build_salvetti"
            break
        idx = tracer.parents[idx]
    for i in chain:
        memo[i] = found
    return found


def layer_metrics(tracer: Tracer):
    """Per-layer self times and deterministic counters from the spans."""
    own = tracer.self_times()
    dur = tracer.durations()
    names, parents, attrs = tracer.names, tracer.parents, tracer.attrs
    m = dict.fromkeys(TIME_METRICS, 0.0)
    m.update(dict.fromkeys(COUNT_METRICS, 0))
    memo = {}
    dims_misses = 0
    for idx, name in enumerate(names):
        layer = name.split(".")[0]
        s = own[idx]
        m["trace.spans"] += 1
        if layer == "localsys":
            m["localsys.s"] += s
        elif layer == "harness":
            m["harness.self_s"] += s
        elif layer == "cli":
            m["cli.self_s"] += s
        if name == "geometry.intersection_poset":
            m["geometry.poset_s"] += s
            m["geometry.poset_calls"] += 1
        elif name == "geometry.generic_section":
            m["geometry.section_s"] += s
            m["geometry.section_calls"] += 1
        elif name == "realfaces.enumerate_faces":
            m["realfaces.enumerate_s"] += s
            m["realfaces.faces"] += attrs[idx]
        elif name == "realfaces.region_counts":
            m["realfaces.region_counts_s"] += s
        elif name == "feasibility.feasible_point":
            m["feasibility.s"] += s
            m["feasibility.calls"] += 1
        elif name == "salvetti.build_salvetti":
            m["salvetti.build_s"] += s
            for k, c in enumerate(attrs[idx]):
                m[f"salvetti.cells_d{k}"] += c
                m["salvetti.cells"] += c
        elif name == "salvetti.twisted_complex":
            m["salvetti.assemble_s"] += s
            m["salvetti.assemble_calls"] += 1
            m["salvetti.assemble_nnz"] += attrs[idx]
        elif name == "salvetti.twisted_betti":
            m["salvetti.twisted_betti_calls"] += 1
            if parents[idx] >= 0 and names[parents[idx]] == "harness.VerifyContext.dims":
                dims_misses += 1
        elif name == "exactla.complex_dims":
            side = "build" if _under_build(tracer, idx, memo) else "system"
            m[f"exactla.gate_{side}_s"] += s
        elif name == "exactla.rank":
            kind, elems, full = attrs[idx]
            if kind == "Q" and _under_build(tracer, idx, memo):
                m["exactla.rank_q_build_s"] += s
                continue
            prefix = "exactla.rank_q" if kind == "Q" else "exactla.rank_fp"
            m[f"{prefix}_s"] += s
            m[f"{prefix}_calls"] += 1
            m[f"{prefix}_elems"] += elems
            m[f"{prefix}_full"] += int(full)
        elif name == "harness.generate_corpus":
            m["harness.generate_s"] += dur[idx]
        elif name == "harness.VerifyContext.dims":
            m["harness.dims_calls"] += 1
    calls = m["harness.dims_calls"]
    m["harness.dims_hit_ratio"] = 1 - dims_misses / calls if calls else 0.0
    return m
