#!/usr/bin/env python3
"""arrtop benchmark: one workload per run, timed end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-fp --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up the workload ``setup_repeats`` times (``setup_s`` is
the median), then repeats whole passes until ``--seconds`` have passed,
at least once.  The only instrumentation is one timer around each
``salvetti.twisted_betti`` call.  Times are host-speed-calibrated
(hostclock.py); the raw ones are printed as comments.  ``--trace 1``
makes one untraced and one traced set-up plus pass, and reports
per-layer self times (calibrated too) and counters from the traced one; the
difference of the two wall times is the tracing overhead.  Every pass
is checked; a failed check makes the run exit 1 after printing its
result.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.

Cross-run state (answer digests and counters per seed and source
fingerprint) lives in ``.bench_build/perfbench`` under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".bench_build" / "perfbench"

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _import_program():
    """Import arrtop from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "arrtop" / "__init__.py").is_file():
        raise SystemExit(f"error: no arrtop sources under {src}")
    sys.path.insert(0, str(src))
    import arrtop
    if Path(arrtop.__file__).resolve().parent != (src / "arrtop").resolve():
        raise SystemExit(f"error: imported arrtop from {arrtop.__file__}")


class CallTimer:
    """Records the raw interval of each ``salvetti.twisted_betti`` call."""

    def __init__(self):
        from arrtop import salvetti
        self.module = salvetti
        self.original = salvetti.twisted_betti
        self.samples = []            # (field kind, start, end)

    def __enter__(self):
        original, samples = self.original, self.samples

        def timed(sc, system):
            t0 = perf_counter()
            try:
                return original(sc, system)
            finally:
                samples.append((system.field.kind, t0, perf_counter()))

        self.module.twisted_betti = timed
        return self

    def __exit__(self, *exc):
        self.module.twisted_betti = self.original


def _fingerprint() -> str:
    """Hash of the program and benchmark sources: state is kept per version."""
    h = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _same_as_before(kind: str, workload: str, seed: int, value: str):
    """Compare with the value an earlier run of this version and seed
    stored; store it when there is none.  Returns a problem or None."""
    path = STATE / f"{kind}-{workload}-s{seed}-{_fingerprint()}.json"
    if path.exists():
        before = path.read_text()
        if before != value:
            return f"{kind} differ from an earlier run of this version and seed"
        return None
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(value)
    os.replace(tmp, path)
    return None


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] \
        if len(values) > 1 else values[0]


def timed_run(workload, seed, seconds, scratch):
    from hostclock import HostClock

    setups, passes, per_pass, outcomes = [], [], [], []
    with HostClock() as clock, CallTimer() as timer:
        state = None
        for _ in range(workload.setup_repeats):
            state = None             # let the previous set-up go first
            t0 = perf_counter()
            state = workload.setup(seed)
            setups.append((t0, perf_counter()))
        start = perf_counter()
        while True:
            first = len(timer.samples)
            t0 = perf_counter()
            raw = workload.execute(state, seed, scratch)
            passes.append((t0, perf_counter()))
            per_pass.append(timer.samples[first:])
            outcomes.append(workload.check(state, raw))
            if perf_counter() - start >= seconds:
                break
    if not all(per_pass):
        raise SystemExit("error: a pass made no timed twisted_betti call")

    def betti(sample, kinds):
        return sum(clock.seconds(a, b) for kind, a, b in sample if kind in kinds)

    # percentiles per pass, then the median over passes, so that the
    # number of passes a run fits in does not change what they mean
    latencies = [[clock.seconds(a, b) for _, a, b in s] for s in per_pass]
    metrics = {
        "setup_s": statistics.median(clock.seconds(a, b) for a, b in setups),
        "systems_per_s": sum(o.answered for o in outcomes)
        / sum(clock.seconds(a, b) for a, b in passes),
        "system_p50_ms": 1e3 * statistics.median(map(statistics.median, latencies)),
        "system_p90_ms": 1e3 * statistics.median(map(_p90, latencies)),
        "betti_s": statistics.median(betti(s, ("Q", "Fp")) for s in per_pass),
        "betti_fp_s": statistics.median(betti(s, ("Fp",)) for s in per_pass),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    kernel = clock.raw_kernel_s()
    info = {"passes": len(passes), "twisted_betti_calls": sum(map(len, latencies)),
            "raw_setup_s": [b - a for a, b in setups],
            "raw_pass_s": [b - a for a, b in passes],
            "reference_runs": len(kernel),
            "reference_s_min_median_max": [min(kernel), statistics.median(kernel),
                                           max(kernel)]}
    return metrics, outcomes, info


def traced_run(workload, seed, scratch):
    import spans
    from hostclock import HostClock

    with HostClock() as clock:
        t0 = perf_counter()
        state = workload.setup(seed)
        raw = workload.execute(state, seed, scratch)
        untraced = (t0, perf_counter())
        outcomes = [workload.check(state, raw)]

        tracer = spans.Tracer(clock)
        tracer.install()
        try:
            t0 = perf_counter()
            state = workload.setup(seed)
            raw = workload.execute(state, seed, scratch)
            traced = (t0, perf_counter())
        finally:
            tracer.uninstall()
        outcomes.append(workload.check(state, raw))
    untraced, traced = clock.seconds(*untraced), clock.seconds(*traced)

    metrics = spans.layer_metrics(tracer)
    metrics["cli.report_bytes"] = outcomes[-1].report_bytes
    metrics["trace.overhead_s"] = traced - untraced

    problems = []
    seen = tracer.calls_by_parent_layer()
    for required in workload.required_spans:
        name, _, parent = required.partition("<")
        if not any(n == name and (not parent or p == parent) for n, p in seen):
            problems.append(f"no traced call of {required}")
    counters = {k: metrics[k] for k in (*spans.COUNT_METRICS, "cli.report_bytes")}
    problem = _same_as_before("counters", workload.name, seed,
                              json.dumps(counters, sort_keys=True))
    if problem:
        problems.append(problem)
    profile_path = STATE / f"profile-{workload.name}-s{seed}.json"
    profile_path.write_text(json.dumps(
        {"untraced_s": untraced, "traced_s": traced, "calls": tracer.profile()},
        indent=1))
    info = {"untraced_s": untraced, "traced_s": traced, "profile": str(profile_path),
            "not_found": tracer.missing}
    return metrics, outcomes, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    STATE.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=STATE) as tmp:
        if args.trace:
            metrics, outcomes, info, problems = traced_run(workload, args.seed, Path(tmp))
            declared = spec["per_layer"]
        else:
            metrics, outcomes, info = timed_run(workload, args.seed, args.seconds, Path(tmp))
            problems = []
            declared = spec["end_to_end"]

    attempted = sum(o.attempted for o in outcomes) + 1
    failed = sum(o.failed for o in outcomes)
    digests = {o.digest for o in outcomes}
    if len(digests) != 1:
        problems.append("answers differ between passes of this run")
    else:
        problem = _same_as_before("answers", workload.name, args.seed, digests.pop())
        if problem:
            problems.append(problem)
    failed += bool(problems)
    problems = [p for o in outcomes for p in o.problems] + problems

    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(names))} "
                         "are not both declared and measured")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    for key, value in info.items():
        print(f"# {key}: {value}")
    for m in declared:
        value = metrics[m["name"]]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{m['name']:30s} {shown} {m['unit']}")
    print(f"{'failed_share':30s} {failed / attempted:>16.6f} "
          f"({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
