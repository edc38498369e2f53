#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ladder --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
``--out FILE`` also writes every run's result as JSON, so that two sets
(for example a parent and a change) can be compared afterwards.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="inclusive range such as 1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))

    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        print(f"{m['name']:16s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{(q3 - q1) / med:8.4f} {m['bound']:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
