"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it: ten runs with seeds 1-10 at BENCHMARK.json's run_seconds,
and per metric the distance between the first and third quartile as a
share of the median.

    python3 perfbench/spread.py --workload paper-grid

Prints one line per metric (median, spread, bound, spread / bound) and
the raw values as JSON on the last line.  Metrics whose spread is above
a third of their bound are flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not out["correct"]:
            print(proc.stderr, file=sys.stderr)
            return 1
        for name in values:
            values[name].append(out["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.4g}" for n, v in values.items()), file=sys.stderr)

    print(f"{'metric':18s} {'median':>10s} {'spread':>8s} {'bound':>6s} ratio")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "  <-- above bound/3" if spread > bounds[name] / 3 else ""
        print(f"{name:18s} {med:10.4g} {spread:8.4f} {bounds[name]:6.2f} "
              f"{spread / bounds[name]:.2f}{flag}")
    print(json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
