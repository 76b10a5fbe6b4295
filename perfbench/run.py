"""Repository benchmark: three workloads over the simulator's public API.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 36 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory and nothing outside the checkout is read or written (scratch
stores live under ``.bench_work/`` and are removed on exit).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer ledger with ``--trace 1``.  A human-readable summary,
with sample counts, goes to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics: name -> unit.  The rate is cold samples over
#: their summed latency (one client, closed loop): unlike a percentile of
#: cells that differ in size, it does not jump when the host's speed
#: moves a percentile from one cluster of cell sizes to the next.  Warm
#: hits are timed too, but only reported on standard error and in the
#: ledger (see README.md for why).
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Fresh-interpreter set-ups per timed run; setup_s is their median.
#: They are spread evenly over the run's passes: the host's speed drifts
#: over tens of seconds, and set-ups taken back to back would all catch
#: the same moment of it.
SETUP_PROBES = 5


def _setup_s(workload: str, work_dir: str, i: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
         os.path.join(work_dir, f"probe{i}")],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _timed(wl, args, work_dir: str) -> tuple:
    from workloads import Samples, percentile

    probes = 1 if args.quick else SETUP_PROBES
    setups = []
    wl.open()
    # Imports and set-up objects live for the whole run: move them out of
    # the collector's generations so its pauses scale with the work only.
    gc.collect()
    gc.freeze()
    s = Samples()
    walls = []
    t_start = time.perf_counter()
    try:
        # Whole passes only, so every run weighs every cell alike; start
        # another only if it should end within --seconds of pass time.
        # Set-up probe k runs before the first pass that starts at or
        # after k/probes of it; their time is not pass time.
        while True:
            while (len(setups) < probes
                   and sum(walls) >= len(setups) * args.seconds / probes):
                setups.append(_setup_s(args.workload, work_dir, len(setups)))
            t0 = time.perf_counter()
            wl.one_pass(s)
            walls.append(time.perf_counter() - t0)
            if sum(walls) + statistics.median(walls) > args.seconds:
                break
        while len(setups) < probes:
            setups.append(_setup_s(args.workload, work_dir, len(setups)))
    finally:
        wl.close()
    values = {
        "setup_s": statistics.median(setups),
        "cells_per_s": 1e3 * len(s.cold_ms) / sum(s.cold_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "setup_s": len(setups),
        "cells_per_s": len(s.cold_ms),
        "peak_rss_mb": 1,
    }
    for name, samples in (("cold", s.cold_ms), ("warm", s.warm_ms)):
        print(f"[perfbench]   ({name} latency p50 {statistics.median(samples):.2f} ms, "
              f"p90 {percentile(samples, 90):.2f} ms, n={len(samples)})",
              file=sys.stderr)
    print(f"[perfbench] {args.workload}: {s.passes} pass(es) in "
          f"{time.perf_counter() - t_start:.1f} s", file=sys.stderr)
    return values, counts, END_TO_END


def _traced(wl) -> tuple:
    from traced import PER_LAYER, traced_run

    wl.open()
    try:
        values, counts = traced_run(wl, os.path.join(SRC, "repro"))
    finally:
        wl.close()
    return values, counts, PER_LAYER


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import cells

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cells.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced size (a few cells per group; self-test)")
    parser.add_argument("--pins", default=None,
                        help="pinned-hash file (default: pins.json here)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import Tally, Workload

    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        tally = Tally(cells.load_pins(args.pins or cells.PINS_PATH))
        wl = Workload(args.workload, work_dir, tally, args.seed, args.quick)
        if args.trace:
            values, counts, units = _traced(wl)
        else:
            values, counts, units = _timed(wl, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    for name, value in values.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"[perfbench]   {name:32s} {value:14.6g} {units[name]}{n}",
              file=sys.stderr)
    for err in tally.errors:
        print(f"[perfbench] MISMATCH {err}", file=sys.stderr)
    print(f"[perfbench] checked {tally.attempted}, failed {tally.failed}",
          file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
