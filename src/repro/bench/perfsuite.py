"""Microbenchmark suite for the DES kernel and pipeline hot paths.

Measures the following and records them in a JSON baseline file
(``BENCH_pr18.json`` at the repository root; ``BENCH_pr2.json`` and
``BENCH_pr7.json`` are the committed baselines of earlier kernels, kept
for the cumulative speedup story):

* ``kernel_ops`` — raw kernel throughput on a synthetic workload of
  timeouts, resource handoffs, and store transfers (events/second);
* ``kernel_ops_calendar`` — timer stress: timers spread over four
  decades of delay, so entries go to the timed heap rather than the
  now-lane (also records the kernel's cumulative ``queue_stats()``
  counters; the name dates from the calendar-queue kernel);
* ``cell_embedded_case3`` / ``cell_separate_case3`` — one full pipeline
  simulation each (the paper's 100-node case), recording wall time,
  total function calls under cProfile, and the result hash;
* ``cell_smoke`` — a small, fast cell used by CI and the perf-smoke
  test, same metrics;
* ``cell_two_tenant_smoke`` — a two-tenant mixed-strategy scenario on
  one shared PFS (the scenario layer's end-to-end hot path), gating the
  full ``ScenarioResult`` hash;
* ``metrics_overhead`` — the canonical embedded cell run plain and with
  live metrics sampling, recording the wall overhead fraction and
  gating on the *stripped* result hash (metrics must change nothing);
* ``reproduce_cold`` — wall time of the full table/figure reproduction
  with a cold cache (the end-to-end number a user experiences).

Function-call counts and result hashes are deterministic for a given
source tree, which makes them machine-independent regression metrics:
``check_against()`` flags a run whose call count exceeds the committed
baseline by more than the tolerance, or whose result hash differs at
all (a determinism break).  Wall times are recorded for human eyes but
never gated on — CI machines are too noisy for that.

Usage::

    python -m repro.bench.perfsuite --write BENCH_pr18.json
    python -m repro.bench.perfsuite --check BENCH_pr18.json --only cell_smoke
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import pstats
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "run_suite",
    "measure_cell",
    "measure_scenario_cell",
    "measure_kernel_ops",
    "measure_kernel_ops_calendar",
    "measure_metrics_overhead",
    "measure_reproduce_cold",
    "check_against",
    "main",
]

#: Tolerated relative growth in function calls before check_against fails.
DEFAULT_TOLERANCE = 0.20

#: Baselines from the pre-overhaul kernel (same cells, same settings),
#: kept so the report can show the cumulative speedup.
PRE_OVERHAUL = {
    "cell_embedded_case3_calls": 9_901_666,
    "reproduce_cold_wall_s": 19.7,
}


def _profiled(fn: Callable[[], Any]) -> Tuple[float, int, Any]:
    """Run ``fn`` twice: once plain for wall time, once under cProfile
    for the deterministic call count.  GC is disabled while measuring so
    collector-triggered finalizers cannot perturb either number."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        profiler = cProfile.Profile()
        profiler.enable()
        fn()
        profiler.disable()
    finally:
        gc.enable()
    calls = pstats.Stats(profiler).total_calls
    return wall, calls, out


# -- workloads -----------------------------------------------------------
def _kernel_workload(n_workers: int = 50, n_iters: int = 400) -> int:
    """Synthetic kernel stress: timeouts, contended + uncontended resource
    handoffs, and store producer/consumer pairs.  Returns the number of
    scheduled entries processed (the kernel's seq counter)."""
    from repro.sim.kernel import Kernel
    from repro.sim.resources import Resource, Store

    k = Kernel()
    shared = Resource(k, capacity=2, name="shared")
    private = [Resource(k, capacity=1, name=f"p{i}") for i in range(n_workers)]
    box = Store(k, name="box")

    def worker(i: int):
        mine = private[i]
        for j in range(n_iters):
            yield k.timeout(0.001 * (i + 1))
            yield mine.request()          # always uncontended
            yield k.timeout(0.0)
            mine.release()
            yield shared.request()        # contended across workers
            yield k.timeout(0.0005)
            shared.release()
            box.put((i, j))

    def drainer(total: int):
        for _ in range(total):
            yield box.get()

    for i in range(n_workers):
        k.process(worker(i), name=f"w{i}")
    k.process(drainer(n_workers * n_iters), name="drain")
    k.run()
    return k._seq


def _calendar_workload(n_timers: int = 1000, rounds: int = 16):
    """Timer stress: pure timer traffic spread over four decades of delay
    (0.01–10 s), so almost every entry goes to the timed heap rather than
    the now-lane, with about a thousand entries live.  Each timer re-arms
    at a drifting decade.  Returns the kernel (for ``queue_stats()``)."""
    from repro.sim.kernel import Kernel

    k = Kernel()

    def timer(i: int):
        for r in range(rounds):
            scale = 10.0 ** ((i + r) % 4 - 2)
            yield k.timeout(scale * (1 + (i * 7919) % 97) / 97.0)

    for i in range(n_timers):
        k.process(timer(i), name=f"t{i}")
    k.run()
    return k


def _cell_spec(pipeline: str, case: int, n_cpis: int, warmup: int,
               stripe_factor: int, metrics_interval: Optional[float] = None):
    from repro.bench.engine import ExperimentSpec
    from repro.core.context import ExecutionConfig
    from repro.core.executor import FSConfig
    from repro.core.pipeline import NodeAssignment
    from repro.stap.params import STAPParams

    params = STAPParams()
    return ExperimentSpec(
        assignment=NodeAssignment.case(case, params),
        pipeline=pipeline,
        machine="paragon",
        fs=FSConfig(kind="pfs", stripe_factor=stripe_factor),
        params=params,
        cfg=ExecutionConfig(
            n_cpis=n_cpis, warmup=warmup, metrics_interval=metrics_interval
        ),
        seed=0,
    )


def measure_cell(pipeline: str, case: int, n_cpis: int = 8, warmup: int = 2,
                 stripe_factor: int = 64) -> Dict[str, Any]:
    """Wall time, call count, and result hash of one pipeline cell."""
    from repro.bench.engine import run_spec

    spec = _cell_spec(pipeline, case, n_cpis, warmup, stripe_factor)
    wall, calls, result = _profiled(lambda: run_spec(spec))
    digest = hashlib.sha256(
        json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "pipeline": pipeline,
        "case": case,
        "n_cpis": n_cpis,
        "warmup": warmup,
        "stripe_factor": stripe_factor,
        "wall_s": round(wall, 4),
        "calls": calls,
        "result_hash": digest,
    }


def measure_scenario_cell(pipelines: Tuple[str, ...] = ("embedded-io",
                                                        "separate-io"),
                          case: int = 1, n_cpis: int = 4, warmup: int = 1,
                          stripe_factor: int = 8,
                          fs_kind: str = "pfs") -> Dict[str, Any]:
    """Wall time, call count, and result hash of one multi-tenant cell.

    One tenant per entry of ``pipelines``, all on the given case's node
    assignment, sharing a single substrate — exercising the scenario
    layer's rank-offset communicators, tenant-namespaced files, and
    shared-FS accounting end to end.
    """
    from repro.core.context import ExecutionConfig
    from repro.core.executor import FSConfig
    from repro.core.pipeline import NodeAssignment
    from repro.scenario import ScenarioSpec, TenantSpec, run_scenario
    from repro.stap.params import STAPParams

    params = STAPParams()
    cfg = ExecutionConfig(n_cpis=n_cpis, warmup=warmup)
    spec = ScenarioSpec(
        tenants=tuple(
            TenantSpec(
                assignment=NodeAssignment.case(case, params),
                pipeline=pipeline,
                cfg=cfg,
            )
            for pipeline in pipelines
        ),
        machine="paragon",
        fs=FSConfig(kind=fs_kind, stripe_factor=stripe_factor),
        params=params,
        seed=0,
    )
    wall, calls, result = _profiled(lambda: run_scenario(spec))
    digest = hashlib.sha256(
        json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "pipelines": list(pipelines),
        "case": case,
        "n_cpis": n_cpis,
        "warmup": warmup,
        "stripe_factor": stripe_factor,
        "fs_kind": fs_kind,
        "wall_s": round(wall, 4),
        "calls": calls,
        "result_hash": digest,
    }


def _stripped_hash(result) -> str:
    """Result hash with the observability fields removed.

    A metrics run must be bit-identical to a plain run everywhere except
    the artifact itself and the config field that asked for it; hashing
    the dict with those two stripped makes "metrics changed nothing"
    a checkable invariant.
    """
    d = result.to_dict()
    d.pop("metrics", None)
    d.get("cfg", {}).pop("metrics_interval", None)
    return hashlib.sha256(
        json.dumps(d, sort_keys=True).encode("utf-8")
    ).hexdigest()


def measure_metrics_overhead(case: int = 3, n_cpis: int = 8, warmup: int = 2,
                             stripe_factor: int = 64,
                             interval: float = 0.25) -> Dict[str, Any]:
    """Cost and correctness of the observability layer on one cell.

    Runs the canonical embedded cell plain and with metrics sampling.
    ``result_hash`` is the metrics run's *stripped* hash (see
    :func:`_stripped_hash`), gated against the plain cell's baseline
    hash — so any event-ordering perturbation from the sampler fails
    the check.  The wall overhead fraction is recorded for human eyes.
    """
    from repro.bench.engine import run_spec

    plain_spec = _cell_spec("embedded", case, n_cpis, warmup, stripe_factor)
    metrics_spec = _cell_spec("embedded", case, n_cpis, warmup, stripe_factor,
                              metrics_interval=interval)

    def _best_wall(spec) -> Tuple[float, Any]:
        # Best-of-3: single runs swing ~±5% on shared machines, far more
        # than the overhead being measured.
        best, out = float("inf"), None
        for _ in range(3):
            gc.collect()
            t0 = time.perf_counter()
            out = run_spec(spec)
            best = min(best, time.perf_counter() - t0)
        return best, out

    wall_plain, plain = _best_wall(plain_spec)
    wall_metrics, metered = _best_wall(metrics_spec)
    _, calls, _ = _profiled(lambda: run_spec(metrics_spec))
    assert _stripped_hash(metered) == _stripped_hash(plain), (
        "metrics run diverged from plain run — the sampler perturbed "
        "event ordering"
    )
    overhead = (wall_metrics - wall_plain) / wall_plain if wall_plain else 0.0
    return {
        "case": case,
        "n_cpis": n_cpis,
        "warmup": warmup,
        "stripe_factor": stripe_factor,
        "interval": interval,
        "wall_plain_s": round(wall_plain, 4),
        "wall_metrics_s": round(wall_metrics, 4),
        "overhead_frac": round(overhead, 4),
        "samples": metered.metrics["samples"],
        "calls": calls,
        "result_hash": _stripped_hash(metered),
    }


def measure_kernel_ops() -> Dict[str, Any]:
    """Kernel scheduling throughput on the synthetic workload."""
    wall, calls, entries = _profiled(_kernel_workload)
    return {
        "entries": entries,
        "wall_s": round(wall, 4),
        "entries_per_s": round(entries / wall) if wall > 0 else None,
        "calls": calls,
    }


def measure_kernel_ops_calendar() -> Dict[str, Any]:
    """Timer throughput plus the kernel's cumulative queue counters."""
    wall, calls, k = _profiled(_calendar_workload)
    qs = k.queue_stats()
    return {
        "entries": qs["total_entries"],
        "calendar_entries": qs["calendar_entries"],
        "lane_ratio": round(qs["lane_ratio"], 4),
        "advances": qs["advances"],
        "fallback_scans": qs["fallback_scans"],
        "resizes": qs["resizes"],
        "wall_s": round(wall, 4),
        "entries_per_s": (
            round(qs["total_entries"] / wall) if wall > 0 else None
        ),
        "calls": calls,
    }


def measure_reproduce_cold() -> Dict[str, Any]:
    """Wall time of the full paper reproduction with a cold cache."""
    from repro.bench.engine import SweepRunner
    from repro.bench.experiments import (
        run_fig8,
        run_table1,
        run_table2,
        run_table3,
        run_table4,
    )
    from repro.core.context import ExecutionConfig

    cfg = ExecutionConfig(n_cpis=8, warmup=2)

    def _reproduce():
        runner = SweepRunner(jobs=1, store=None)  # cold: no result cache
        t1 = run_table1(cfg=cfg, runner=runner)
        run_table2(cfg=cfg, runner=runner)
        t3 = run_table3(cfg=cfg, runner=runner)
        run_table4(table1=t1, table3=t3, runner=runner)
        run_fig8(table1=t1, table3=t3, runner=runner)
        return runner.executed

    gc.collect()
    t0 = time.perf_counter()
    executed = _reproduce()
    wall = time.perf_counter() - t0
    return {"wall_s": round(wall, 2), "cells_executed": executed}


#: name -> zero-argument producer of that section's measurement.
_SECTIONS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "kernel_ops": measure_kernel_ops,
    "kernel_ops_calendar": measure_kernel_ops_calendar,
    "cell_smoke": lambda: measure_cell(
        "embedded", 1, n_cpis=4, warmup=1, stripe_factor=16
    ),
    "cell_two_phase_smoke": lambda: measure_cell(
        "collective-two-phase", 1, n_cpis=4, warmup=1, stripe_factor=16
    ),
    "cell_list_io_smoke": lambda: measure_cell(
        "list-io", 1, n_cpis=4, warmup=1, stripe_factor=16
    ),
    "cell_two_tenant_smoke": lambda: measure_scenario_cell(
        ("embedded-io", "separate-io"), 1, n_cpis=4, warmup=1,
        stripe_factor=8
    ),
    "cell_embedded_case3": lambda: measure_cell("embedded", 3),
    "cell_separate_case3": lambda: measure_cell("separate", 3),
    "metrics_overhead": measure_metrics_overhead,
    "reproduce_cold": measure_reproduce_cold,
}


def run_suite(only: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run the selected benchmark sections (all by default)."""
    names = list(_SECTIONS) if not only else list(only)
    out: Dict[str, Any] = {"schema": 1, "pre_overhaul": PRE_OVERHAUL}
    for name in names:
        if name not in _SECTIONS:
            raise KeyError(
                f"unknown benchmark section {name!r}; "
                f"choose from {', '.join(_SECTIONS)}"
            )
        print(f"[perfsuite] running {name} ...", file=sys.stderr)
        out[name] = _SECTIONS[name]()
    return out


def check_against(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Compare ``current`` measurements against a committed ``baseline``.

    Returns a list of human-readable failures (empty = pass).  Gated
    metrics: function-call counts (must not grow more than ``tolerance``
    relative) and result hashes (must match exactly).  Sections missing
    from either side are skipped, so a quick run checking only
    ``cell_smoke`` works against a full baseline file.
    """
    failures: List[str] = []
    for name, cur in current.items():
        base = baseline.get(name)
        if not isinstance(cur, dict) or not isinstance(base, dict):
            continue
        if "calls" in cur and "calls" in base:
            limit = base["calls"] * (1.0 + tolerance)
            if cur["calls"] > limit:
                failures.append(
                    f"{name}: {cur['calls']} calls exceeds baseline "
                    f"{base['calls']} by more than {tolerance:.0%}"
                )
        if "result_hash" in cur and "result_hash" in base:
            if cur["result_hash"] != base["result_hash"]:
                failures.append(
                    f"{name}: result hash {cur['result_hash'][:12]} != "
                    f"baseline {base['result_hash'][:12]} "
                    "(simulation results changed)"
                )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.perfsuite",
        description="kernel/pipeline microbenchmarks with a JSON baseline",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE",
                      help="run the suite and write the baseline JSON")
    mode.add_argument("--check", metavar="FILE",
                      help="run the suite and compare against a baseline")
    parser.add_argument("--only", action="append", metavar="SECTION",
                        help=f"run a subset (choices: {', '.join(_SECTIONS)}); "
                        "repeatable")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed relative call-count growth for --check "
                        f"(default {DEFAULT_TOLERANCE})")
    args = parser.parse_args(argv)

    results = run_suite(only=args.only)
    if args.write:
        with open(args.write, "w") as f:
            json.dump(results, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline written to {args.write}")
        return 0

    with open(args.check) as f:
        baseline = json.load(f)
    failures = check_against(baseline, results, tolerance=args.tolerance)
    for name, section in results.items():
        if isinstance(section, dict) and "calls" in section:
            base = baseline.get(name, {})
            print(f"{name}: {section['calls']} calls "
                  f"(baseline {base.get('calls', '?')}), "
                  f"{section.get('wall_s', '?')} s")
    if failures:
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("perf check passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
