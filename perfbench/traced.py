"""The traced run: one per workload, separate from the timed runs.

It fills the per-layer ledger.  The cold cells are driven through
``run_spec``/``run_scenario`` directly, in the main thread, twice: once
with only the boundary wrappers on (the plain wall, the kernel and
build counters) and once under cProfile (self-time shares and exact
call counts).  ``SweepRunner(jobs=1)`` would run them on the
scheduler's dispatcher thread, where a main-thread profiler sees
nothing.  Then two ordinary passes (warm read-back, analysis and, for
the service, the TCP round trip) run with the wrappers on, for the
store, rehydration and service counters and the path percentiles.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict

import cells
from instrument import Boundaries, LayerProfile
from workloads import Samples, Workload, entry_point, percentile, run_cell

#: The layers whose code runs inside the profiled cells.  service, bench
#: and analysis run around the cells, not in them; they are measured by
#: the boundary wrappers instead.
PROFILED = ("sim", "mpi", "machine", "core", "pfs", "strategies", "scenario", "obs")

#: A percentile is reported only when at least 10 samples lie beyond
#: it, so a p90 needs 100 samples and reads 0 with fewer.
P90_SAMPLES = 100

#: Ordinary passes in a traced run: enough for 100 warm samples on
#: every workload (2 per cell and pass) and 100 cold ones on the
#: service (96 cells).  paper-grid's 54 and io-stress's 62 cold samples
#: get no p90; four passes would give them one, but push paper-grid's
#: traced run towards the 180 s a run may take.
ORDINARY_PASSES = 2

#: Per-layer metrics: name -> unit.  Every traced run emits all of them;
#: a layer that a workload does not exercise reads 0.
PER_LAYER: Dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.calendar_resizes": "count",
    "sim.lane_ratio": "ratio",
    "mpi.messages": "count",
    "mpi.bytes": "B",
    "mpi.get_match_calls": "count",
    "mpi.calls_per_message": "ratio",
    "machine.deliver_calls": "count",
    "machine.deliver_per_message": "ratio",
    "core.build_ms": "ms",
    "core.from_dict_ms": "ms",
    "pfs.requests": "count",
    "pfs.bytes_served": "B",
    "pfs.useful_byte_ratio": "ratio",
    "pfs.failed_requests": "count",
    "pfs.duplicate_ships": "count",
    "pfs.disk_busy_frac": "ratio",
    "strategies.read_calls": "count",
    "strategies.dropped_cpis": "count",
    "scenario.tenant_bytes_ratio": "ratio",
    "obs.samples": "count",
    "obs.overhead_frac": "ratio",
    "path.cold_p50_ms": "ms",
    "path.cold_p90_ms": "ms",
    "path.warm_p50_ms": "ms",
    "path.warm_p90_ms": "ms",
    "service.overhead_ms": "ms",
    "service.dedupe_batch_ms": "ms",
    "service.cache_hits": "count",
    "service.dedupe_hits": "count",
    "service.retries": "count",
    "service.respawns": "count",
    "service.wire_bytes_per_result": "B",
    "bench.store_get_ms": "ms",
    "bench.store_put_ms": "ms",
    "bench.store_hit_ratio": "ratio",
    "analysis.cells": "count",
    "analysis.load_ms_per_cell": "ms",
    **{f"{layer}.self_frac": "ratio" for layer in PROFILED},
    **{f"{layer}.calls": "count" for layer in PROFILED},
    "canonical.calls": "count",
    "canonical.get_match_calls": "count",
    "canonical.deliver_per_message": "ratio",
    "canonical.sim_self_frac": "ratio",
    "canonical.mpi_self_frac": "ratio",
    "canonical.machine_self_frac": "ratio",
    "canonical.core_self_frac": "ratio",
    "trace_overhead_frac": "ratio",
}


def _pipelines(result):
    """The pipeline results of a cell (itself) or a scenario (its tenants)."""
    tenants = getattr(result, "tenants", None)
    return list(tenants.values()) if tenants is not None else [result]


def _is_canonical(spec) -> bool:
    """The ROADMAP baseline cell: embedded, case 3, PFS sf=64."""
    from repro.core.pipeline import NodeAssignment
    from repro.stap.params import STAPParams

    return (getattr(spec, "pipeline", None) == "embedded"
            and spec.fs.kind == "pfs" and spec.fs.stripe_factor == 64
            and spec.assignment == NodeAssignment.case(3, STAPParams()))


class Ledger:
    """Accumulates the per-layer numbers of one traced run."""

    def __init__(self) -> None:
        self.v: Dict[str, float] = defaultdict(float)
        self.useful_bytes = 0
        self.busy_s = 0.0
        self.disk_s = 0.0
        self.tenant_bytes = 0
        self.tenant_total = 0

    def add_result(self, spec, result) -> None:
        from repro.stap.params import STAPParams

        cube = STAPParams().cube_nbytes
        v = self.v
        for r in _pipelines(result):
            for msgs, nbytes in (r.rank_traffic or {}).values():
                v["mpi.messages"] += msgs
                v["mpi.bytes"] += nbytes
            v["strategies.dropped_cpis"] += len(r.dropped_cpis or ())
            self.useful_bytes += r.cfg.n_cpis * cube
        writers = [getattr(spec, "writer", None)] + [
            getattr(t, "writer", None) for t in getattr(spec, "tenants", ())
        ]
        self.useful_bytes += sum(w.n_cpis * cube for w in writers if w)
        ds = result.disk_stats or {}
        v["pfs.requests"] += sum(ds.get("requests_per_server", ()))
        v["pfs.bytes_served"] += ds.get("bytes_served", 0)
        v["pfs.failed_requests"] += sum(ds.get("requests_failed_per_server", ()))
        v["pfs.duplicate_ships"] += sum(ds.get("duplicate_ships_per_server", ()))
        busy = ds.get("busy_time_per_server", ())
        self.busy_s += sum(busy)
        self.disk_s += len(busy) * result.elapsed_sim_time
        if getattr(result, "tenant_bytes", None) is not None:
            self.tenant_bytes += sum(result.tenant_bytes.values())
            self.tenant_total += ds.get("bytes_served", 0)

    def finish(self) -> None:
        v = self.v
        v["pfs.useful_byte_ratio"] = (
            self.useful_bytes / v["pfs.bytes_served"] if v["pfs.bytes_served"] else 0.0
        )
        v["pfs.disk_busy_frac"] = self.busy_s / self.disk_s if self.disk_s else 0.0
        v["scenario.tenant_bytes_ratio"] = (
            self.tenant_bytes / self.tenant_total if self.tenant_total else 0.0
        )


def _layer_metrics(v, prof: LayerProfile, messages: float) -> None:
    for layer in PROFILED:
        v[f"{layer}.self_frac"] = prof.self_frac(layer)
        v[f"{layer}.calls"] = prof.calls[layer]
    v["mpi.get_match_calls"] = prof.hot["get_match"]
    v["machine.deliver_calls"] = prof.hot["deliver"]
    v["strategies.read_calls"] = prof.hot["reader_read"]
    if messages:
        v["mpi.calls_per_message"] = prof.hot["get_match"] / messages
        v["machine.deliver_per_message"] = prof.hot["deliver"] / messages


def _canonical_metrics(v, n, prof: LayerProfile, messages: float) -> None:
    v["canonical.calls"] = prof.total_calls
    v["canonical.get_match_calls"] = prof.hot["get_match"]
    v["canonical.deliver_per_message"] = prof.hot["deliver"] / messages
    for layer in ("sim", "mpi", "machine", "core"):
        v[f"canonical.{layer}_self_frac"] = prof.self_frac(layer)
        n[f"canonical.{layer}_self_frac"] = 1


def _p90(samples) -> float:
    return percentile(samples, 90) if len(samples) >= P90_SAMPLES else 0.0


def traced_run(wl: Workload, src_repro: str) -> tuple:
    """The ledger's values, and the sample count behind each timing."""
    ledger = Ledger()
    v = ledger.v
    cold = wl.order(wl.groups["cold"])
    direct_ms = []
    b = Boundaries()
    # 1. plain pass, with the boundary wrappers only.
    plain_s = 0.0
    resizes = lane = 0
    with b:
        for spec in cold:
            t0 = time.perf_counter()
            result = run_cell(spec)
            dt = time.perf_counter() - t0
            plain_s += dt
            direct_ms.append(1e3 * dt)
            wl.tally.check(spec, result.to_dict())
            ledger.add_result(spec, result)
            k = b.take_kernels()
            v["sim.events"] += k["total_entries"]
            lane += k["lane_entries"]
            resizes += k["resizes"]
    v["sim.calendar_resizes"] = resizes
    v["sim.lane_ratio"] = lane / v["sim.events"] if v["sim.events"] else 0.0
    v["sim.events_per_s"] = v["sim.events"] / b.t["kernel_run"]
    v["core.build_ms"] = b.mean_ms("build")
    n = {"sim.events_per_s": len(cold), "core.build_ms": b.n["build"]}
    ledger.finish()

    # 2. profiled pass over the same cells, nothing wrapped, so the call
    # counts are the program's own (the canonical cell's equal perfsuite's).
    prof = LayerProfile(src_repro)
    traced_s = 0.0
    for spec in cold:
        fn = entry_point(spec)
        t0 = time.perf_counter()
        if _is_canonical(spec):
            canon = LayerProfile(src_repro)
            result = canon.run(lambda: fn(spec))
            prof.merge(canon)
            msgs = sum(m for m, _ in result.rank_traffic.values())
            _canonical_metrics(v, n, canon, msgs)
        else:
            prof.run(lambda: fn(spec))
        traced_s += time.perf_counter() - t0
    _layer_metrics(v, prof, v["mpi.messages"])
    v["trace_overhead_frac"] = traced_s / plain_s - 1.0
    n["trace_overhead_frac"] = len(cold)
    n.update({f"{layer}.self_frac": len(cold) for layer in PROFILED})

    # 3. metering overhead, best of three each way (io-stress only).
    if wl.name == "io-stress":
        metered, plain = cells.metered_pair(cells.io_stress())
        best = {}
        for spec in (plain, metered) * 3:
            t0 = time.perf_counter()
            result = run_cell(spec)
            dt = time.perf_counter() - t0
            best[spec] = min(best.get(spec, dt), dt)
            if spec is metered:
                v["obs.samples"] = result.metrics["samples"]
        v["obs.overhead_frac"] = best[metered] / best[plain] - 1.0
        n["obs.overhead_frac"] = 3

    # 4. ordinary passes (warm, analysis, service round trip), wrapped.
    # The counters come from the first pass alone.
    passes = 1 if wl.quick else ORDINARY_PASSES
    b.reset()
    counters = defaultdict(int)
    s = Samples()
    with b:
        for i in range(passes):
            wl.one_pass(s, counters if i == 0 else None)
    for name, key in (("core.from_dict_ms", "from_dict"),
                      ("bench.store_get_ms", "store_get"),
                      ("bench.store_put_ms", "store_put")):
        v[name] = b.mean_ms(key)
        n[name] = b.n[key]
    v["bench.store_hit_ratio"] = b.store_hits / b.n["store_get"] if b.n["store_get"] else 0.0
    v["analysis.cells"] = counters["analysis_cells"]
    if s.analyze_s and counters["analysis_cells"]:
        v["analysis.load_ms_per_cell"] = (
            1e3 * statistics.median(s.analyze_s) / counters["analysis_cells"])
        n["analysis.load_ms_per_cell"] = len(s.analyze_s)
    v["service.cache_hits"] = counters["cache_hits"]
    v["path.cold_p50_ms"] = statistics.median(s.cold_ms)
    v["path.cold_p90_ms"] = _p90(s.cold_ms)
    v["path.warm_p50_ms"] = statistics.median(s.warm_ms)
    v["path.warm_p90_ms"] = _p90(s.warm_ms)
    for path, samples in (("cold", s.cold_ms), ("warm", s.warm_ms)):
        n[f"path.{path}_p50_ms"] = n[f"path.{path}_p90_ms"] = len(samples)
    if wl.server is not None:
        # Difference of medians over the same cells: the TCP round trip
        # against the direct in-process call.
        v["service.overhead_ms"] = (
            statistics.median(s.cold_ms) - statistics.median(direct_ms)
        )
        n["service.overhead_ms"] = len(s.cold_ms)
        v["service.dedupe_batch_ms"] = 1e3 * statistics.median(s.dedupe_s)
        n["service.dedupe_batch_ms"] = len(s.dedupe_s)
        v["service.dedupe_hits"] = counters["deduped"]
        v["service.retries"] = counters["retries"]
        snap = wl.scheduler.metrics.snapshot()
        v["service.respawns"] = snap.get("service_worker_respawns_total", 0)
        v["service.wire_bytes_per_result"] = (
            counters["wire_bytes"] / counters["results"] if counters["results"] else 0.0
        )
    return {name: float(v.get(name, 0.0)) for name in PER_LAYER}, n
