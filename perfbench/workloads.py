"""The three workloads and the pass each run repeats.

Every workload is closed-loop — the one client waits for each result
before it asks for the next — and every pass has the same three
phases a sweep user goes through:

1. **cold**: simulate each cell, and
2. **warm**: right after it, ask for it again and get it from the
   ``ResultStore`` it was written to;
3. **analyze**: ``analyze_sweep`` over what was stored.

``paper-grid`` and ``io-stress`` run in-process; ``service-roundtrip``
goes over TCP to an ``ExperimentServer`` backed by a 2-worker pool.
Every result is hashed and checked against ``pins.json``.  Every timed
sample starts from a collected heap and no result outlives its check,
so the cyclic collector's pauses inside a sample depend on that sample
alone, not on the cell order or on what earlier phases left.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import cells

#: Warm read-backs of each cell, right after its cold run.  Interleaving
#: them with the cold cells spreads the warm samples over the whole run,
#: as the cold ones are, so a passing slow spell of the host weighs on
#: both alike instead of on a few seconds of warm samples.
WARM_REPEATS = 2


@dataclass
class Tally:
    """Correctness accounting: every checked output counts as attempted."""

    pins: dict
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)

    def check(self, spec, result_dict: dict) -> None:
        self.attempted += 1
        want = self.pins["cells"].get(spec.spec_hash())
        got = cells.result_hash(result_dict)
        if got != want:
            self._fail(f"{spec.label()}: result hash {got[:12]} != pinned "
                       f"{(want or 'none')[:12]}")

    def exception(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self._fail(f"{what}: {type(exc).__name__}: {exc}")

    def check_counts(self, key: str, counts: dict) -> None:
        self.attempted += 1
        want = self.pins["analysis"].get(key)
        if counts != want:
            self._fail(f"analyze counts {counts} != pinned {want}")


@dataclass
class Samples:
    """Raw timings of one run, across passes."""

    cold_ms: List[float] = field(default_factory=list)
    warm_ms: List[float] = field(default_factory=list)
    analyze_s: List[float] = field(default_factory=list)
    dedupe_s: List[float] = field(default_factory=list)
    passes: int = 0


def entry_point(spec):
    """The direct public entry point for a cell: run_spec or run_scenario."""
    from repro.bench.engine import run_spec
    from repro.scenario import ScenarioSpec, run_scenario

    return run_scenario if isinstance(spec, ScenarioSpec) else run_spec


def run_cell(spec):
    """Simulate one cell through its direct public entry point."""
    return entry_point(spec)(spec)


def analysis_key(workload: str, quick: bool) -> str:
    return f"{workload}:quick" if quick else workload


class Workload:
    """One workload's cells, store and (for the service) server."""

    def __init__(self, name: str, work_dir: str, tally: Tally,
                 seed: int, quick: bool = False) -> None:
        from repro.bench.store import ResultStore

        self.name = name
        self.tally = tally
        self.quick = quick
        self.rng = random.Random(seed * 7919 + cells.WORKLOADS.index(name))
        self.groups = cells.workload_cells(name, quick)
        self.store = ResultStore(os.path.join(work_dir, "store"))
        self.scheduler = self.server = None

    def open(self) -> "Workload":
        if self.name == "service-roundtrip":
            from repro.service.scheduler import ExperimentScheduler
            from repro.service.server import ExperimentServer

            self.scheduler = ExperimentScheduler(workers=2, store=self.store)
            self.server = ExperimentServer(self.scheduler).start()
        return self

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        if self.scheduler is not None:
            self.scheduler.shutdown()

    def order(self, specs: list) -> list:
        return self.rng.sample(specs, len(specs))

    # -- one pass ----------------------------------------------------------
    def one_pass(self, s: Samples, counters: Optional[dict] = None) -> None:
        self.store.clear()
        if self.server is None:
            self._in_process_pass(s, counters)
        else:
            self._service_pass(s, counters)
        from repro.analysis import analyze_sweep

        sources = [self.store]
        if self.server is not None:
            sources.insert(0, cells.ARTIFACTS_DIR)
        gc.collect()
        t0 = time.perf_counter()
        try:
            counts = analyze_sweep(sources)["counts"]
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            self.tally.exception("analyze", exc)
        else:
            s.analyze_s.append(time.perf_counter() - t0)
            self.tally.check_counts(analysis_key(self.name, self.quick), counts)
            if counters is not None:
                counters["analysis_cells"] = counts["cells"]
        s.passes += 1

    def _in_process_pass(self, s: Samples, counters: Optional[dict]) -> None:
        from repro.bench.engine import SweepRunner

        # paper-grid goes through SweepRunner(jobs=1, store=None), as
        # `repro reproduce --no-cache` does; io-stress calls run_spec /
        # run_scenario directly.
        runner = SweepRunner(jobs=1, store=None) if self.name == "paper-grid" else None
        try:
            for spec in self.order(self.groups["cold"]):
                gc.collect()
                t0 = time.perf_counter()
                try:
                    result = runner.run_one(spec) if runner else run_cell(spec)
                except Exception as exc:  # noqa: BLE001
                    self.tally.exception(spec.label(), exc)
                    continue
                s.cold_ms.append(1e3 * (time.perf_counter() - t0))
                d = result.to_dict()
                self.tally.check(spec, d)
                self.store.put_dict(spec, d)
                del result, d
                self._warm_in_process(spec, s, counters)
        finally:
            if runner is not None:
                runner.close()

    def _warm_in_process(self, spec, s: Samples, counters: Optional[dict]) -> None:
        """Read the cell just stored back through a store-backed runner.

        A fresh runner each time: a runner's scheduler keeps its recent
        jobs' payloads, and a heap that grew hit by hit would make later
        hits slower than earlier ones.
        """
        from repro.bench.engine import SweepRunner

        with SweepRunner(jobs=1, store=self.store) as warm:
            for _ in range(WARM_REPEATS):
                gc.collect()
                t0 = time.perf_counter()
                try:
                    result = warm.run_one(spec)
                except Exception as exc:  # noqa: BLE001
                    self.tally.exception(spec.label(), exc)
                    continue
                s.warm_ms.append(1e3 * (time.perf_counter() - t0))
                self.tally.check(spec, result.to_dict())
            if counters is not None:
                counters["cache_hits"] += warm.cache_hits

    # -- service -------------------------------------------------------------
    def _submit(self, spec_dicts: list, client: str) -> tuple:
        """One connection: submit and follow.  Returns the result events,
        the latency to the first rehydrated result in s, and the
        connection's counters (``done`` counters, wire bytes)."""
        from repro.core.executor import PipelineResult
        from repro.service.server import submit_batch

        t0 = time.perf_counter()
        first = None
        results = []
        tallies = defaultdict(int)
        for event in submit_batch(self.server.host, self.server.port,
                                  spec_dicts, client=client, follow=True):
            kind = event.get("event")
            if kind == "result":
                PipelineResult.from_dict(event["payload"])
                if first is None:
                    first = time.perf_counter() - t0
                results.append(event)
                tallies["wire_bytes"] += len(json.dumps(event)) + 1
                tallies["results"] += 1
            elif kind == "done":
                for key in ("cache_hits", "deduped", "retries"):
                    tallies[key] += event["counters"].get(key, 0)
            elif kind != "accepted":
                raise RuntimeError(f"job ended with {kind}: {event.get('error')}")
        return results, first, tallies

    @staticmethod
    def _count(counters: Optional[dict], tallies: dict) -> None:
        if counters is not None:
            for key, n in tallies.items():
                counters[key] += n

    def _round_trip(self, spec, latencies: List[float], client: str,
                    counters: Optional[dict]) -> None:
        """Submit one cell on its own connection and check its result."""
        gc.collect()
        try:
            results, first, tallies = self._submit([spec.to_dict()], client)
        except Exception as exc:  # noqa: BLE001
            self.tally.exception(spec.label(), exc)
            return
        latencies.append(1e3 * first)
        self._count(counters, tallies)
        for event in results:
            self.tally.check(spec, event["payload"])

    def _service_pass(self, s: Samples, counters: Optional[dict]) -> None:
        for spec in self.order(self.groups["cold"]):
            self._round_trip(spec, s.cold_ms, "bench-cold", counters)
            for _ in range(WARM_REPEATS):
                self._round_trip(spec, s.warm_ms, "bench-warm", counters)

        # Duplicate batch: every cell twice, one copy per connection, both
        # in flight at once, so the second copies dedupe onto the first.
        dedupe = self.groups["dedupe"]
        batches = [self.order(dedupe), self.order(dedupe)]
        outcome: Dict[int, object] = {}

        def follow(i: int) -> None:
            try:
                outcome[i] = self._submit([d.to_dict() for d in batches[i]],
                                          f"bench-dup{i}")
            except Exception as exc:  # noqa: BLE001 - checked below
                outcome[i] = exc

        gc.collect()
        t0 = time.perf_counter()
        helper = threading.Thread(target=follow, args=(1,))
        helper.start()
        follow(0)
        helper.join()
        s.dedupe_s.append(time.perf_counter() - t0)
        for i, batch in enumerate(batches):
            got = outcome[i]
            if isinstance(got, BaseException):
                self.tally.exception("duplicate batch", got)
                continue
            results, _first, tallies = got
            self._count(counters, tallies)
            for event in results:
                self.tally.check(batch[event["index"]], event["payload"])


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of ``values``."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
