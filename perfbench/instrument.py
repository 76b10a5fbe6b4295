"""Layer boundaries for the traced run: wrappers and profile attribution.

Two cheap mechanisms, both installed from the benchmark's own files:

* :class:`Boundaries` wraps a handful of public methods for the length
  of a ``with`` block — ``Kernel.run`` (calendar-queue counters),
  ``build_executor`` and ``Substrate.build`` (executor build time),
  ``ResultStore.get_dict``/``put_dict`` (store time and hit ratio) and
  ``PipelineResult.from_dict`` (rehydration time) — and restores them
  on exit.  Calls arrive from the scheduler's dispatcher and the
  server's connection threads too, so tallies take a lock.
* :class:`LayerProfile` attributes deterministic cProfile self-time and
  call counts to the packages under ``src/repro/``.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import threading
import time
from collections import defaultdict
from typing import Dict

class Boundaries:
    """Time and count calls at the layer boundaries the benchmark wraps."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.t = defaultdict(float)   # seconds per boundary
        self.n = defaultdict(int)     # calls per boundary
        self.store_hits = 0
        self.kernels: Dict[int, dict] = {}
        self._saved = []

    # -- bookkeeping -------------------------------------------------------
    def _add(self, key: str, dt: float) -> None:
        with self._lock:
            self.t[key] += dt
            self.n[key] += 1

    def mean_ms(self, key: str) -> float:
        return 1e3 * self.t[key] / self.n[key] if self.n[key] else 0.0

    def take_kernels(self) -> Dict[str, float]:
        """Sum and clear the queue stats of the kernels run since the
        last call (one cell's worth)."""
        with self._lock:
            stats, self.kernels = list(self.kernels.values()), {}
        return {
            key: sum(s[key] for s in stats)
            for key in ("total_entries", "lane_entries", "resizes")
        }

    def reset(self) -> None:
        with self._lock:
            self.t.clear()
            self.n.clear()
            self.store_hits = 0
            self.kernels = {}

    # -- install / restore -------------------------------------------------
    def _patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Boundaries":
        from repro.bench import engine
        from repro.bench.store import ResultStore
        from repro.core.executor import PipelineResult, Substrate
        from repro.sim.kernel import Kernel

        b = self
        local = self._local

        def outermost(key, fn):
            # Only the outermost of nested boundaries of one kind counts
            # (run_spec's build_executor builds a Substrate inside it).
            def wrapper(*args, **kwargs):
                if getattr(local, key, False):
                    return fn(*args, **kwargs)
                setattr(local, key, True)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    b._add(key, time.perf_counter() - t0)
                    setattr(local, key, False)
            return wrapper

        kernel_run = Kernel.run

        def run(kernel, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return kernel_run(kernel, *args, **kwargs)
            finally:
                b._add("kernel_run", time.perf_counter() - t0)
                stats = kernel.queue_stats()
                with b._lock:
                    b.kernels[id(kernel)] = stats

        get_dict = ResultStore.get_dict

        def timed_get(store, spec):
            if getattr(local, "in_put", False):
                return get_dict(store, spec)   # put's own existence probe
            t0 = time.perf_counter()
            out = get_dict(store, spec)
            b._add("store_get", time.perf_counter() - t0)
            if out is not None:
                with b._lock:
                    b.store_hits += 1
            return out

        put_dict = ResultStore.put_dict

        def timed_put(store, spec, result):
            local.in_put = True
            t0 = time.perf_counter()
            try:
                return put_dict(store, spec, result)
            finally:
                b._add("store_put", time.perf_counter() - t0)
                local.in_put = False

        from_dict = PipelineResult.__dict__["from_dict"].__func__

        def timed_from_dict(d):
            t0 = time.perf_counter()
            try:
                return from_dict(d)
            finally:
                b._add("from_dict", time.perf_counter() - t0)

        build = Substrate.__dict__["build"].__func__
        self._patch(Kernel, "run", run)
        self._patch(engine, "build_executor",
                    outermost("build", engine.build_executor))
        self._patch(Substrate, "build", classmethod(outermost("build", build)))
        self._patch(ResultStore, "get_dict", timed_get)
        self._patch(ResultStore, "put_dict", timed_put)
        self._patch(PipelineResult, "from_dict", staticmethod(timed_from_dict))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _layer_of(filename: str, src_repro: str) -> str:
    """The package under src/repro/ that defines ``filename``:
    "repro-other" for top-level modules, "python" outside src/repro/
    (stdlib, numpy, builtins)."""
    if not filename.startswith(src_repro):
        return "python"
    pkg = filename[len(src_repro):].split(os.sep, 1)
    return pkg[0] if len(pkg) == 2 else "repro-other"


class LayerProfile:
    """cProfile self-time and call counts, summed per layer over cells.

    Exact counts (calls per layer, and the named hot functions) are
    deterministic for a given source tree; self-time shares are not,
    but their ratios repeat to a few percent.
    """

    #: (layer, function name) -> tally key of the functions whose call
    #: counts ROADMAP item 1 targets.
    HOT = {
        ("mpi", "get_match"): "get_match",
        ("machine", "deliver"): "deliver",
        ("strategies", "read"): "reader_read",
    }

    def __init__(self, src_repro: str) -> None:
        self.src_repro = os.path.join(src_repro, "")
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.hot = defaultdict(int)
        self.total_s = 0.0
        self.total_calls = 0

    def run(self, fn):
        """Call ``fn()`` under a fresh profiler and add its tallies.

        The cyclic collector is off while profiling, as in perfsuite:
        finalizers it would trigger depend on what ran before, and
        would make the call counts depend on the cell order.
        """
        gc.collect()
        gc.disable()
        prof = cProfile.Profile()
        prof.enable()
        try:
            return fn()
        finally:
            prof.disable()
            gc.enable()
            self.add(prof)

    def merge(self, other: "LayerProfile") -> None:
        for layer, t in other.self_s.items():
            self.self_s[layer] += t
        for layer, n in other.calls.items():
            self.calls[layer] += n
        for key, n in other.hot.items():
            self.hot[key] += n
        self.total_s += other.total_s
        self.total_calls += other.total_calls

    def add(self, prof: cProfile.Profile) -> None:
        for (filename, _line, func), (_cc, nc, tt, _ct, _callers) in (
            pstats.Stats(prof).stats.items()
        ):
            layer = _layer_of(filename, self.src_repro)
            self.self_s[layer] += tt
            self.calls[layer] += nc
            self.total_s += tt
            self.total_calls += nc
            key = self.HOT.get((layer, func))
            if key is not None:
                self.hot[key] += nc

    def self_frac(self, layer: str) -> float:
        return self.self_s[layer] / self.total_s if self.total_s else 0.0
