"""repro — parallel pipelined STAP with simulated parallel I/O.

A production-quality reproduction of Liao, Choudhary, Weiner & Varshney,
*Design and Evaluation of I/O Strategies for Parallel Pipelined STAP
Applications* (IPPS 2000).

The package layers, bottom to top:

* :mod:`repro.sim` — deterministic discrete-event simulation kernel;
* :mod:`repro.machine` — simulated multicomputers (Paragon-like mesh,
  SP-like multistage switch) with calibrated presets;
* :mod:`repro.mpi` — MPI/NX-like message passing over the machine;
* :mod:`repro.pfs` — striped parallel file systems: async-capable PFS
  and synchronous-only PIOFS;
* :mod:`repro.stap` — the real PRI-staggered post-Doppler STAP numerics
  (Doppler filtering, adaptive weights, beamforming, pulse compression,
  CFAR) plus flop-exact cost models;
* :mod:`repro.io` — the radar's round-robin data files;
* :mod:`repro.core` — **the paper's contribution**: the parallel
  pipeline model, its two I/O strategies, the task-combination
  transform, the analytic equations (1)-(14), and the executor;
* :mod:`repro.trace` / :mod:`repro.bench` — measurement and the
  per-table/figure experiment harness;
* :mod:`repro.service` — the experiment service tier: a job/stage/task
  scheduler with persistent workers, streaming results, and a shared
  cache, serving many clients (``repro serve`` / ``repro submit``);
* :mod:`repro.analysis` — the offline analysis facade: ``load()`` any
  result artifact, ``analyze_sweep()`` a directory/cache of them into a
  bottleneck narrative, ``render()`` it as text/JSON/HTML, plus the
  live dashboard behind ``repro dash``.

Quick start — the one-call facade::

    import repro

    result = repro.run(case=1, pipeline="embedded", stripe_factor=64,
                       n_cpis=8, warmup=2)
    print(result.throughput, "CPIs/s,", result.latency, "s latency")

    # with live metrics sampled every 0.25 simulated seconds:
    result = repro.run(case=3, metrics_interval=0.25)
    print(sorted(result.metrics["gauges"]))

or the explicit layers (identical results)::

    from repro import (
        NodeAssignment, build_embedded_pipeline, PipelineExecutor,
        FSConfig, ExecutionConfig, paragon, STAPParams,
    )

    params = STAPParams()
    spec = build_embedded_pipeline(NodeAssignment.case(1, params))
    result = PipelineExecutor(
        spec, params, paragon(), FSConfig("pfs", stripe_factor=64),
        ExecutionConfig(n_cpis=8, warmup=2),
    ).run()
"""

from importlib import import_module

__version__ = "1.0.0"

#: Every name, re-exported on first use from the module that defines it
#: (a subpackage stands for itself), so ``import repro`` loads neither
#: the simulator nor numpy: the executors load the simulator, the STAP
#: numerics load numpy.
_LAZY = {
    name: module
    for module, names in (
        ("repro.analysis", ("analysis", "analyze_sweep", "load", "render")),
        ("repro.api", ("run",)),
        ("repro.bench.engine", ("ExperimentSpec", "SweepRunner", "run_spec")),
        ("repro.bench.store", ("ResultStore",)),
        ("repro.core.arrivals", ("ArrivalSpec",)),
        ("repro.core.context", ("ExecutionConfig",)),
        ("repro.core.executor", ("FSConfig", "PipelineExecutor", "PipelineResult")),
        ("repro.core.model", ("CombinationAnalysis", "IOModel", "PipelineModel")),
        ("repro.core.pipeline", ("NodeAssignment", "PipelineSpec",
                                 "build_embedded_pipeline",
                                 "build_separate_io_pipeline",
                                 "combine_pulse_cfar")),
        ("repro.machine.presets", ("MachinePreset", "generic_cluster", "ibm_sp",
                                   "paragon")),
        ("repro.obs", ("MetricsRegistry",)),
        ("repro.scenario", ("ScenarioResult", "ScenarioSpec", "TenantSpec",
                            "run_scenario")),
        ("repro.service", ("ExperimentScheduler", "JobHandle")),
        ("repro.stap", ("stap", "STAPParams", "Scenario", "Target", "Jammer",
                        "make_cube", "stap_chain", "run_cpi_stream")),
    )
    for name in names
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = import_module(module)
    if module != f"{__name__}.{name}":
        found = getattr(found, name)
    globals()[name] = found
    return found


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "__version__",
    "run",
    "analysis",
    "load",
    "analyze_sweep",
    "render",
    "MetricsRegistry",
    "ExecutionConfig",
    "ExperimentSpec",
    "SweepRunner",
    "ExperimentScheduler",
    "JobHandle",
    "ResultStore",
    "run_spec",
    "FSConfig",
    "PipelineExecutor",
    "PipelineResult",
    "ArrivalSpec",
    "ScenarioSpec",
    "TenantSpec",
    "ScenarioResult",
    "run_scenario",
    "PipelineModel",
    "IOModel",
    "CombinationAnalysis",
    "NodeAssignment",
    "PipelineSpec",
    "build_embedded_pipeline",
    "build_separate_io_pipeline",
    "combine_pulse_cfar",
    "MachinePreset",
    "paragon",
    "ibm_sp",
    "generic_cluster",
    "STAPParams",
    "Scenario",
    "Target",
    "Jammer",
    "make_cube",
    "stap_chain",
    "run_cpi_stream",
]
