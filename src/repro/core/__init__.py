"""The parallel pipeline STAP model — the paper's primary contribution.

Subpackage map:

* :mod:`~repro.core.partition` — block-partition arithmetic used to split
  every task's workload over its nodes and to plan redistributions
  between differently partitioned tasks;
* :mod:`~repro.core.task` / :mod:`~repro.core.graph` — task specs and the
  SD/TD dependency graph (paper Figure 2), with the latency-path rule
  (temporal-dependency tasks are off the path);
* :mod:`~repro.core.pipeline` — pipeline builders: 7-task embedded-I/O
  (Figure 3), 8-task separate-I/O (Figure 4), and the task-combination
  transform of §6 (pulse compression + CFAR merged);
* :mod:`~repro.core.model` — the analytic equations (1)–(14):
  throughput/latency predictions and the combination analysis;
* :mod:`~repro.core.executor` — runs a pipeline on the simulated machine
  (compute mode: real numerics; timing mode: cost-model phantoms) and
  measures throughput, latency, and per-task phase times;
* :mod:`~repro.core.metrics` — steady-state measurement from traces.
"""

from importlib import import_module

#: Every name, loaded from its module on first use, so that importing one
#: light module (``repro.core.serialize``, say) loads no other; the task
#: runners and the executor's run path load the simulation kernel.
_LAZY = {
    name: module
    for module, names in (
        ("partition", ("BlockPartition", "label_block_rows")),
        ("task", ("TaskKind", "TaskSpec", "TaskInstance")),
        ("graph", ("DependencyKind", "Edge", "TaskGraph")),
        ("pipeline", ("NodeAssignment", "PipelineSpec", "build_embedded_pipeline",
                      "build_separate_io_pipeline", "combine_pulse_cfar")),
        ("arrivals", ("ArrivalSpec",)),
        ("model", ("CombinationAnalysis", "IOModel", "PipelineModel")),
        ("context", ("ExecutionConfig",)),
        ("executor", ("PipelineExecutor", "PipelineResult", "Substrate",
                      "validate_fs_hints")),
        ("metrics", ("PipelineMeasurement", "TaskPhaseStats", "measure")),
        ("plan", ("PipelinePlan",)),
        ("scaling", ("ScalingStudy", "run_scaling_study")),
        ("stages", ("BoundedQueue", "TaskStages", "run_sequential", "run_threaded")),
        ("validate", ("validate_plan",)),
    )
    for name in names
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BlockPartition",
    "label_block_rows",
    "TaskKind",
    "TaskSpec",
    "TaskInstance",
    "DependencyKind",
    "Edge",
    "TaskGraph",
    "NodeAssignment",
    "PipelineSpec",
    "build_embedded_pipeline",
    "build_separate_io_pipeline",
    "combine_pulse_cfar",
    "PipelineModel",
    "IOModel",
    "CombinationAnalysis",
    "ExecutionConfig",
    "PipelineExecutor",
    "PipelineResult",
    "ArrivalSpec",
    "Substrate",
    "validate_fs_hints",
    "PipelinePlan",
    "TaskPhaseStats",
    "PipelineMeasurement",
    "measure",
    "TaskStages",
    "BoundedQueue",
    "run_sequential",
    "run_threaded",
    "ScalingStudy",
    "run_scaling_study",
    "validate_plan",
]
