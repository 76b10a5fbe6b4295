"""Experiment harness: one driver per paper table/figure.

Each ``run_*`` function sweeps the paper's configurations, returns a
structured result, and can render itself in the paper's table/figure
format.  The pytest-benchmark files under ``benchmarks/`` are thin
wrappers over these drivers, so every artifact can also be regenerated
from a plain Python session::

    from repro.bench import run_table1
    print(run_table1().render())
"""

from importlib import import_module
from pathlib import Path

#: Default result cache location, relative to the working directory.  It
#: lives here, not in the store, so the CLI reads it without loading one.
DEFAULT_CACHE_DIR = Path(".cache") / "experiments"

#: Every name, loaded from its module on first use, so that importing the
#: engine or the store loads none of the table, figure and ablation
#: functions.
_LAZY = {
    name: module
    for module, names in (
        ("artifacts", ("DiscoveredArtifacts", "ParsedTextArtifact",
                       "discover_artifacts", "parse_text_artifact")),
        ("cases", ("PAPER_CASES", "BenchCase", "paper_cases", "paper_filesystems")),
        ("engine", ("PIPELINES", "DiskFault", "ExperimentSpec", "NodeFault",
                    "SweepRunner", "WriterLoad", "run_spec", "spec_from_dict")),
        ("experiments", ("CellResult", "ExperimentResult", "InterferenceAblation",
                         "grid", "run_ablation_async",
                         "run_ablation_bottleneck_migration",
                         "run_ablation_combination_analysis",
                         "run_ablation_interference",
                         "run_ablation_straggler_disk",
                         "run_ablation_straggler_node",
                         "run_ablation_stripe_sweep",
                         "run_ablation_writer_interference", "run_fig8",
                         "run_table1", "run_table2", "run_table3", "run_table4",
                         "sweep")),
        ("store", ("ResultStore",)),
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
    "DEFAULT_CACHE_DIR",
    "DiscoveredArtifacts",
    "ParsedTextArtifact",
    "discover_artifacts",
    "parse_text_artifact",
    "BenchCase",
    "PAPER_CASES",
    "paper_cases",
    "paper_filesystems",
    "ExperimentSpec",
    "SweepRunner",
    "ResultStore",
    "run_spec",
    "spec_from_dict",
    "DiskFault",
    "NodeFault",
    "WriterLoad",
    "CellResult",
    "ExperimentResult",
    "grid",
    "sweep",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_fig8",
    "PIPELINES",
    "run_ablation_stripe_sweep",
    "run_ablation_bottleneck_migration",
    "run_ablation_straggler_disk",
    "run_ablation_straggler_node",
    "run_ablation_async",
    "run_ablation_combination_analysis",
    "run_ablation_writer_interference",
    "run_ablation_interference",
    "InterferenceAblation",
]
