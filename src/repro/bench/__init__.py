"""Experiment harness: one driver per paper table/figure.

Each ``run_*`` function sweeps the paper's configurations, returns a
structured result, and can render itself in the paper's table/figure
format.  The pytest-benchmark files under ``benchmarks/`` are thin
wrappers over these drivers, so every artifact can also be regenerated
from a plain Python session::

    from repro.bench import run_table1
    print(run_table1().render())
"""

from repro.bench.artifacts import (
    DiscoveredArtifacts,
    ParsedTextArtifact,
    discover_artifacts,
    parse_text_artifact,
)
from repro.bench.cases import PAPER_CASES, BenchCase, paper_cases, paper_filesystems
from repro.bench.engine import (
    PIPELINES,
    DiskFault,
    ExperimentSpec,
    NodeFault,
    SweepRunner,
    WriterLoad,
    run_spec,
    spec_from_dict,
)
from repro.bench.experiments import (
    CellResult,
    ExperimentResult,
    InterferenceAblation,
    grid,
    run_ablation_async,
    run_ablation_bottleneck_migration,
    run_ablation_combination_analysis,
    run_ablation_interference,
    run_ablation_straggler_disk,
    run_ablation_straggler_node,
    run_ablation_stripe_sweep,
    run_ablation_writer_interference,
    run_fig8,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    sweep,
)
from repro.bench.store import ResultStore

__all__ = [
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
