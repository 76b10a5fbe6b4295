"""Tests for the experiment harness (small configurations)."""


from repro.bench.cases import PAPER_CASES, paper_cases, paper_filesystems
from repro.bench.experiments import (
    run_ablation_async,
    run_ablation_combination_analysis,
)
from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, PipelineExecutor
from repro.core.pipeline import NodeAssignment, build_embedded_pipeline
from repro.machine.presets import paragon

FAST = ExecutionConfig(n_cpis=4, warmup=1)


class TestCases:
    def test_paper_cases_totals(self):
        assert PAPER_CASES == (25, 50, 100)
        grid = paper_cases()
        assert len(grid) == 9
        assert {c.total_nodes for c in grid} == {25, 50, 100}

    def test_filesystem_grid(self):
        pairs = paper_filesystems()
        labels = [fs.label() for _, fs in pairs]
        assert labels == ["PFS sf=16", "PFS sf=64", "PIOFS sf=80"]
        assert pairs[2][0].name == "IBM SP"

    def test_case_labels(self):
        c = paper_cases()[0]
        assert "case 1" in c.label and "25 nodes" in c.label


class TestRunSingle:
    def test_returns_result(self, small_params):
        a = NodeAssignment.balanced(small_params, 14)
        res = PipelineExecutor(
            build_embedded_pipeline(a), small_params, paragon(),
            FSConfig("pfs", 8), FAST,
        ).run()
        assert res.throughput > 0 and res.fs_label == "PFS sf=8"


class TestAblations:
    def test_async_ablation_shows_overlap_benefit(self, small_params):
        # On identical hardware, async (PFS) must beat sync (PIOFS)
        # whenever the read is a visible, non-saturating fraction of the
        # cycle (fast SP CPUs, plenty of stripe directories).
        out = run_ablation_async(
            case_number=1, stripe_factor=16, params=small_params, cfg=FAST
        )
        assert out["pfs"].throughput >= out["piofs"].throughput

    def test_combination_analysis_both_improve(self):
        out = run_ablation_combination_analysis()
        assert out["throughput_gain"] > 1.2    # PC was starved: combining helps
        assert out["latency_gain"] > 1.2
        assert out["analysis"].latency_improves()


class TestRendering:
    def test_experiment_result_renders(self, small_params):
        from repro.bench.experiments import CellResult, ExperimentResult
        from repro.bench.cases import BenchCase

        a = NodeAssignment.balanced(small_params, 14)
        spec = build_embedded_pipeline(a)
        res = PipelineExecutor(
            spec, small_params, paragon(), FSConfig("pfs", 8), FAST
        ).run()
        cell = CellResult(
            BenchCase(1, 14, a, paragon(), FSConfig("pfs", 8)), res
        )
        exp = ExperimentResult(name="test", cells=[cell])
        text = exp.render()
        assert "throughput" in text and "doppler" in text
        charts = exp.render_charts()
        assert "#" in charts


class TestStragglerDrivers:
    def test_node_straggler_monotone(self, small_params):
        from repro.bench.experiments import run_ablation_straggler_node

        out = run_ablation_straggler_node(
            slow_factors=(1.0, 3.0), params=small_params, cfg=FAST
        )
        assert out[3.0].throughput < out[1.0].throughput
        assert out[3.0].latency > out[1.0].latency

    def test_disk_straggler_monotone(self, small_params):
        from repro.bench.experiments import run_ablation_straggler_disk

        out = run_ablation_straggler_disk(
            slow_factors=(1.0, 8.0), case_number=1, stripe_factor=8,
            params=small_params, cfg=FAST,
        )
        assert out[8.0].throughput <= out[1.0].throughput * 1.02
