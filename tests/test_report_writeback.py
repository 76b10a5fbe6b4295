"""Tests for detection-report write-back (output-side I/O)."""

import dataclasses
from collections import Counter

import pytest

from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, PipelineExecutor
from repro.core.pipeline import (
    NodeAssignment,
    build_embedded_pipeline,
    combine_pulse_cfar,
)
from repro.machine.presets import paragon
from repro.stap.costs import STAPCosts
from repro.stap.scenario import Scenario


@pytest.fixture
def assignment(small_params):
    return NodeAssignment.balanced(small_params, 20)


def run(spec, params, write_reports, compute=False, scenario=None, n_cpis=4):
    ex = PipelineExecutor(
        spec, params, paragon(), FSConfig("pfs", 8),
        ExecutionConfig(
            n_cpis=n_cpis, warmup=1, write_reports=write_reports,
            compute=compute,
        ),
        scenario=scenario,
    )
    return ex, ex.run()


class TestReportWriteback:
    def test_files_created_per_sink_node(self, small_params, assignment):
        spec = build_embedded_pipeline(assignment)
        ex, _ = run(spec, small_params, write_reports=True)
        n_sinks = spec.task("cfar").n_nodes
        for local in range(n_sinks):
            assert ex.fs.exists(f"reports_cfar_{local}.dat")

    def test_file_grows_per_cpi(self, small_params, assignment):
        spec = build_embedded_pipeline(assignment)
        ex, res = run(spec, small_params, write_reports=True, n_cpis=5)
        size = ex.fs.file_size("reports_cfar_0.dat")
        assert size > 0
        assert size % 5 == 0  # five equal per-CPI blocks

    def test_disabled_by_default(self, small_params, assignment):
        spec = build_embedded_pipeline(assignment)
        ex, _ = run(spec, small_params, write_reports=False)
        assert not ex.fs.exists("reports_cfar_0.dat")

    def test_combined_pipeline_writes(self, small_params, assignment):
        spec = combine_pulse_cfar(build_embedded_pipeline(assignment))
        ex, _ = run(spec, small_params, write_reports=True)
        assert ex.fs.exists("reports_pc_cfar_0.dat")

    def test_throughput_impact_negligible(self, small_params, assignment):
        """Report volume is ~5 orders below the input stream: writing it
        back must not move the needle (the journal paper's conclusion)."""
        spec = build_embedded_pipeline(assignment)
        _, off = run(spec, small_params, write_reports=False, n_cpis=6)
        _, on = run(spec, small_params, write_reports=True, n_cpis=6)
        assert on.throughput == pytest.approx(off.throughput, rel=0.02)

    def test_compute_mode_with_writeback_keeps_numerics(self, small_params, assignment):
        scenario = Scenario.standard(small_params, seed=7)
        spec = build_embedded_pipeline(assignment)
        _, off = run(spec, small_params, False, compute=True, scenario=scenario)
        _, on = run(spec, small_params, True, compute=True, scenario=scenario)
        key = lambda ds: [(d.cpi_index, d.doppler_bin, d.beam, d.range_gate) for d in ds]
        assert key(on.detections) == key(off.detections)

    def test_threaded_mode_with_writeback(self, small_params, assignment):
        spec = build_embedded_pipeline(assignment)
        ex = PipelineExecutor(
            spec, small_params, paragon(), FSConfig("pfs", 8),
            ExecutionConfig(n_cpis=4, warmup=1, write_reports=True, threaded=True),
        )
        res = ex.run()
        assert res.throughput > 0
        assert ex.fs.file_size("reports_cfar_0.dat") > 0

    @pytest.mark.parametrize("combined", [False, True],
                             ids=["cfar", "pc_cfar"])
    def test_report_size_follows_detections(self, small_params, combined):
        # Both sinks size each CPI's report by that node's detections.
        # The combined task used to write nominal-size reports always.
        params = dataclasses.replace(small_params, pfa=0.05)
        spec = build_embedded_pipeline(NodeAssignment.balanced(params, 20))
        if combined:
            spec = combine_pulse_cfar(spec)
        ex, res = run(spec, params, True, compute=True, n_cpis=3,
                      scenario=Scenario.standard(params, seed=7))
        bins = ex.plan.bins_pc if combined else ex.plan.bins_cfar
        found = Counter((bins.owner(d.doppler_bin), d.cpi_index)
                        for d in res.detections)
        nominal = STAPCosts(params).detections_bytes()
        expected = sum(
            max(nominal, 32 * found[(node, k)])
            for node in range(bins.parts) for k in range(3)
        )
        assert sum(found.values()) > 16 * bins.parts * 3
        assert ex.fs.bytes_for_prefix("reports_") == expected
