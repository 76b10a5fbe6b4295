"""Integration tests asserting the paper's headline findings.

These run the actual evaluation configurations (full-size cubes, the
reconstructed 25/50/100-node cases) in timing mode — a few seconds of
wall time per case.  The full 3 x 3 grids live in ``benchmarks/``; here
we spot-check each finding on the cells that demonstrate it.
"""

import pytest

from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, PipelineExecutor
from repro.core.pipeline import (
    NodeAssignment,
    build_embedded_pipeline,
    build_separate_io_pipeline,
    combine_pulse_cfar,
)
from repro.machine.presets import ibm_sp, paragon
from repro.stap.params import STAPParams

CFG = ExecutionConfig(n_cpis=8, warmup=2)
PARAMS = STAPParams()


def run_case(case, builder=build_embedded_pipeline, preset=None, fs=None, cfg=CFG):
    spec = builder(NodeAssignment.case(case, PARAMS))
    return PipelineExecutor(
        spec, PARAMS, preset or paragon(), fs or FSConfig("pfs", 64), cfg
    ).run()


@pytest.fixture(scope="module")
def results():
    """Shared grid of the runs the assertions need (computed once)."""
    out = {}
    out["sf16_c1"] = run_case(1, fs=FSConfig("pfs", 16))
    out["sf16_c3"] = run_case(3, fs=FSConfig("pfs", 16))
    out["sf64_c1"] = run_case(1, fs=FSConfig("pfs", 64))
    out["sf64_c3"] = run_case(3, fs=FSConfig("pfs", 64))
    out["sep_sf64_c1"] = run_case(
        1, builder=build_separate_io_pipeline, fs=FSConfig("pfs", 64)
    )
    out["comb_sf64_c1"] = run_case(
        1,
        builder=lambda a: combine_pulse_cfar(build_embedded_pipeline(a)),
        fs=FSConfig("pfs", 64),
    )
    out["comb_sf64_c3"] = run_case(
        3,
        builder=lambda a: combine_pulse_cfar(build_embedded_pipeline(a)),
        fs=FSConfig("pfs", 64),
    )
    out["sp_c1"] = run_case(1, preset=ibm_sp(), fs=FSConfig("piofs", 80))
    out["sp_c3"] = run_case(3, preset=ibm_sp(), fs=FSConfig("piofs", 80))
    return out


class TestFinding1_StripeFactorBottleneck:
    """§5.1: small stripe factor -> I/O bottleneck at 100 nodes."""

    def test_sf16_throughput_degrades_at_case3(self, results):
        assert results["sf16_c3"].throughput < 0.75 * results["sf64_c3"].throughput

    def test_sf16_and_sf64_equal_at_case1(self, results):
        r16, r64 = results["sf16_c1"], results["sf64_c1"]
        assert r16.throughput == pytest.approx(r64.throughput, rel=0.05)

    def test_read_phase_dominates_doppler_in_bottleneck(self, results):
        d = results["sf16_c3"].measurement.task_stats["doppler"]
        # Paper: "the receive phase in the first task [is] relatively
        # higher than the other two phases".
        assert d.recv > 0.8 * (d.compute + d.send)

    def test_read_phase_hidden_with_sf64(self, results):
        d = results["sf64_c3"].measurement.task_stats["doppler"]
        assert d.recv < 0.1 * d.compute

    def test_sf64_scales_nearly_linearly(self, results):
        speedup = results["sf64_c3"].throughput / results["sf64_c1"].throughput
        assert speedup > 3.0  # 4x nodes

    def test_latency_only_mildly_affected_by_bottleneck(self, results):
        """§5.1: latency does not degrade like throughput does."""
        lat16 = results["sf16_c3"].latency
        lat64 = results["sf64_c3"].latency
        # Throughput halved (see above); latency grows far less than 2x.
        assert lat16 < 1.7 * lat64
        # ... and still improves over case 1 despite the bottleneck.
        assert lat16 < results["sf16_c1"].latency


class TestFinding2_SeparateIOTask:
    """§5.2: separate I/O task — same throughput, worse latency."""

    def test_throughput_approximately_same(self, results):
        r7, r8 = results["sf64_c1"], results["sep_sf64_c1"]
        assert r8.throughput == pytest.approx(r7.throughput, rel=0.05)

    def test_latency_worse_with_extra_task(self, results):
        assert results["sep_sf64_c1"].latency > 1.1 * results["sf64_c1"].latency


class TestFinding3_SynchronousIO:
    """§5.1/§3: PIOFS' missing async reads hurt SP scalability."""

    def test_sp_scales_sublinearly(self, results):
        sp_speedup = results["sp_c3"].throughput / results["sp_c1"].throughput
        paragon_speedup = (
            results["sf64_c3"].throughput / results["sf64_c1"].throughput
        )
        assert sp_speedup < 0.8 * paragon_speedup

    def test_sp_faster_cpu_shows_in_absolute_numbers(self, results):
        assert results["sp_c1"].throughput > results["sf64_c1"].throughput

    def test_sp_read_not_overlapped(self, results):
        d = results["sp_c3"].measurement.task_stats["doppler"]
        assert d.recv > 0.5 * d.compute  # sync read sits in the cycle


class TestFinding4_TaskCombination:
    """§6: combining PC+CFAR improves latency, not throughput."""

    def test_latency_improves(self, results):
        assert results["comb_sf64_c1"].latency < results["sf64_c1"].latency

    def test_throughput_unchanged(self, results):
        r7, r6 = results["sf64_c1"], results["comb_sf64_c1"]
        assert r6.throughput == pytest.approx(r7.throughput, rel=0.03)

    def test_improvement_decreases_with_nodes(self, results):
        imp1 = 1 - results["comb_sf64_c1"].latency / results["sf64_c1"].latency
        imp3 = 1 - results["comb_sf64_c3"].latency / results["sf64_c3"].latency
        assert imp1 > imp3 > 0


class TestEquationCrossChecks:
    """Measured behaviour vs the paper's analytic forms."""

    def test_throughput_equals_inverse_bottleneck(self, results):
        for key in ("sf64_c1", "sf16_c3", "sp_c1"):
            m = results[key].measurement
            assert m.throughput == pytest.approx(m.model_throughput, rel=0.25)

    def test_latency_close_to_path_sum(self, results):
        """In a balanced (non-bottlenecked) pipeline, measured journey
        time approaches the Eq. 2 sum of path service times."""
        m = results["sf64_c1"].measurement
        assert m.latency == pytest.approx(m.model_latency, rel=0.35)
