"""Property-based fuzzing of whole pipeline runs.

Hypothesis generates random (but legal) STAP dimensions and node
assignments; every generated configuration must plan coherently, run to
completion in timing mode, trace every CPI for every task, and satisfy
the structural invariants (positive metrics, Eq. 1/2 relationships,
detections empty in timing mode).  This is the harness most likely to
find partition/routing corner cases the hand-written tests missed.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.context import ExecutionConfig, TaskContext
from repro.core.executor import FSConfig, PipelineExecutor
from repro.core.pipeline import (
    NodeAssignment,
    build_embedded_pipeline,
    build_separate_io_pipeline,
    combine_pulse_cfar,
)
from repro.core.plan import PipelinePlan
from repro.core.validate import validate_plan
from repro.machine.presets import generic_cluster
from repro.stap.params import STAPParams


@st.composite
def stap_params(draw):
    n_channels = draw(st.sampled_from([2, 4, 8]))
    n_pulses = draw(st.sampled_from([8, 16, 32]))
    n_hard = draw(st.integers(1, n_pulses - 1))
    n_ranges = draw(st.sampled_from([64, 96, 128]))
    n_training = draw(st.integers(2 * n_channels, min(n_ranges, 4 * n_channels + 8)))
    return STAPParams(
        n_channels=n_channels,
        n_pulses=n_pulses,
        n_ranges=n_ranges,
        n_beams=draw(st.integers(1, 4)),
        n_hard_bins=n_hard,
        n_training=n_training,
        pulse_len=draw(st.integers(1, 8)),
        cfar_window=4,
        cfar_guard=1,
    )


@st.composite
def assignments(draw):
    return NodeAssignment(
        doppler=draw(st.integers(1, 6)),
        easy_weight=draw(st.integers(1, 3)),
        hard_weight=draw(st.integers(1, 3)),
        easy_bf=draw(st.integers(1, 4)),
        hard_bf=draw(st.integers(1, 4)),
        pulse_compr=draw(st.integers(1, 4)),
        cfar=draw(st.integers(1, 3)),
        io_nodes=draw(st.integers(1, 4)),
    )


BUILDERS = (
    build_embedded_pipeline,
    build_separate_io_pipeline,
    lambda a: combine_pulse_cfar(build_embedded_pipeline(a)),
)


class TestPlanFuzz:
    @given(stap_params(), assignments(), st.integers(0, 2))
    @settings(max_examples=120, deadline=None)
    def test_every_legal_config_plans_coherently(self, params, assignment, b):
        spec = BUILDERS[b](assignment)
        plan = PipelinePlan(spec, params)
        validate_plan(plan)
        # No message leaves or enters an empty partition.
        for route in plan.routes:
            src, dst = plan.partition(route.src), plan.partition(route.dst)
            for m in route.messages:
                assert src.size(m.src) > 0 and dst.size(m.dst) > 0
        cfg = ExecutionConfig()
        for task, inst in plan.instances.items():
            for local in range(inst.n_nodes):
                # Its in-messages are exactly those addressed to it, edge
                # by edge, in ascending producer order.
                links = plan.in_messages(task, local)
                assert [(link.peer, link.message) for link in links] == [
                    (route.src, m)
                    for route in plan.routes
                    if route.dst == task
                    for m in route.messages
                    if m.dst == local
                ]
                for route in plan.routes:
                    srcs = [link.message.src for link in links if link.peer == route.src]
                    assert srcs == sorted(srcs)
                assert all(
                    link.rank == plan.ranks(link.peer)[link.message.src]
                    for link in links
                )
                # Its credit set is the unique ranks of its out-messages.
                ctx = TaskContext(None, None, inst, local, plan, cfg, None, None, None, {})
                assert ctx.consumers == tuple(
                    sorted({link.rank for link in plan.out_messages(task, local)})
                )


class TestRunFuzz:
    @given(stap_params(), assignments(), st.integers(0, 2))
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_every_legal_config_runs(self, params, assignment, b):
        spec = BUILDERS[b](assignment)
        cfg = ExecutionConfig(n_cpis=3, warmup=1)
        res = PipelineExecutor(
            spec, params, generic_cluster(), FSConfig("pfs", 2), cfg
        ).run()
        assert res.throughput > 0 and res.latency > 0
        # Every task traced every CPI.
        for t in spec.task_names():
            assert res.trace.cpis(t) == [0, 1, 2]
        # Timing mode produces no detections.
        assert res.detections == []
        # Eq. 2: journey latency is at least the sum of the critical
        # path's compute phases.
        m = res.measurement
        stages = spec.graph.latency_path_tasks()
        path_compute = sum(
            max(m.task_stats[n].compute for n in stage) for stage in stages
        )
        assert res.latency >= path_compute * 0.999


class TestComputeModeFuzz:
    """The strongest invariant in the repo, fuzzed: for random legal
    dimensions and assignments, the distributed pipeline's detections
    equal the serial chain's exactly."""

    @given(
        stap_params(),
        assignments(),
        st.integers(0, 2),
        st.integers(0, 10_000),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_detections_equal_serial_chain(self, params, assignment, b, seed):
        from repro.stap.chain import run_cpi_stream
        from repro.stap.scenario import Scenario, Target, make_cube

        # A detectable target placed safely inside the range extent, in
        # a pseudo-random bin derived from the seed.
        bin_choice = params.easy_bins[seed % params.n_easy_bins]
        doppler = ((bin_choice / params.n_pulses) + 0.5) % 1.0 - 0.5
        scenario = Scenario(
            targets=(
                Target(
                    range_gate=params.n_ranges // 2,
                    doppler=doppler,
                    angle=0.2,
                    snr_db=0.0,
                ),
            ),
            jammers=(),
            cnr_db=15.0,
            seed=seed,
        )
        n_cpis = 3
        cubes = [make_cube(params, scenario, k) for k in range(n_cpis)]
        serial = sorted(
            d for r in run_cpi_stream(cubes, params) for d in r.detections
        )
        spec = BUILDERS[b](assignment)
        res = PipelineExecutor(
            spec,
            params,
            generic_cluster(),
            FSConfig("pfs", 2),
            ExecutionConfig(n_cpis=n_cpis, warmup=1, compute=True),
            scenario=scenario,
        ).run()
        got = [
            (d.cpi_index, d.doppler_bin, d.beam, d.range_gate)
            for d in sorted(res.detections)
        ]
        want = [
            (d.cpi_index, d.doppler_bin, d.beam, d.range_gate) for d in serial
        ]
        assert got == want
