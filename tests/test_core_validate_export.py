"""Tests for plan validation and Chrome-trace export."""

import json

import pytest

from repro.errors import PipelineError
from repro.core.pipeline import (
    NodeAssignment,
    build_embedded_pipeline,
    build_separate_io_pipeline,
    combine_pulse_cfar,
)
from repro.core.plan import PipelinePlan
from repro.core.validate import validate_plan
from repro.trace.collector import TraceCollector
from repro.trace.export import to_chrome_trace, write_chrome_trace
from repro.trace.record import Phase


class TestValidatePlan:
    @pytest.mark.parametrize(
        "builder",
        [
            build_embedded_pipeline,
            build_separate_io_pipeline,
            lambda a: combine_pulse_cfar(build_embedded_pipeline(a)),
        ],
        ids=["embedded", "separate", "combined"],
    )
    def test_builders_produce_valid_plans(self, small_params, builder):
        a = NodeAssignment.balanced(small_params, 20, io_nodes=4)
        validate_plan(PipelinePlan(builder(a), small_params))

    def test_paper_cases_valid(self):
        from repro.stap.params import STAPParams

        params = STAPParams()
        for case in (1, 2, 3):
            a = NodeAssignment.case(case, params)
            validate_plan(PipelinePlan(build_embedded_pipeline(a), params))
            validate_plan(PipelinePlan(build_separate_io_pipeline(a), params))

    def test_extreme_assignments_valid(self, small_params):
        """Lopsided but legal assignments must still route coherently."""
        for a in (
            NodeAssignment(1, 1, 1, 1, 1, 1, 1, io_nodes=1),
            NodeAssignment(12, 1, 1, 1, 1, 1, 1, io_nodes=2),
            NodeAssignment(1, 1, 1, 1, 1, 12, 12, io_nodes=9),
        ):
            for builder in (build_embedded_pipeline, build_separate_io_pipeline):
                validate_plan(PipelinePlan(builder(a), small_params))

    def test_corrupted_plan_detected(self, small_params):
        a = NodeAssignment.balanced(small_params, 20)
        plan = PipelinePlan(build_embedded_pipeline(a), small_params)
        # Sabotage: shrink the Doppler range partition behind the plan's back.
        from repro.core.partition import BlockPartition

        plan.ranges_doppler = BlockPartition(small_params.n_ranges // 2, 4)
        with pytest.raises(PipelineError, match="validation failed"):
            validate_plan(plan)

    def test_deadlock_names_blocked_node(self, small_params, monkeypatch):
        """A node waiting for a message nobody sends is named."""
        from repro.core import bodies
        from repro.core.context import ExecutionConfig, data_tag
        from repro.core.executor import FSConfig, PipelineExecutor
        from repro.errors import DeadlockError
        from repro.machine.presets import paragon

        honest_recv = bodies.CfarStages.recv

        def sabotaged_recv(self, k):
            if self.ctx.local == 1:
                yield from self.ctx.rc.recv(0, data_tag(k + 1000))
            return (yield from honest_recv(self, k))

        monkeypatch.setattr(bodies.CfarStages, "recv", sabotaged_recv)
        a = NodeAssignment(4, 1, 1, 2, 2, 2, cfar=2)
        ex = PipelineExecutor(
            build_embedded_pipeline(a), small_params, paragon(),
            FSConfig("pfs", 4), ExecutionConfig(n_cpis=3, warmup=1),
        )
        with pytest.raises(DeadlockError, match=r"blocked task nodes: .*cfar\[1\]"):
            ex.run()


class TestChromeExport:
    @pytest.fixture
    def trace(self):
        tc = TraceCollector()
        tc.add("doppler", 0, 0, Phase.RECV, 0.0, 0.5)
        tc.add("doppler", 0, 0, Phase.COMPUTE, 0.5, 2.0)
        tc.add("cfar", 1, 0, Phase.COMPUTE, 2.0, 2.5)
        return tc

    def test_event_structure(self, trace):
        events = to_chrome_trace(trace)
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta} == {"doppler", "cfar"}
        assert len(spans) == 3

    def test_timestamps_in_microseconds(self, trace):
        spans = [e for e in to_chrome_trace(trace) if e["ph"] == "X"]
        comp = next(e for e in spans if e["name"] == "compute cpi=0" and e["pid"] == 1)
        assert comp["ts"] == pytest.approx(0.5e6)
        assert comp["dur"] == pytest.approx(1.5e6)

    def test_tasks_map_to_pids_nodes_to_tids(self, trace):
        spans = [e for e in to_chrome_trace(trace) if e["ph"] == "X"]
        pids = {e["pid"] for e in spans}
        assert pids == {1, 2}

    def test_write_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        written = write_chrome_trace(trace, str(path))
        assert written == str(path)
        data = json.loads(path.read_text())
        assert len(data) == len(to_chrome_trace(trace))
        assert any(e.get("cat") == "compute" for e in data)

    def test_real_run_exports(self, small_params, tmp_path):
        from repro.core.context import ExecutionConfig
        from repro.core.executor import FSConfig, PipelineExecutor
        from repro.machine.presets import paragon

        res = PipelineExecutor(
            build_embedded_pipeline(NodeAssignment.balanced(small_params, 14)),
            small_params, paragon(), FSConfig("pfs", 4),
            ExecutionConfig(n_cpis=3, warmup=1),
        ).run()
        path = tmp_path / "run.json"
        write_chrome_trace(res.trace, str(path))
        data = json.loads(path.read_text())  # parses
        assert len(data) > 50
