"""Lossless serialization round trips for every result-bearing type.

The experiment engine's caching and process-parallel execution both rest
on one invariant: ``X.from_dict(json round trip of X.to_dict())`` is
indistinguishable from ``X`` — including float bit-exactness, so a
cache-served result renders byte-identically to a fresh simulation.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.engine import (
    DiskFault,
    ExperimentSpec,
    FlakyDisk,
    NodeFault,
    ServerCrash,
    WriterLoad,
)
from repro.core.arrivals import ArrivalSpec
from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, PipelineExecutor, PipelineResult
from repro.core.metrics import DroppedCpi, TaskPhaseStats
from repro.core.pipeline import (
    NodeAssignment,
    PipelineSpec,
    build_embedded_pipeline,
    build_separate_io_pipeline,
)
from repro.errors import ConfigurationError
from repro.machine.presets import paragon
from repro.scenario import ScenarioSpec, TenantSpec
from repro.stap.cfar import Detection
from repro.stap.params import STAPParams

FAST = ExecutionConfig(n_cpis=4, warmup=1)


def round_trip(obj, cls=None):
    """JSON-encode obj.to_dict(), decode, rebuild via cls.from_dict."""
    cls = cls or type(obj)
    return cls.from_dict(json.loads(json.dumps(obj.to_dict())))


class TestConfigRoundTrips:
    def test_stap_params(self, small_params):
        clone = round_trip(small_params)
        assert clone == small_params
        assert np.dtype(clone.dtype) == np.dtype(small_params.dtype)
        assert round_trip(STAPParams()) == STAPParams()

    def test_execution_config(self):
        cfg = ExecutionConfig(
            n_cpis=5, warmup=2, window=3, compute=True, threaded=True,
            write_reports=True,
        )
        assert round_trip(cfg) == cfg

    def test_fs_config(self):
        fs = FSConfig("piofs", stripe_factor=80, stripe_unit=131072)
        clone = round_trip(fs)
        assert clone == fs
        assert clone.label() == fs.label()

    def test_node_assignment(self, small_params):
        a = NodeAssignment.case(2, STAPParams())
        clone = round_trip(a)
        assert clone == a
        assert clone.total_without_io == a.total_without_io

    def test_pipeline_spec(self, small_params):
        for build in (build_embedded_pipeline, build_separate_io_pipeline):
            spec = build(NodeAssignment.balanced(small_params, 14))
            clone = round_trip(spec, PipelineSpec)
            assert clone.to_dict() == spec.to_dict()
            assert [t.name for t in clone.tasks] == [t.name for t in spec.tasks]
            assert clone.graph.latency_terms() == spec.graph.latency_terms()


class TestPipelineResultRoundTrip:
    def _run(self, small_params, cfg=FAST, **kw):
        spec = build_embedded_pipeline(NodeAssignment.balanced(small_params, 14))
        return PipelineExecutor(
            spec, small_params, paragon(), FSConfig("pfs", 8), cfg, **kw
        ).run()

    def test_timing_mode_exact(self, small_params):
        res = self._run(small_params)
        clone = round_trip(res, PipelineResult)
        assert clone.to_dict() == res.to_dict()
        # Float bit-exactness, not approximate equality:
        assert clone.throughput == res.throughput
        assert clone.latency == res.latency
        assert clone.elapsed_sim_time == res.elapsed_sim_time

    def test_trace_preserved(self, small_params):
        res = self._run(small_params)
        clone = round_trip(res, PipelineResult)
        assert len(clone.trace.records) == len(res.trace.records)
        a, b = res.trace.records[0], clone.trace.records[0]
        assert (a.task, a.node, a.cpi, a.phase, a.t_start, a.t_end) == (
            b.task, b.node, b.cpi, b.phase, b.t_start, b.t_end
        )

    def test_measurement_preserved(self, small_params):
        res = self._run(small_params)
        clone = round_trip(res, PipelineResult)
        assert list(clone.measurement.task_stats) == list(
            res.measurement.task_stats
        )
        assert clone.measurement.bottleneck_task == res.measurement.bottleneck_task
        for name, stats in res.measurement.task_stats.items():
            assert clone.measurement.task_stats[name].to_dict() == stats.to_dict()

    def test_rank_traffic_tuple_keys_survive(self, small_params):
        res = self._run(small_params)
        clone = round_trip(res, PipelineResult)
        assert clone.rank_traffic == res.rank_traffic
        assert clone.rank_task == res.rank_task
        assert any(
            isinstance(k, tuple) and len(k) == 2 for k in clone.rank_traffic
        )
        assert clone.task_traffic() == res.task_traffic()

    def test_compute_mode_detections(self, tiny_params):
        spec = build_embedded_pipeline(NodeAssignment.balanced(tiny_params, 14))
        res = PipelineExecutor(
            spec, tiny_params, paragon(), FSConfig("pfs", 8),
            ExecutionConfig(n_cpis=2, warmup=0, compute=True),
            seed=42,
        ).run()
        clone = round_trip(res, PipelineResult)
        assert clone.to_dict() == res.to_dict()
        assert len(clone.detections) == len(res.detections)
        # numpy scalars were coerced to plain Python on the way out
        text = json.dumps(res.to_dict())
        assert isinstance(json.loads(text), dict)


class TestExperimentResultRoundTrip:
    def test_experiment_result(self, small_params):
        from repro.bench.experiments import ExperimentResult, run_table1

        exp = run_table1(small_params, FAST)
        clone = round_trip(exp, ExperimentResult)
        assert clone.render() == exp.render()
        assert clone.render_charts() == exp.render_charts()
        assert clone.to_dict() == exp.to_dict()


class TestStructuredExport:
    def test_envelope_and_file(self, small_params, tmp_path):
        from repro.trace.export import to_result_json, write_result_json

        spec = build_embedded_pipeline(NodeAssignment.balanced(small_params, 14))
        res = PipelineExecutor(
            spec, small_params, paragon(), FSConfig("pfs", 8), FAST
        ).run()
        env = to_result_json(res)
        assert env["schema"] == 1
        assert env["kind"] == "PipelineResult"
        rebuilt = PipelineResult.from_dict(env["data"])
        assert rebuilt.to_dict() == res.to_dict()

        path = tmp_path / "result.json"
        write_result_json(res, str(path), pretty=True)
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(env))

    def test_rejects_plain_objects(self):
        import pytest

        from repro.trace.export import to_result_json

        with pytest.raises(TypeError, match="to_dict"):
            to_result_json(object())


#: The conftest ``small_params``, for module-scoped fixtures.
SMALL = STAPParams(
    n_channels=8, n_pulses=32, n_ranges=256, n_beams=6, n_hard_bins=8,
    n_training=64, pulse_len=16, cfar_window=12, cfar_guard=3, pfa=1e-6,
)


@pytest.fixture(scope="module")
def small_result():
    spec = build_embedded_pipeline(NodeAssignment.balanced(SMALL, 14))
    return PipelineExecutor(
        spec, SMALL, paragon(), FSConfig("pfs", 8), FAST
    ).run()


@pytest.fixture(scope="module")
def two_tenant_dict():
    """JSON dict of a 2-tenant ScenarioResult."""
    a = NodeAssignment.balanced(SMALL, 14)
    spec = ScenarioSpec(
        tenants=(TenantSpec(a, cfg=FAST),
                 TenantSpec(a, pipeline="separate-io", cfg=FAST)),
        fs=FSConfig("pfs", 4), params=SMALL,
    )
    return json.loads(json.dumps(spec.run().to_dict()))


class TestScenarioTenantOrder:
    """``repro scenario run --json`` dumps with ``sort_keys``, which also
    sorts the nested ``tenants`` dict; ``tenant_order`` restores it."""

    @pytest.fixture(scope="class")
    def unsorted_result(self):
        a = NodeAssignment.balanced(SMALL, 14)
        spec = ScenarioSpec(
            tenants=(TenantSpec(a, cfg=FAST, name="radar"),
                     TenantSpec(a, pipeline="separate-io", cfg=FAST,
                                name="archive")),
            fs=FSConfig("pfs", 4), params=SMALL,
        )
        return spec.run()

    def test_sorted_dump_round_trips(self, unsorted_result, tmp_path):
        import repro
        from repro.scenario import ScenarioResult

        d = unsorted_result.to_dict()
        assert d["tenant_order"] == ["radar", "archive"]
        dumped = json.loads(json.dumps(d, sort_keys=True))
        assert list(dumped["tenants"]) == ["archive", "radar"]
        assert ScenarioResult.from_dict(dumped).to_dict() == d
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d, sort_keys=True))
        loaded = repro.load(str(path))
        assert loaded.kind == "scenario"
        assert loaded.result.to_dict() == d


class TestResultCodecRejects:
    """A malformed result dict is a typed failure, never a silent skip."""

    @pytest.mark.parametrize("path, key", [
        ((), "dropped_cpi"),               # misspelled dropped_cpis
        (("measurement",), "throughputs"),
        (("spec",), "stages"),
    ])
    def test_unknown_key(self, small_result, path, key):
        d = json.loads(json.dumps(small_result.to_dict()))
        target = d
        for p in path:
            target = target[p]
        target[key] = 1
        with pytest.raises(ConfigurationError, match=repr(key)):
            PipelineResult.from_dict(d)

    @pytest.mark.parametrize("key", ["measurement", "trace", "spec"])
    def test_missing_required_key(self, small_result, key):
        d = small_result.to_dict()
        del d[key]
        with pytest.raises(ConfigurationError, match=repr(key)):
            PipelineResult.from_dict(d)

    def test_malformed_value(self, small_result):
        d = small_result.to_dict()
        d["rank_traffic"] = [1, 2]
        with pytest.raises(ConfigurationError, match="rank_traffic"):
            PipelineResult.from_dict(d)

    def test_tenant_order_must_name_the_tenants(self, two_tenant_dict):
        from repro.scenario import ScenarioResult

        d = dict(two_tenant_dict, tenant_order=["t0", "nobody"])
        with pytest.raises(ConfigurationError, match="tenant_order"):
            ScenarioResult.from_dict(d)


class TestBenchmarkSeams:
    """``perfbench --trace 1`` times rehydration by replacing
    ``PipelineResult.from_dict`` on the class with a staticmethod that
    wraps the original ``__func__``."""

    def test_from_dict_is_a_staticmethod_that_rehydrates(self, small_result):
        seam = PipelineResult.__dict__["from_dict"]
        assert isinstance(seam, staticmethod)
        d = json.loads(json.dumps(small_result.to_dict()))
        assert seam.__func__(d).to_dict() == d

    def test_scenario_decode_calls_the_patched_seam_per_tenant(
        self, two_tenant_dict, monkeypatch
    ):
        from repro.scenario import ScenarioResult

        original = PipelineResult.__dict__["from_dict"].__func__
        calls = []

        def counted(d):
            calls.append(d)
            return original(d)

        monkeypatch.setattr(PipelineResult, "from_dict", staticmethod(counted))
        back = ScenarioResult.from_dict(two_tenant_dict)
        assert len(calls) == 2
        assert back.to_dict() == two_tenant_dict

    def test_every_patched_seam_exists(self):
        from repro.bench import engine
        from repro.bench.store import ResultStore
        from repro.core.executor import Substrate
        from repro.sim.kernel import Kernel

        assert callable(Kernel.__dict__["run"])
        assert callable(engine.build_executor)
        assert isinstance(Substrate.__dict__["build"], classmethod)
        assert callable(ResultStore.__dict__["get_dict"])
        assert callable(ResultStore.__dict__["put_dict"])


# ---------------------------------------------------------------------------
# Property: every spec class survives a JSON round trip, hash included
# ---------------------------------------------------------------------------
_seeds = st.integers(0, 2**31 - 1)
_small = st.integers(1, 8)
_nonneg = st.floats(0.0, 100.0, allow_nan=False)
_pos = st.floats(0.01, 100.0, allow_nan=False)
_names = st.sampled_from(["read", "doppler", "cfar", "pc_cfar"])


def _opt(strategy):
    return st.none() | strategy


disk_faults = st.builds(DiskFault, server=st.integers(0, 63), slow_factor=_pos)
node_faults = st.builds(NodeFault, node=st.integers(0, 63), slow_factor=_pos)
server_crashes = st.builds(ServerCrash, server=st.integers(0, 63),
                           at_time=_nonneg, down_for=_opt(_pos))
flaky_disks = st.builds(FlakyDisk, server=st.integers(0, 63),
                        error_rate=st.floats(0.0, 1.0), seed=_seeds)
writers = st.builds(WriterLoad, period=_pos, n_cpis=_small,
                    start_cpi=st.integers(0, 8), initial_delay=_nonneg)


@st.composite
def arrivals(draw):
    kind = draw(st.sampled_from(["fixed", "poisson", "jittered", "burst"]))
    period = draw(_pos)
    kw = {"offset": draw(_nonneg), "seed": draw(_seeds)}
    if kind == "jittered":
        kw["jitter"] = draw(st.floats(0.0, period))
    if kind == "burst":
        kw["burst_size"] = size = draw(_small)
        kw["burst_gap"] = period / size * draw(st.floats(0.0, 1.0))
    return ArrivalSpec(kind=kind, period=period, **kw)


@st.composite
def exec_configs(draw):
    n_cpis = draw(_small)
    return ExecutionConfig(
        n_cpis=n_cpis,
        warmup=draw(st.integers(0, n_cpis - 1)),
        window=draw(st.integers(1, 4)),
        compute=draw(st.booleans()),
        threaded=draw(st.booleans()),
        write_reports=draw(st.booleans()),
        read_deadline=draw(_opt(_pos)),
        metrics_interval=draw(_opt(_pos)),
        arrival=draw(_opt(arrivals())),
    )


fs_configs = st.builds(
    FSConfig,
    kind=st.sampled_from(["pfs", "piofs"]),
    stripe_factor=st.integers(1, 64),
    stripe_unit=st.sampled_from([4096, 65536]),
    disk_bw=_opt(_pos),
    disk_overhead=_opt(_nonneg),
    name=st.sampled_from(["", "fast disks"]),
    replication=st.integers(1, 3),
    sieve_buffer_size=_opt(st.integers(1, 1 << 20)),
    cb_nodes=_opt(_small),
    list_io_max_runs=_opt(_small),
)
stap_params = st.builds(
    STAPParams,
    n_channels=st.sampled_from([4, 8]),
    n_pulses=st.sampled_from([16, 32]),
    n_ranges=st.sampled_from([128, 256]),
    n_hard_bins=st.sampled_from([4, 8]),
    n_training=st.just(32),
    diagonal_load=_nonneg,
    covariance_memory=st.floats(0.0, 0.99),
    pulse_len=st.sampled_from([8, 16]),
    pfa=st.floats(1e-9, 0.5),
    cfar_method=st.sampled_from(["ca", "goca", "soca", "os"]),
    window_kind=st.sampled_from(["hann", "hamming", "blackman", "rect"]),
    dtype=st.sampled_from([np.complex64, np.complex128]).map(np.dtype),
)
assignments = st.builds(
    NodeAssignment, _small, _small, _small, _small, _small, _small, _small,
    io_nodes=_opt(_small),
)
experiment_specs = st.builds(
    ExperimentSpec,
    assignment=assignments,
    pipeline=st.sampled_from(["embedded", "separate", "combined",
                              "embedded-io", "collective-two-phase"]),
    machine=st.sampled_from(["paragon", "sp", "generic"]),
    fs=fs_configs,
    params=stap_params,
    cfg=exec_configs(),
    seed=_seeds,
    disk_fault=_opt(disk_faults),
    node_fault=_opt(node_faults),
    writer=_opt(writers),
    server_crash=_opt(server_crashes),
    flaky_disk=_opt(flaky_disks),
    screening=st.sampled_from(["off", "screen", "predict-all"]),
)
tenant_specs = st.builds(
    TenantSpec,
    assignment=assignments,
    pipeline=st.sampled_from(["embedded-io", "separate-io"]),
    cfg=exec_configs(),
    name=st.sampled_from(["", "radar"]),
    writer=_opt(writers),
)


@st.composite
def scenario_specs(draw):
    tenants = draw(st.lists(tenant_specs, min_size=1, max_size=3))
    # Tenant names must be unique once resolved (``name`` or ``t<i>``).
    tenants = [replace(t, name=t.name and f"{t.name}{i}")
               for i, t in enumerate(tenants)]
    return ScenarioSpec(
        tenants=tuple(tenants),
        machine=draw(st.sampled_from(["paragon", "sp"])),
        fs=draw(fs_configs),
        params=draw(stap_params),
        seed=draw(_seeds),
        metrics_interval=draw(_opt(_pos)),
    )


CODEC_CLASSES = {
    "DiskFault": disk_faults,
    "NodeFault": node_faults,
    "ServerCrash": server_crashes,
    "FlakyDisk": flaky_disks,
    "WriterLoad": writers,
    "ExperimentSpec": experiment_specs,
    "FSConfig": fs_configs,
    "ExecutionConfig": exec_configs(),
    "ArrivalSpec": arrivals(),
    "STAPParams": stap_params,
    "NodeAssignment": assignments,
    "TenantSpec": tenant_specs,
    "ScenarioSpec": scenario_specs(),
    "DroppedCpi": st.builds(DroppedCpi, _names, st.integers(0, 63),
                            st.integers(0, 99), _nonneg),
    "TaskPhaseStats": st.builds(TaskPhaseStats, _names, _nonneg, _nonneg,
                                _nonneg),
    "Detection": st.builds(Detection, st.integers(0, 127), st.integers(0, 7),
                           st.integers(0, 1023),
                           st.floats(-50.0, 150.0, allow_nan=False),
                           st.integers(0, 99)),
}


class TestCodecRoundTrips:
    @pytest.mark.parametrize("cls_name", sorted(CODEC_CLASSES))
    def test_json_round_trip(self, cls_name):
        @settings(max_examples=25, deadline=None)
        @given(CODEC_CLASSES[cls_name])
        def check(obj):
            assert type(obj).__name__ == cls_name
            clone = round_trip(obj)
            assert clone == obj
            assert clone.to_dict() == obj.to_dict()
            if hasattr(obj, "spec_hash"):
                assert clone.spec_hash() == obj.spec_hash()

        check()
