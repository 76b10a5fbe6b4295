"""The observability layer: instruments, sampler, and zero perturbation."""

from __future__ import annotations

import json

import pytest

from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, PipelineExecutor, PipelineResult
from repro.core.pipeline import NodeAssignment, build_embedded_pipeline
from repro.errors import ConfigurationError
from repro.machine.presets import paragon
from repro.obs import (
    METRICS_SCHEMA,
    MetricsRegistry,
    Sampler,
    bottleneck_profile,
    time_weighted_mean,
    validate_metrics_dict,
)
from repro.obs.report import parse_qualified_name, series_by_name
from repro.sim.kernel import Kernel


def _run(small_params, metrics_interval=None, **cfg_kwargs):
    cfg = ExecutionConfig(
        n_cpis=4, warmup=1, metrics_interval=metrics_interval, **cfg_kwargs
    )
    return PipelineExecutor(
        build_embedded_pipeline(NodeAssignment.balanced(small_params, 14)),
        small_params, paragon(), FSConfig("pfs", stripe_factor=8), cfg,
    ).run()


class TestInstruments:
    def test_counter_accumulates_and_rejects_decrease(self):
        reg = MetricsRegistry()
        c = reg.counter("reads_total", task="doppler")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            c.inc(-1)

    def test_qualified_name_sorts_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("x", b="2", a="1")
        assert c.qualified_name == 'x{a="1",b="2"}'
        assert reg.counter("x", a="1", b="2") is c  # get-or-create

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("depth")
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.gauge("depth")

    def test_pull_gauge_reads_callback_and_rejects_set(self):
        reg = MetricsRegistry()
        state = {"v": 7.0}
        g = reg.gauge("queue", fn=lambda: state["v"])
        assert g.read() == 7.0
        state["v"] = 9.0
        assert g.read() == 9.0
        with pytest.raises(ConfigurationError, match="pull-based"):
            g.set(1.0)

    def test_push_gauge(self):
        g = MetricsRegistry().gauge("temp")
        g.set(3.0)
        assert g.read() == 3.0

    def test_histogram_cumulative_shape(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]      # (<=1, <=2, +inf]
        assert h.count == 3
        assert h.sum == pytest.approx(101.0)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ConfigurationError, match="ascending"):
            MetricsRegistry().histogram("lat", buckets=(2.0, 1.0))

    def test_timeseries_rejects_time_regress(self):
        ts = MetricsRegistry().timeseries("q")
        ts.record(1.0, 5.0)
        ts.record(2.0, 6.0)
        with pytest.raises(ConfigurationError, match="precedes"):
            ts.record(0.5, 7.0)
        assert ts.points() == [(1.0, 5.0), (2.0, 6.0)]
        assert ts.last == 6.0

    def test_artifact_shape_and_validation(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g", fn=lambda: 4.0)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        d = reg.to_dict(interval=0.1, t_end=1.0, samples=10)
        assert d["schema"] == METRICS_SCHEMA
        assert d["counters"] == {"c": 2}
        assert d["gauges"] == {"g": 4.0}
        assert validate_metrics_dict(d) == []
        assert json.loads(json.dumps(d)) == d  # JSON-able

    def test_validation_catches_malformed(self):
        assert validate_metrics_dict([]) != []
        bad = MetricsRegistry().to_dict()
        bad["series"] = {"s": {"t": [1.0, 0.5], "v": [1, 2]}}
        assert any("monotone" in p for p in validate_metrics_dict(bad))


class TestSampler:
    def _toy(self, interval, t_total=1.0, step=0.05):
        """A kernel ticking a counter; gauge tracks it. Returns series."""
        kernel = Kernel()
        reg = MetricsRegistry()
        state = {"v": 0.0}
        reg.gauge("v", fn=lambda: state["v"])

        def ticker():
            while kernel.now < t_total:
                yield kernel.timeout(step)
                state["v"] += 1.0

        kernel.process(ticker(), name="ticker")
        sampler = Sampler(kernel, reg, interval)
        sampler.attach()
        kernel.run()
        sampler.finalize(kernel.now)
        return reg.gauges()[0].series, sampler

    def test_samples_on_interval_boundaries(self):
        series, sampler = self._toy(interval=0.25)
        ts = [t for t, _ in series.points()]
        # Points only at k*0.25 boundaries (plus the forced final point).
        for t in ts[:-1]:
            assert (t / 0.25) == pytest.approx(round(t / 0.25))
        assert sampler.samples >= 4

    def test_sparse_dedupe(self):
        # Interval finer than the state change rate: consecutive equal
        # values are recorded once.
        series, _ = self._toy(interval=0.01, step=0.2)
        vals = [v for _, v in series.points()]
        assert all(a != b for a, b in zip(vals[:-2], vals[1:-1]))

    def test_finalize_forces_last_point_and_detaches(self):
        kernel = Kernel()
        reg = MetricsRegistry()
        reg.gauge("v", fn=lambda: 42.0)
        s = Sampler(kernel, reg, 0.5)
        s.attach()
        assert kernel._monitor is not None
        s.finalize(3.0)
        assert kernel._monitor is None
        assert reg.gauges()[0].series.points()[-1] == (3.0, 42.0)

    def test_double_attach_rejected(self):
        kernel = Kernel()
        s1 = Sampler(kernel, MetricsRegistry(), 0.5)
        s1.attach()
        with pytest.raises(ConfigurationError, match="monitor"):
            Sampler(kernel, MetricsRegistry(), 0.5).attach()


def _strip(d: dict) -> dict:
    d = json.loads(json.dumps(d))
    d.pop("metrics", None)
    d.get("cfg", {}).pop("metrics_interval", None)
    return d


class TestZeroPerturbation:
    def test_identical_results_with_and_without_metrics(self, small_params):
        plain = _run(small_params)
        metered = _run(small_params, metrics_interval=0.25)
        assert _strip(metered.to_dict()) == _strip(plain.to_dict())

    def test_threaded_mode_also_identical(self, small_params):
        plain = _run(small_params, threaded=True)
        metered = _run(small_params, metrics_interval=0.25, threaded=True)
        assert _strip(metered.to_dict()) == _strip(plain.to_dict())

    def test_plain_run_carries_no_metrics(self, small_params):
        res = _run(small_params)
        assert res.metrics is None
        assert "metrics" not in res.to_dict()
        assert "metrics_interval" not in res.to_dict()["cfg"]


class TestExecutorIntegration:
    # class-scoped so the (relatively) expensive run happens once
    @pytest.fixture(scope="class")
    def small_params(self):
        from repro.stap.params import STAPParams
        return STAPParams(
            n_channels=8, n_pulses=32, n_ranges=256, n_beams=6, n_hard_bins=8,
            n_training=64, pulse_len=16, cfar_window=12, cfar_guard=3, pfa=1e-6,
        )

    @pytest.fixture(scope="class")
    def metered(self, small_params):
        return _run(small_params, metrics_interval=0.25)

    def test_artifact_valid_and_populated(self, metered):
        d = metered.metrics
        assert validate_metrics_dict(d) == []
        assert d["interval"] == 0.25
        assert d["samples"] > 0
        assert d["t_end"] == pytest.approx(metered.elapsed_sim_time)

    def test_expected_instrument_families(self, metered):
        d = metered.metrics
        gauge_names = {parse_qualified_name(q)[0] for q in d["gauges"]}
        assert {"pfs_server_queue_depth", "pfs_server_busy_seconds_total",
                "pfs_server_bytes_served_total", "mpi_bytes_total",
                "mpi_messages_total",
                "reader_outstanding_reads"} <= gauge_names
        counter_names = {parse_qualified_name(q)[0] for q in d["counters"]}
        assert "task_phase_seconds_total" in counter_names
        assert "cpi_latency_seconds" in {
            parse_qualified_name(q)[0] for q in d["histograms"]
        }
        assert "net_link_busy_fraction" in d["summaries"]

    def test_byte_gauges_agree_with_disk_stats(self, metered):
        served = sum(
            v for q, v in metered.metrics["gauges"].items()
            if parse_qualified_name(q)[0] == "pfs_server_bytes_served_total"
        )
        assert served == metered.disk_stats["bytes_served"]

    def test_latency_histogram_totals(self, metered):
        hist = next(
            h for q, h in metered.metrics["histograms"].items()
            if parse_qualified_name(q)[0] == "cpi_latency_seconds"
        )
        assert hist["count"] == len(metered.measurement.latencies)
        assert hist["sum"] == pytest.approx(sum(metered.measurement.latencies))

    def test_round_trip_through_dict(self, metered):
        clone = PipelineResult.from_dict(metered.to_dict())
        assert clone.metrics == metered.metrics
        assert clone.to_dict() == metered.to_dict()

    def test_bottleneck_profile(self, metered):
        prof = bottleneck_profile(metered)
        assert 0.0 < prof["disk_util"] <= 1.0
        assert prof["compute_util"] > 0.0
        assert prof["bottleneck"] in ("disk", "compute")

    def test_bottleneck_profile_needs_metrics(self, small_params):
        res = _run(small_params)
        with pytest.raises(ValueError, match="no metrics"):
            bottleneck_profile(res)


class TestReportHelpers:
    def test_parse_qualified_name(self):
        assert parse_qualified_name("x") == ("x", {})
        assert parse_qualified_name('x{a="1",b="two"}') == (
            "x", {"a": "1", "b": "two"}
        )

    def test_series_by_name_filters_on_base(self):
        metrics = {"series": {
            'q{server="0"}': {"t": [0], "v": [1]},
            'q{server="1"}': {"t": [0], "v": [2]},
            "other": {"t": [0], "v": [3]},
        }}
        assert set(series_by_name(metrics, "q")) == {
            'q{server="0"}', 'q{server="1"}'
        }

    def test_time_weighted_mean_stepwise(self):
        # v=2 over [0,1), v=4 over [1,3): mean = (2*1 + 4*2) / 3
        assert time_weighted_mean([0.0, 1.0], [2.0, 4.0], 3.0) == pytest.approx(
            10.0 / 3.0
        )


class TestEngineAndStore:
    def test_spec_hash_distinguishes_metrics_runs(self, small_params):
        from repro.bench.engine import ExperimentSpec

        a = NodeAssignment.balanced(small_params, 14)
        base = ExperimentSpec(assignment=a, params=small_params,
                              cfg=ExecutionConfig(n_cpis=4, warmup=1))
        metered = ExperimentSpec(
            assignment=a, params=small_params,
            cfg=ExecutionConfig(n_cpis=4, warmup=1, metrics_interval=0.25),
        )
        assert base.spec_hash() != metered.spec_hash()

    def test_store_round_trips_metrics(self, small_params, tmp_path):
        from repro.bench.engine import ExperimentSpec, SweepRunner
        from repro.bench.store import ResultStore

        spec = ExperimentSpec(
            assignment=NodeAssignment.balanced(small_params, 14),
            params=small_params,
            fs=FSConfig("pfs", stripe_factor=8),
            cfg=ExecutionConfig(n_cpis=4, warmup=1, metrics_interval=0.25),
        )
        store = ResultStore(tmp_path / "cache")
        runner = SweepRunner(jobs=1, store=store)
        fresh = runner.run_one(spec)
        cached = SweepRunner(jobs=1, store=store).run_one(spec)
        assert cached.metrics == fresh.metrics
        assert validate_metrics_dict(cached.metrics) == []

    def test_fault_counters_surface(self, small_params):
        """A crash-and-recover run exposes the retry/outage instruments."""
        from repro.bench.engine import ExperimentSpec, ServerCrash, run_spec

        spec = ExperimentSpec(
            assignment=NodeAssignment.balanced(small_params, 14),
            params=small_params,
            fs=FSConfig("pfs", stripe_factor=4, replication=2),
            cfg=ExecutionConfig(n_cpis=4, warmup=1, metrics_interval=0.25),
            server_crash=ServerCrash(server=0, at_time=0.0, down_for=0.5),
        )
        result = run_spec(spec)
        gauges = result.metrics["gauges"]
        names = {parse_qualified_name(q)[0] for q in gauges}
        assert {"pfs_requests_failed_total", "pfs_server_outages_total",
                "pfs_client_retries_total",
                "pfs_client_failovers_total"} <= names
        assert gauges["pfs_server_outages_total"] >= 1
        assert gauges["pfs_client_retries_total"] >= 1

    def test_fault_counters_surface_without_replication(self, small_params):
        """An unreplicated cell with an injected flaky disk still gets
        the fault gauges: they register once the fault is armed."""
        from repro.bench.engine import ExperimentSpec, FlakyDisk, run_spec

        spec = ExperimentSpec(
            assignment=NodeAssignment.balanced(small_params, 14),
            params=small_params,
            fs=FSConfig("pfs", stripe_factor=4),
            cfg=ExecutionConfig(n_cpis=4, warmup=1, metrics_interval=0.5),
            flaky_disk=FlakyDisk(server=0, error_rate=0.2, seed=1),
        )
        result = run_spec(spec)
        failed = sum(result.disk_stats["requests_failed_per_server"])
        assert failed >= 1
        gauges = result.metrics["gauges"]
        assert gauges["pfs_requests_failed_total"] == failed
        assert gauges["pfs_client_retries_total"] == failed
