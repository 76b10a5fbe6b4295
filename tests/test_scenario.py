"""Tests for the multi-tenant scenario layer (repro.scenario).

Covers the declarative spec (hashing, serialization, validation), the
shared-substrate execution seam, arrival-process determinism across
every execution path (inline, process pool, TCP service), per-tenant
observability, and the result-store flow.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.engine import ExperimentSpec, SweepRunner, run_spec
from repro.bench.store import ResultStore
from repro.core.arrivals import ArrivalSpec
from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, Substrate, validate_fs_hints
from repro.core.pipeline import NodeAssignment
from repro.errors import ConfigurationError
from repro.machine.presets import paragon
from repro.scenario import (
    ScenarioExecutor,
    ScenarioResult,
    ScenarioSpec,
    TenantSpec,
    run_scenario,
)

FAST = ExecutionConfig(n_cpis=2, warmup=0)


def tenant(small_params, nodes=14, **kw):
    kw.setdefault("assignment", NodeAssignment.balanced(small_params, nodes))
    kw.setdefault("cfg", FAST)
    return TenantSpec(**kw)


def scenario(small_params, n_tenants=2, **kw):
    kw.setdefault("tenants", tuple(
        tenant(small_params) for _ in range(n_tenants)
    ))
    kw.setdefault("fs", FSConfig(kind="pfs", stripe_factor=4))
    kw.setdefault("params", small_params)
    return ScenarioSpec(**kw)


# ---------------------------------------------------------------------------
# Spec: hashing, serialization, validation
# ---------------------------------------------------------------------------
class TestScenarioSpec:
    def test_round_trip_and_hash(self, small_params):
        spec = scenario(small_params, metrics_interval=0.5)
        d = spec.to_dict()
        assert d["kind"] == "scenario"
        back = ScenarioSpec.from_dict(json.loads(json.dumps(d)))
        assert back == spec
        assert back.spec_hash() == spec.spec_hash()
        assert spec.short_hash() == spec.spec_hash()[:12]

    def test_arrival_and_writer_survive_round_trip(self, small_params):
        cfg = ExecutionConfig(
            n_cpis=2, warmup=0, read_deadline=1.5,
            arrival=ArrivalSpec(kind="burst", period=4.0, burst_size=2,
                                burst_gap=0.5),
        )
        spec = scenario(
            small_params,
            tenants=(tenant(small_params, cfg=cfg, name="radar"),
                     tenant(small_params, pipeline="separate-io")),
        )
        back = ScenarioSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.tenants[0].cfg.arrival == cfg.arrival
        assert back.tenant_names() == ("radar", "t1")

    def test_hash_distinct_from_experiment_spec(self, small_params):
        # The "kind" marker keeps scenario hashes disjoint from cell
        # hashes even in a shared content-addressed store.
        exp = ExperimentSpec(
            assignment=NodeAssignment.balanced(small_params, 14),
            params=small_params, cfg=FAST,
            fs=FSConfig(kind="pfs", stripe_factor=4),
        )
        assert scenario(small_params, 1).spec_hash() != exp.spec_hash()

    def test_default_tenant_names_and_label(self, small_params):
        spec = scenario(small_params, 3)
        assert spec.tenant_names() == ("t0", "t1", "t2")
        assert "scenario[3]" in spec.label()
        assert spec.total_nodes() == 3 * spec.tenants[0].build_pipeline().total_nodes

    def test_from_dict_rejects_unknown_keys(self, small_params):
        d = scenario(small_params).to_dict()
        d["metrics_intreval"] = 0.5
        with pytest.raises(ConfigurationError,
                           match="ScenarioSpec.*'metrics_intreval'"):
            ScenarioSpec.from_dict(d)
        d = scenario(small_params).to_dict()
        d["tenants"][1]["writter"] = {"period": 1.0, "n_cpis": 2}
        with pytest.raises(ConfigurationError, match="TenantSpec.*'writter'"):
            ScenarioSpec.from_dict(d)
        with pytest.raises(ConfigurationError, match="TenantSpec.*'nme'"):
            TenantSpec.from_dict({**tenant(small_params).to_dict(), "nme": "a"})

    def test_from_dict_rejects_missing_tenants(self, small_params):
        d = scenario(small_params).to_dict()
        del d["tenants"]
        with pytest.raises(ConfigurationError,
                           match="ScenarioSpec.*'tenants'"):
            ScenarioSpec.from_dict(d)

    def test_validation(self, small_params):
        with pytest.raises(ConfigurationError, match="at least one tenant"):
            scenario(small_params, tenants=())
        with pytest.raises(ConfigurationError, match="unknown machine"):
            scenario(small_params, machine="cray")
        with pytest.raises(ConfigurationError, match="metrics_interval"):
            scenario(small_params, metrics_interval=0.0)
        with pytest.raises(ConfigurationError, match="unique"):
            scenario(small_params, tenants=(
                tenant(small_params, name="a"), tenant(small_params, name="a"),
            ))
        with pytest.raises(ConfigurationError, match="unknown pipeline"):
            tenant(small_params, pipeline="nope")


# ---------------------------------------------------------------------------
# Satellite: FS hint validation enumerates the catalogue
# ---------------------------------------------------------------------------
class TestHintErrors:
    def test_bad_value_lists_every_hint(self):
        fs_cfg = FSConfig(kind="pfs", stripe_factor=4, sieve_buffer_size=0)
        with pytest.raises(ConfigurationError) as err:
            Substrate.build(paragon(), fs_cfg, n_compute=4)
        msg = str(err.value)
        assert "must be >= 1" in msg and "Valid hints:" in msg
        for hint in ("sieve_buffer_size", "cb_nodes", "list_io_max_runs"):
            assert hint in msg

    def test_capability_mismatch_names_the_capability(self):
        fs_cfg = FSConfig(kind="piofs", stripe_factor=4, list_io_max_runs=8)
        with pytest.raises(ConfigurationError) as err:
            Substrate.build(paragon(), fs_cfg, n_compute=4)
        msg = str(err.value)
        assert "list_io_max_runs" in msg
        assert "supports_list_io" in msg and "'piofs'" in msg
        assert "Valid hints:" in msg


# ---------------------------------------------------------------------------
# The substrate seam: hosted single tenant == standalone run
# ---------------------------------------------------------------------------
class TestSubstrateSeam:
    def test_single_tenant_matches_standalone(self, small_params):
        a = NodeAssignment.balanced(small_params, 14)
        fs = FSConfig(kind="pfs", stripe_factor=4)
        standalone = run_spec(ExperimentSpec(
            assignment=a, pipeline="embedded-io", fs=fs,
            params=small_params, cfg=FAST,
        ))
        hosted = run_scenario(ScenarioSpec(
            tenants=(TenantSpec(assignment=a, cfg=FAST),),
            fs=fs, params=small_params,
        ))
        solo = hosted.tenants["t0"]
        # Same kernel schedule: the timing-derived numbers are exact.
        assert solo.measurement.to_dict() == standalone.measurement.to_dict()
        assert hosted.elapsed_sim_time == standalone.elapsed_sim_time
        # Substrate stats live on the scenario, not the hosted tenant.
        assert solo.disk_stats is None
        assert hosted.disk_stats["bytes_served"] == \
            standalone.disk_stats["bytes_served"]

    def test_two_tenants_share_and_interfere(self, small_params):
        solo = run_scenario(scenario(small_params, 1))
        duo = run_scenario(scenario(small_params, 2))
        base = solo.tenants["t0"].throughput
        assert set(duo.tenants) == {"t0", "t1"}
        for r in duo.tenants.values():
            assert r.throughput <= base * 1.02
        # Shared-substrate accounting attributes bytes per tenant.
        assert set(duo.tenant_bytes) == {"t0", "t1"}
        assert all(v > 0 for v in duo.tenant_bytes.values())
        total = duo.disk_stats["bytes_served"]
        assert total >= sum(duo.tenant_bytes.values())


    def test_replicated_scenario_reports_every_fault_key(self, small_params):
        fs = FSConfig(kind="pfs", stripe_factor=4, replication=2)
        duo = run_scenario(scenario(small_params, 2, fs=fs))
        standalone = run_spec(ExperimentSpec(
            assignment=NodeAssignment.balanced(small_params, 14),
            pipeline="embedded-io", fs=fs, params=small_params, cfg=FAST,
        ))
        for key in ("requests_failed_per_server", "bytes_shipped_per_server",
                    "outages_per_server", "duplicate_ships_per_server"):
            assert len(duo.disk_stats[key]) == 4, key
        assert set(duo.disk_stats) == set(standalone.disk_stats)

    def test_one_writer_spawn_names_its_process(self, small_params,
                                                monkeypatch):
        from repro.bench.engine import WriterLoad, build_executor
        from repro.sim.kernel import Kernel

        names = []
        spawn = Kernel.process

        def recording(kernel, generator, name=""):
            names.append(name)
            return spawn(kernel, generator, name=name)

        monkeypatch.setattr(Kernel, "process", recording)
        load = WriterLoad(period=0.5, n_cpis=2)
        build_executor(ExperimentSpec(
            assignment=NodeAssignment.balanced(small_params, 14),
            params=small_params, cfg=FAST,
        )).spawn_writer(load)
        ScenarioExecutor(scenario(
            small_params, tenants=(tenant(small_params, writer=load),),
        )).setup_processes()
        assert names.count("radar-writer") == 1
        assert names.count("t0.radar-writer") == 1


# ---------------------------------------------------------------------------
# Satellite: arrival determinism across execution paths
# ---------------------------------------------------------------------------
class TestArrivalDeterminism:
    def arrival_spec(self, small_params):
        cfg = ExecutionConfig(
            n_cpis=3, warmup=0, read_deadline=30.0,
            arrival=ArrivalSpec(kind="poisson", period=0.2, seed=5),
        )
        return scenario(
            small_params,
            tenants=(tenant(small_params, cfg=cfg),
                     tenant(small_params, pipeline="separate-io", cfg=cfg)),
        )

    def test_same_seed_identical_results_across_jobs(self, small_params,
                                                     tmp_path):
        spec = self.arrival_spec(small_params)
        with SweepRunner(jobs=1, store=ResultStore(tmp_path / "s1")) as r1:
            serial = r1.run_one(spec)
        with SweepRunner(jobs=4, store=ResultStore(tmp_path / "s4")) as r4:
            pooled = r4.run_one(spec)
        assert isinstance(serial, ScenarioResult)
        assert serial.to_dict() == pooled.to_dict()

    def test_same_seed_identical_results_over_tcp(self, small_params,
                                                  tmp_path):
        from repro.service import ExperimentScheduler
        from repro.service.server import ExperimentServer, submit_batch

        spec = self.arrival_spec(small_params)
        direct = run_scenario(spec)
        store = ResultStore(tmp_path / "cache")
        with ExperimentScheduler(workers=0, store=store) as scheduler:
            with ExperimentServer(scheduler, port=0) as server:
                events = list(submit_batch(
                    server.host, server.port, [spec.to_dict()],
                    client="t", follow=True,
                ))
        results = [e for e in events if e["event"] == "result"]
        assert len(results) == 1
        assert results[0]["payload"] == direct.to_dict()

    def test_different_seed_differs(self, small_params):
        spec = self.arrival_spec(small_params)
        a = spec.tenants[0].cfg.arrival
        assert a.times(3) != ArrivalSpec(
            kind="poisson", period=0.2, seed=6
        ).times(3)


# ---------------------------------------------------------------------------
# Result store flow and result round trip
# ---------------------------------------------------------------------------
class TestStoreFlow:
    def test_cache_hit_returns_identical_scenario(self, small_params,
                                                  tmp_path):
        spec = scenario(small_params, 2)
        store = ResultStore(tmp_path / "cache")
        with SweepRunner(jobs=1, store=store) as runner:
            first = runner.run_one(spec)
            assert runner.executed == 1
            again = runner.run_one(spec)
            assert runner.cache_hits == 1
        assert first.to_dict() == again.to_dict()

    def test_result_round_trip(self, small_params):
        result = run_scenario(scenario(small_params, metrics_interval=0.5))
        back = ScenarioResult.from_dict(json.loads(
            json.dumps(result.to_dict())
        ))
        assert back.to_dict() == result.to_dict()
        assert list(back.tenants) == list(result.tenants)
        assert back.throughputs() == result.throughputs()


# ---------------------------------------------------------------------------
# Executor behavior: arrivals gate, tenants observable, gantt renders
# ---------------------------------------------------------------------------
class TestScenarioExecutor:
    def test_arrival_gating_delays_the_run(self, small_params):
        late = ExecutionConfig(
            n_cpis=2, warmup=0,
            arrival=ArrivalSpec(kind="fixed", period=5.0, offset=10.0),
        )
        spec = scenario(small_params, tenants=(
            tenant(small_params, cfg=late),
        ))
        result = run_scenario(spec)
        # CPI 1 only becomes available at t=15; the run must outlast it.
        assert result.elapsed_sim_time > 15.0

    def test_tenant_labelled_metrics(self, small_params):
        result = run_scenario(scenario(small_params, metrics_interval=0.5))
        names = list(result.metrics["counters"]) + \
            list(result.metrics["gauges"])
        assert any('tenant="t0"' in n for n in names)
        assert any('tenant="t1"' in n for n in names)
        assert any(n.startswith("pfs_tenant_bytes_total") for n in names)
        # Shared substrate gauges are unlabelled singletons.
        assert any(n.startswith("pfs_server_busy_seconds_total") for n in names)

    def test_drops_accounted_per_tenant(self, small_params):
        tight = ExecutionConfig(n_cpis=3, warmup=0, read_deadline=1e-6)
        result = run_scenario(scenario(small_params, tenants=(
            tenant(small_params, cfg=tight), tenant(small_params),
        )))
        drops = result.drops()
        assert drops["t0"] > 0 and drops["t1"] == 0

    def test_gantt_renders_every_tenant(self, small_params):
        ex = ScenarioExecutor(scenario(small_params, 2))
        ex.run()
        chart = ex.gantt(width=60)
        assert "--- t0 ---" in chart and "--- t1 ---" in chart
