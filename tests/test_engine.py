"""Tests for the declarative experiment engine (spec / runner / store)."""

import json
import os
import time

import numpy as np
import pytest

from repro.bench.engine import (
    DiskFault,
    ExperimentSpec,
    FlakyDisk,
    NodeFault,
    ServerCrash,
    SweepRunner,
    WriterLoad,
    machine_key,
    run_spec,
)
from repro.bench.store import ResultStore
from repro.core.arrivals import ArrivalSpec
from repro.core.context import ExecutionConfig
from repro.errors import ConfigurationError
from repro.core.executor import FSConfig
from repro.core.pipeline import NodeAssignment
from repro.machine.presets import generic_cluster, ibm_sp, paragon
from repro.stap.params import STAPParams

FAST = ExecutionConfig(n_cpis=4, warmup=1)

# Pinned content address of a fully-default spec (case-1 assignment,
# n_cpis=3, warmup=1).  If this test fails, the canonical serialization
# changed: bump SPEC_SCHEMA in repro.bench.engine so old cache entries
# are invalidated rather than silently mismatched.
GOLDEN_SPEC_HASH = (
    "94489719052af6c49981f091e00fb382c5bea34036b123a9254682ba0691c1dc"
)


def _golden_cfg(**kw):
    return ExecutionConfig(n_cpis=3, warmup=1, **kw)


def _golden_spec(**kw):
    """The GOLDEN_SPEC_HASH spec with ``kw`` overriding its fields."""
    kw.setdefault("assignment", NodeAssignment.case(1, STAPParams()))
    kw.setdefault("cfg", _golden_cfg())
    return ExperimentSpec(**kw)


def _golden_scenario(**kw):
    from repro.scenario import ScenarioSpec, TenantSpec

    case1 = NodeAssignment.case(1, STAPParams())
    kw.setdefault("tenants", (
        TenantSpec(case1, cfg=_golden_cfg()),
        TenantSpec(case1, pipeline="separate-io", cfg=_golden_cfg()),
    ))
    return ScenarioSpec(**kw)


def _golden_named_scenario():
    from repro.scenario import TenantSpec

    case1 = NodeAssignment.case(1, STAPParams())
    return _golden_scenario(
        tenants=(
            TenantSpec(case1, cfg=_golden_cfg(read_deadline=0.5),
                       name="radar",
                       writer=WriterLoad(period=0.5, n_cpis=4)),
            TenantSpec(case1, pipeline="separate-io", cfg=_golden_cfg()),
        ),
        fs=FSConfig("piofs", 16),
        seed=3,
        metrics_interval=0.25,
    )


# Published content addresses, one entry per optional field set on its
# own plus the scenario shapes.  A spec that leaves a sparse field at its
# default must hash exactly as before the field existed, and one that
# sets it must keep the hash it was published under.  If an entry fails,
# the canonical serialization changed: declare the new field sparse, or
# bump SPEC_SCHEMA/SCENARIO_SCHEMA (and re-pin) so that old cache
# entries read as misses instead of being misread.
GOLDEN_SPECS = {
    "default": (_golden_spec, GOLDEN_SPEC_HASH),
    "disk_fault": (
        lambda: _golden_spec(disk_fault=DiskFault(server=1, slow_factor=4.0)),
        "1432251daf47527ae74c5e8678b410f8d0a448fa1b38e4d0e6e04903bc0afd1a",
    ),
    "node_fault": (
        lambda: _golden_spec(node_fault=NodeFault(node=2, slow_factor=2.0)),
        "956ce6e967b11325c3960d591e09bfa4be356c266e151057765e2df7d1c86301",
    ),
    "writer": (
        lambda: _golden_spec(writer=WriterLoad(
            period=0.5, n_cpis=4, start_cpi=2, initial_delay=0.25)),
        "9dfe8db6ea38655ea8fd2213c396de4e094a3984f2be8051aac74d0abb629374",
    ),
    "server_crash": (
        lambda: _golden_spec(
            server_crash=ServerCrash(server=1, at_time=0.5, down_for=2.0)),
        "ac9bb3fac2cfc3b95835301fce8db26d862ec077cd8b204a0de56036adb02cd1",
    ),
    "server_crash_permanent": (
        lambda: _golden_spec(
            server_crash=ServerCrash(server=1, at_time=0.5)),
        "f3dc67f0b39161f267fca775b441ca69ab9f00699404c13133bed56be9b49e23",
    ),
    "flaky_disk": (
        lambda: _golden_spec(
            flaky_disk=FlakyDisk(server=2, error_rate=0.1, seed=3)),
        "569117b0eb25dcafba1d0926770888033b3afda21e4a153872c592e843270d1f",
    ),
    "replication": (
        lambda: _golden_spec(fs=FSConfig("pfs", 8, replication=2)),
        "b415b02095ffecd65714398bf693ac419532c9f944003d50d800fe92ce9c12d9",
    ),
    "sieve_buffer_size": (
        lambda: _golden_spec(fs=FSConfig(sieve_buffer_size=65536)),
        "a9ac54772763ac215d519b5af25947dd55cf115ad43a73d88e8252b29654b52b",
    ),
    "cb_nodes": (
        lambda: _golden_spec(fs=FSConfig(cb_nodes=4)),
        "c71837c5a90b0f68a1bf1fe250035d9506537563ede7ca9f4508af9b197782d1",
    ),
    "list_io_max_runs": (
        lambda: _golden_spec(fs=FSConfig(list_io_max_runs=8)),
        "198bb6f032b51d1f5318c53178ebcbf03e6594c83ace8e9a382f6ee9a2f31751",
    ),
    "read_deadline": (
        lambda: _golden_spec(cfg=_golden_cfg(read_deadline=0.5)),
        "a90464d4ffa706cea0ed6c8dcde8087a89c6314c14b451904d84cb669289f219",
    ),
    "metrics_interval": (
        lambda: _golden_spec(cfg=_golden_cfg(metrics_interval=0.25)),
        "53fd32f636807d60ce9a6e769f8f2ead453539be687b369715c1cb94dcd4808d",
    ),
    "arrival_fixed": (
        lambda: _golden_spec(cfg=_golden_cfg(
            arrival=ArrivalSpec(period=0.1, offset=0.05))),
        "af57be07d8a5ccfa33d9ee4457754a009f58a03710493ef98af3b083914d199d",
    ),
    "arrival_poisson": (
        lambda: _golden_spec(cfg=_golden_cfg(
            arrival=ArrivalSpec(kind="poisson", period=0.1, seed=7))),
        "12aede884da666ccaffcb611009c5367ae06b8b0f16a6c49083c115aea2efed4",
    ),
    "arrival_jittered": (
        lambda: _golden_spec(cfg=_golden_cfg(
            arrival=ArrivalSpec(kind="jittered", period=0.1, jitter=0.02,
                                seed=3))),
        "fd87ac9d35d7fd100440a86edfb78ea274bc73f8b65c89ccb9591e13c21ef075",
    ),
    "arrival_burst": (
        lambda: _golden_spec(cfg=_golden_cfg(
            arrival=ArrivalSpec(kind="burst", period=0.4, burst_size=3,
                                burst_gap=0.05))),
        "ebfc219dcae14d87bd84e23d570278864b12418f69a802020c3ee20b0d7ce936",
    ),
    "params_dtype": (
        lambda: _golden_spec(
            params=STAPParams(dtype=np.complex128, cfar_method="os")),
        "4aab7d359bec7af1ef95f5b65b5069f6256a0238e4366ec5b7bf5f4a9b06ccef",
    ),
    "scenario": (
        _golden_scenario,
        "a3ec8c08d5a4d79d60bc83c73972e426f68a8c06b4bf01d05643419b5662c0cb",
    ),
    "scenario_named_writer_metrics": (
        _golden_named_scenario,
        "53d480dff7411c81efa73f0ffa38d2e12b13fc5c26ce9caadd142bda7caf961f",
    ),
}


def small_spec(small_params, **kw):
    kw.setdefault("assignment", NodeAssignment.balanced(small_params, 14))
    kw.setdefault("fs", FSConfig("pfs", 8))
    kw.setdefault("params", small_params)
    kw.setdefault("cfg", FAST)
    return ExperimentSpec(**kw)


class TestSpec:
    def test_golden_hash_pinned(self):
        spec = ExperimentSpec(
            assignment=NodeAssignment.case(1, STAPParams()),
            cfg=ExecutionConfig(n_cpis=3, warmup=1),
        )
        assert spec.spec_hash() == GOLDEN_SPEC_HASH
        assert spec.short_hash() == GOLDEN_SPEC_HASH[:12]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_golden_hash_table(self, name):
        build, pinned = GOLDEN_SPECS[name]
        spec = build()
        assert spec.spec_hash() == pinned
        clone = type(spec).from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec and clone.spec_hash() == pinned

    def test_screening_stays_out_of_the_hash(self):
        for mode in ("screen", "predict-all"):
            spec = _golden_spec(screening=mode)
            assert spec.spec_hash() == GOLDEN_SPEC_HASH
            assert "screening" not in spec.to_dict()

    def test_canonical_json_is_sorted_and_compact(self):
        spec = ExperimentSpec(assignment=NodeAssignment.case(1, STAPParams()))
        text = spec.canonical_json()
        assert ": " not in text and ", " not in text
        d = json.loads(text)
        assert list(d) == sorted(d)
        assert d["schema"] == 1

    def test_round_trip(self, small_params):
        spec = small_spec(
            small_params,
            pipeline="combined",
            machine="sp",
            seed=7,
            disk_fault=DiskFault(server=1, slow_factor=4.0),
            node_fault=NodeFault(node=2, slow_factor=2.0),
            writer=WriterLoad(period=0.5, n_cpis=4, start_cpi=2,
                              initial_delay=0.25),
            server_crash=ServerCrash(server=1, at_time=0.5, down_for=2.0),
            flaky_disk=FlakyDisk(server=2, error_rate=0.1, seed=3),
        )
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_from_dict_rejects_unknown_key(self):
        d = _golden_spec().to_dict()
        d["flaky_dsk"] = {"server": 1, "error_rate": 0.1, "seed": 0}
        with pytest.raises(ConfigurationError,
                           match="ExperimentSpec.*'flaky_dsk'"):
            ExperimentSpec.from_dict(d)

    def test_from_dict_rejects_unknown_nested_key(self):
        d = _golden_spec().to_dict()
        d["fs"]["stripe_facter"] = 4
        with pytest.raises(ConfigurationError,
                           match="FSConfig.*'stripe_facter'"):
            ExperimentSpec.from_dict(d)

    def test_from_dict_rejects_missing_required_field(self):
        d = _golden_spec().to_dict()
        del d["assignment"]
        with pytest.raises(ConfigurationError,
                           match="ExperimentSpec.*'assignment'"):
            ExperimentSpec.from_dict(d)
        d = _golden_spec().to_dict()
        del d["assignment"]["cfar"]
        with pytest.raises(ConfigurationError,
                           match="NodeAssignment.*'cfar'"):
            ExperimentSpec.from_dict(d)

    def test_from_dict_missing_optional_field_takes_default(self):
        d = _golden_spec(seed=4).to_dict()
        for key in ("seed", "machine", "disk_fault"):
            del d[key]
        assert ExperimentSpec.from_dict(d) == _golden_spec()

    def test_from_dict_rejects_wrong_shape(self):
        d = _golden_spec().to_dict()
        d["fs"] = 8
        with pytest.raises(ConfigurationError, match="FSConfig"):
            ExperimentSpec.from_dict(d)

    def test_every_field_perturbs_the_hash(self, small_params):
        from dataclasses import replace

        base = small_spec(small_params)
        variants = [
            replace(base, pipeline="separate"),
            replace(base, machine="sp"),
            replace(base, fs=FSConfig("pfs", 16)),
            replace(base, cfg=ExecutionConfig(n_cpis=5, warmup=1)),
            replace(base, seed=1),
            replace(base, disk_fault=DiskFault(slow_factor=2.0)),
            replace(base, node_fault=NodeFault(slow_factor=2.0)),
            replace(base, writer=WriterLoad(period=1.0, n_cpis=2)),
            replace(base, server_crash=ServerCrash(at_time=1.0)),
            replace(base, flaky_disk=FlakyDisk(error_rate=0.05)),
            replace(base, fs=FSConfig("pfs", 8, replication=2)),
            replace(base, cfg=ExecutionConfig(n_cpis=4, warmup=1,
                                              read_deadline=2.0)),
        ]
        hashes = {base.spec_hash()} | {v.spec_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_fault_free_spec_serializes_without_fault_keys(self, small_params):
        # Hash-stability contract: the new fault/replication/deadline
        # fields must be invisible in the canonical form when unset, so
        # every pre-existing golden spec hash survives the upgrade.
        d = small_spec(small_params).to_dict()
        for key in ("server_crash", "flaky_disk"):
            assert key not in d
        assert "replication" not in d["fs"]
        assert "read_deadline" not in d["cfg"]

    def test_fault_validation(self):
        with pytest.raises(ConfigurationError):
            ServerCrash(server=-1)
        with pytest.raises(ConfigurationError):
            ServerCrash(at_time=-0.5)
        with pytest.raises(ConfigurationError):
            ServerCrash(down_for=0.0)
        with pytest.raises(ConfigurationError):
            FlakyDisk(error_rate=1.5)
        with pytest.raises(ConfigurationError):
            FlakyDisk(error_rate=-0.1)

    def test_fault_server_index_checked_against_machine(self, small_params):
        spec = small_spec(small_params,
                          server_crash=ServerCrash(server=99, at_time=1.0))
        with pytest.raises(ConfigurationError, match="server_crash"):
            run_spec(spec)
        spec = small_spec(small_params,
                          flaky_disk=FlakyDisk(server=99, error_rate=0.1))
        with pytest.raises(ConfigurationError, match="flaky_disk"):
            run_spec(spec)

    def test_unknown_pipeline_and_machine_rejected(self, small_params):
        with pytest.raises(ConfigurationError, match="unknown pipeline"):
            small_spec(small_params, pipeline="bogus")
        with pytest.raises(ConfigurationError, match="unknown machine"):
            small_spec(small_params, machine="cray")

    def test_machine_key_round_trips_presets(self):
        assert machine_key(paragon()) == "paragon"
        assert machine_key(ibm_sp()) == "sp"
        assert machine_key(generic_cluster()) == "generic"

    def test_machine_key_unknown_preset(self):
        from dataclasses import replace

        weird = replace(paragon(), name="CM-5")
        with pytest.raises(ConfigurationError, match="CM-5"):
            machine_key(weird)

    def test_label_mentions_faults(self, small_params):
        spec = small_spec(small_params, disk_fault=DiskFault(slow_factor=3.0))
        assert "disk[0] x3" in spec.label()

    def test_label_mentions_crash_and_flaky(self, small_params):
        spec = small_spec(
            small_params,
            server_crash=ServerCrash(server=1, at_time=2.0, down_for=3.0),
            flaky_disk=FlakyDisk(server=0, error_rate=0.05),
        )
        label = spec.label()
        assert "crash[1] @2s for 3s" in label
        assert "flaky[0] p=0.05" in label
        permanent = small_spec(
            small_params, server_crash=ServerCrash(server=0, at_time=1.0)
        )
        assert "forever" in permanent.label()


class TestRunSpec:
    def test_deterministic(self, small_params):
        spec = small_spec(small_params)
        a = run_spec(spec).to_dict()
        b = run_spec(spec).to_dict()
        assert a == b

    def test_result_carries_config(self, small_params):
        res = run_spec(small_spec(small_params))
        assert res.throughput > 0
        assert res.fs_label == "PFS sf=8"
        assert res.machine_name == "Intel Paragon"

    def test_seeded_compute_spec_is_deterministic(self, tiny_params):
        spec = ExperimentSpec(
            assignment=NodeAssignment.balanced(tiny_params, 14),
            fs=FSConfig("pfs", 8),
            params=tiny_params,
            cfg=ExecutionConfig(n_cpis=2, warmup=0, compute=True),
            seed=123,
        )
        a = run_spec(spec)
        b = run_spec(spec)
        assert a.to_dict() == b.to_dict()
        assert a.detections is not None

    def test_fault_run_deterministic_and_surfaces_fault_stats(self, small_params):
        spec = small_spec(
            small_params,
            fs=FSConfig("pfs", 8, replication=2),
            cfg=ExecutionConfig(n_cpis=4, warmup=1, read_deadline=5.0),
            server_crash=ServerCrash(server=0, at_time=0.1, down_for=0.5),
        )
        a = run_spec(spec)
        b = run_spec(spec)
        assert a.to_dict() == b.to_dict()
        assert a.disk_stats["outages_per_server"][0] == 1
        assert a.dropped_cpis is not None  # list (possibly empty): deadline set

    def test_fault_free_result_omits_fault_surface(self, small_params):
        res = run_spec(small_spec(small_params))
        assert res.dropped_cpis is None
        assert "outages_per_server" not in res.disk_stats
        assert "dropped_cpis" not in res.to_dict()


class TestSweepRunner:
    def test_jobs_validated(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            SweepRunner(jobs=0)

    def test_in_run_dedup(self, small_params):
        spec = small_spec(small_params)
        runner = SweepRunner(jobs=1)
        r1, r2 = runner.run([spec, spec])
        assert runner.executed == 1
        assert r1.to_dict() == r2.to_dict()

    def test_parallel_matches_serial(self, small_params):
        specs = [
            small_spec(small_params),
            small_spec(small_params, pipeline="combined"),
        ]
        serial = [r.to_dict() for r in SweepRunner(jobs=1).run(specs)]
        parallel = [r.to_dict() for r in SweepRunner(jobs=2).run(specs)]
        assert serial == parallel

    def test_cache_hits(self, small_params, tmp_path):
        spec = small_spec(small_params)
        store = ResultStore(tmp_path / "cache")
        cold = SweepRunner(jobs=1, store=store)
        first = cold.run_one(spec)
        assert (cold.executed, cold.cache_hits, cold.cache_misses) == (1, 0, 1)

        warm = SweepRunner(jobs=1, store=store)
        second = warm.run_one(spec)
        assert (warm.executed, warm.cache_hits, warm.cache_misses) == (0, 1, 0)
        assert first.to_dict() == second.to_dict()

    def test_cached_render_is_byte_identical(self, small_params, tmp_path):
        # The acceptance bar: a cache-served result renders exactly the
        # same text as the freshly simulated one.
        from repro.bench.cases import BenchCase
        from repro.bench.experiments import CellResult, ExperimentResult

        spec = small_spec(small_params)
        store = ResultStore(tmp_path / "cache")

        def render(result):
            case = BenchCase(1, 14, spec.assignment, paragon(), spec.fs)
            return ExperimentResult(
                name="t", cells=[CellResult(case, result)]
            ).render()

        fresh = render(SweepRunner(jobs=1, store=store).run_one(spec))
        cached = render(SweepRunner(jobs=1, store=store).run_one(spec))
        assert fresh == cached


class TestResultStore:
    def test_round_trip(self, small_params, tmp_path):
        spec = small_spec(small_params)
        store = ResultStore(tmp_path / "cache")
        result = run_spec(spec)
        path = store.put(spec, result)
        assert path.exists()
        assert spec in store and len(store) == 1
        assert store.get(spec).to_dict() == result.to_dict()

    def test_scenario_round_trip(self, small_params, tmp_path):
        # get() rehydrates through the spec's own RESULT class: a stored
        # scenario comes back as a ScenarioResult, not as None.
        from repro.scenario import (
            ScenarioResult, ScenarioSpec, TenantSpec, run_scenario,
        )

        a = NodeAssignment.balanced(small_params, 14)
        spec = ScenarioSpec(
            tenants=(TenantSpec(a, cfg=FAST),
                     TenantSpec(a, pipeline="separate-io", cfg=FAST)),
            fs=FSConfig("pfs", 4), params=small_params,
        )
        store = ResultStore(tmp_path / "cache")
        result = run_scenario(spec)
        store.put(spec, result)
        assert spec in store
        back = store.get(spec)
        assert isinstance(back, ScenarioResult)
        assert back.to_dict() == result.to_dict()

    @pytest.mark.parametrize("edit", ["unknown_key", "missing_key"])
    def test_undecodable_result_is_a_miss(self, small_params, tmp_path, edit):
        spec = small_spec(small_params)
        store = ResultStore(tmp_path / "cache")
        store.put(spec, run_spec(spec))
        path = store.path_for(spec.spec_hash())
        payload = json.loads(path.read_text())
        if edit == "unknown_key":
            payload["result"]["dropped_cpi"] = []  # misspelled dropped_cpis
        else:
            del payload["result"]["measurement"]
        path.write_text(json.dumps(payload))
        assert store.get_dict(spec) is not None
        assert store.get(spec) is None

    def test_corrupt_entry_is_a_miss(self, small_params, tmp_path):
        spec = small_spec(small_params)
        store = ResultStore(tmp_path / "cache")
        store.put(spec, run_spec(spec))
        store.path_for(spec.spec_hash()).write_text("{not json")
        assert store.get(spec) is None

    def test_spec_mismatch_is_a_miss(self, small_params, tmp_path):
        # A hash collision (or hand-edited entry) must never serve a
        # result for the wrong spec: the embedded spec is verified.
        spec = small_spec(small_params)
        other = small_spec(small_params, pipeline="combined")
        store = ResultStore(tmp_path / "cache")
        store.put(spec, run_spec(spec))
        payload = json.loads(store.path_for(spec.spec_hash()).read_text())
        store.path_for(other.spec_hash()).write_text(json.dumps(payload))
        assert store.get(other) is None

    def test_stale_substrate_is_a_miss(self, small_params, tmp_path, monkeypatch):
        # Satellite fix: editing the simulator must invalidate cached
        # results instead of silently serving stale physics.
        import repro.bench.store as store_mod

        spec = small_spec(small_params)
        store = ResultStore(tmp_path / "cache")
        store.put(spec, run_spec(spec))
        assert store.get(spec) is not None
        # Simulate "a substrate file changed since this entry was written":
        # the running process now computes a different fingerprint.
        monkeypatch.setattr(store_mod, "_fingerprint_cache", "f" * 64)
        assert store.get(spec) is None

    def test_fingerprint_tracks_substrate_bytes_and_schema(self, tmp_path):
        from repro.bench.store import _compute_fingerprint

        f = tmp_path / "kernel.py"
        f.write_text("a = 1\n")
        before = _compute_fingerprint([f], 1)
        f.write_text("a = 2\n")
        after = _compute_fingerprint([f], 1)
        assert before != after
        assert _compute_fingerprint([f], 2) != after  # schema folds in too

    def test_substrate_fingerprint_memoized(self):
        from repro.bench.store import substrate_fingerprint

        a = substrate_fingerprint()
        assert a == substrate_fingerprint()
        assert len(a) == 64

    @pytest.mark.parametrize("module, covered", [
        ("sim/kernel.py", True),
        ("machine/mesh.py", True),
        ("mpi/communicator.py", True),
        ("pfs/pfs.py", True),
        ("io/fileset.py", True),
        ("core/bodies.py", True),
        ("strategies/readers.py", True),
        ("scenario/executor.py", True),
        ("obs/sampler.py", True),
        ("stap/costs.py", True),
        ("trace/collector.py", True),
        ("bench/engine.py", True),
        ("service/scheduler.py", False),
        ("analysis/sweep.py", False),
    ])
    def test_fingerprint_covers_every_executed_package(
        self, tmp_path, module, covered
    ):
        # A store must not serve a result simulated by code that has
        # since changed anywhere on the cell's execution path; edits to
        # the service or the analyzer leave results valid.
        import shutil

        import repro
        from repro.bench.engine import SPEC_SCHEMA
        from repro.bench.store import _compute_fingerprint, _substrate_files

        root = tmp_path / "repro"
        shutil.copytree(
            os.path.dirname(repro.__file__), root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )

        def fingerprint():
            return _compute_fingerprint(_substrate_files(root), SPEC_SCHEMA)

        before = fingerprint()
        target = root / module
        target.write_bytes(target.read_bytes() + b"#")
        assert (fingerprint() != before) is covered

    def test_entries_and_clear(self, small_params, tmp_path):
        spec = small_spec(small_params)
        store = ResultStore(tmp_path / "cache")
        store.put(spec, run_spec(spec))
        (entry,) = store.entries()
        assert entry["hash"] == spec.spec_hash()
        assert entry["pipeline"] == "embedded"
        assert entry["throughput"] > 0
        assert store.clear() == 1
        assert len(store) == 0

    def test_entries_carry_size_and_mtime(self, small_params, tmp_path):
        spec = small_spec(small_params)
        store = ResultStore(tmp_path / "cache")
        store.put(spec, run_spec(spec))
        (entry,) = store.entries()
        assert entry["size_bytes"] == store.path_for(
            spec.spec_hash()).stat().st_size
        assert entry["size_bytes"] > 0
        assert entry["mtime"] > 0

    def test_summary_totals(self, small_params, tmp_path):
        from repro.bench.store import STORE_SCHEMA

        store = ResultStore(tmp_path / "cache")
        assert store.summary() == {
            "entries": 0, "total_bytes": 0, "schema": STORE_SCHEMA,
        }
        for seed in (0, 1):
            spec = small_spec(small_params, seed=seed)
            store.put(spec, run_spec(spec))
        s = store.summary()
        assert s["entries"] == 2
        assert s["total_bytes"] == sum(
            e["size_bytes"] for e in store.entries()
        )


class TestStoreConcurrentWriters:
    """Satellite: first-write-wins puts and orphaned-tmp cleanup."""

    def test_first_write_wins_skips_rewrite(self, small_params, tmp_path):
        spec = small_spec(small_params)
        store = ResultStore(tmp_path / "cache")
        result = run_spec(spec)
        target = store.put(spec, result)
        stamp = (target.stat().st_mtime_ns, target.stat().st_ino)
        store.put(spec, result)   # concurrent-writer replay: no-op
        assert (target.stat().st_mtime_ns, target.stat().st_ino) == stamp
        assert store.get(spec).to_dict() == result.to_dict()

    def test_stale_entry_is_overwritten(self, small_params, tmp_path):
        # First-write-wins applies only to *valid* entries: an entry
        # with an outdated substrate fingerprint must be replaced.
        spec = small_spec(small_params)
        store = ResultStore(tmp_path / "cache")
        result = run_spec(spec)
        target = store.put(spec, result)
        payload = json.loads(target.read_text())
        payload["substrate"] = "f" * 64
        target.write_text(json.dumps(payload))
        store.put(spec, result)
        assert store.get(spec) is not None

    def test_concurrent_puts_from_processes(self, small_params, tmp_path):
        # Many writers, one hash: all must succeed and the entry must
        # be valid afterwards (atomic rename, identical content).
        import multiprocessing

        spec = small_spec(small_params)
        store = ResultStore(tmp_path / "cache")
        result = run_spec(spec)
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(target=_put_once,
                        args=(str(tmp_path / "cache"), spec.to_dict(),
                              result.to_dict()))
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert store.get(spec).to_dict() == result.to_dict()
        assert list((tmp_path / "cache").glob("*.tmp")) == []

    def test_orphaned_tmp_swept_on_open(self, small_params, tmp_path):
        # Satellite regression: a temp file left by a kill -9'd writer
        # is removed when the store is next opened; fresh temps (live
        # writers) are left alone.
        root = tmp_path / "cache"
        root.mkdir()
        orphan = root / ".deadbeef.json.12345.1.tmp"
        orphan.write_text("{truncated")
        old = time.time() - 3600
        os.utime(orphan, (old, old))
        fresh = root / ".cafef00d.json.99999.2.tmp"
        fresh.write_text("{in-progress")

        store = ResultStore(root)
        assert not orphan.exists()
        assert fresh.exists()
        # and the store works normally afterwards
        spec = small_spec(small_params)
        store.put(spec, run_spec(spec))
        assert spec in store

    def test_sweep_orphans_returns_count(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        store = ResultStore(root)   # opened before the writer died
        for i in range(3):
            p = root / f".h{i}.json.1.{i}.tmp"
            p.write_text("x")
            os.utime(p, (1, 1))
        assert store.sweep_orphans() == 3
        assert store.sweep_orphans() == 0


def _put_once(root, spec_dict, result_dict):
    from repro.bench.engine import ExperimentSpec
    from repro.bench.store import ResultStore

    ResultStore(root).put_dict(ExperimentSpec.from_dict(spec_dict),
                               result_dict)


class TestDriverReuse:
    def test_table4_and_fig8_reuse_warm_store(self, small_params, tmp_path):
        from repro.bench.experiments import (
            run_fig8,
            run_table1,
            run_table3,
            run_table4,
        )

        store = ResultStore(tmp_path / "cache")
        warmup = SweepRunner(jobs=1, store=store)
        run_table1(small_params, FAST, runner=warmup)
        run_table3(small_params, FAST, runner=warmup)
        assert warmup.executed == 18

        warm = SweepRunner(jobs=1, store=store)
        t4 = run_table4(small_params, FAST, runner=warm)
        fig8 = run_fig8(small_params, FAST, runner=warm)
        assert warm.executed == 0
        assert warm.cache_hits == 36      # both drivers re-read the grids
        assert t4.improvements
        assert fig8.render()

    def test_cell_keyerror_lists_available(self, small_params):
        from repro.bench.experiments import run_table1

        exp = run_table1(small_params, FAST)
        with pytest.raises(KeyError) as exc:
            exp.cell("PFS sf=999", 1)
        msg = str(exc.value)
        assert "PFS sf=999" in msg
        assert "available" in msg and "PFS sf=16" in msg
