"""Tests for the declarative experiment engine (spec / runner / store)."""

import json
import os
import time

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
