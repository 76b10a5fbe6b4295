"""Tests for the I/O strategy layer: registry, readers, validation.

The migration pins below are the contract of the refactor — the four
legacy access methods moved onto the strategy/reader seam must stay
*bit-identical*, down to the full serialized result hash, on both the
async (PFS) and sync-fallback (PIOFS) paths.
"""

import hashlib
import json

import pytest

from repro.bench.engine import (
    LEGACY_STRATEGY,
    PIPELINES,
    ExperimentSpec,
    run_spec,
)
from repro.core.context import ExecutionConfig, TaskContext
from repro.core.executor import FSConfig, PipelineExecutor
from repro.core.graph import DependencyKind, Edge
from repro.core.pipeline import (
    NodeAssignment,
    PipelineSpec,
    build_embedded_pipeline,
    build_separate_io_pipeline,
    combine_pulse_cfar,
)
from repro.core.task import TaskKind, TaskSpec
from repro.errors import ConfigurationError, PipelineError
from repro.machine.presets import paragon
from repro.strategies import (
    IOStrategy,
    ListIOReader,
    SlabReader,
    TwoPhaseReader,
    get_strategy,
    register,
    strategy_for_spec,
    strategy_names,
)
from repro.strategies.readers import DROPPED

FAST = ExecutionConfig(n_cpis=4, warmup=1)

#: Full-result hashes captured on the pre-refactor reader (the old
#: ``_SlabReader``), spec: balanced small_params on 14 nodes, paragon,
#: stripe factor 8, 4 CPIs / 1 warmup, seed 0.  PIOFS rows exercise the
#: blocking (depth 0) reads; PFS rows the 1-deep posted window.
PRE_REFACTOR_HASHES = {
    ("embedded", "piofs"):
        "68e2bfe2f2fd25796cb2cccead890d34e5d88ead62492e37279bae9ae83f89df",
    ("embedded", "pfs"):
        "8184ef29248c3ed2a7b93cdcca6976f9c80991a1fe78ec5eb1d593d3b6be8f15",
    ("separate", "piofs"):
        "1e9e5bfb30c26415def499be5439708be784f8f83d2f5b3983924a4eba390d71",
    ("separate", "pfs"):
        "ea56a0c67c40bec676c6dae2e16931265e754961e65cee3ed8c5121834c0acb6",
    ("combined", "pfs"):
        "ede32c517787e6f1b140c9fbee0f0318a71d66a2a298e15bc75286d59f7802b8",
}

#: Full-result hashes of the same small spec on the IBM SP switch
#: (``machine="sp"``, PIOFS), pinned before the multistage network gained
#: its inlined port grants; every other pin above runs on the Paragon mesh.
SP_HASHES = {
    "embedded":
        "7b1a8e4c97d889b376818fb7b7411a694c99ba75070557bdee5fa9041ac2176b",
    "separate":
        "cafbf67d90fe06df660695e0b66bb6e53eda56de1194b88b6c9324ff3305855e",
    "collective-two-phase":
        "7f60640d86dee70a2c5a3a51ec573c9e10dac468d9edd6bf49e4e36febba310f",
}


#: Deadline pair of :data:`DEADLINE_HASHES`: stripe factor 4 and a 50 ms
#: read deadline, under which every cell both drops and completes reads
#: (the trailing comment is the dropped (node, CPI) count of 12 reads).
DEADLINE_SF = 4
DEADLINE_S = 0.05

#: Full-result hashes of every deadline-capable strategy under
#: (:data:`DEADLINE_SF`, :data:`DEADLINE_S`), the small spec otherwise;
#: captured on the sync/async/sieving reader classes before they
#: collapsed into one ``SlabReader``.
DEADLINE_HASHES = {
    ("paragon", "data-sieving"):
        "39e78827674b12215a6aa2c56f06a56457c95fcad6792bdd975d483801d80401",  # 6
    ("paragon", "embedded-io"):
        "11ebe85e879c24c293fb6f5670cfc195dae9ad62ec163a52159e03831f89b034",  # 3
    ("paragon", "embedded-io+combined"):
        "d6549a3b1db1d93c8f3c01945b63b17b2ab24dc5354f4bafe90271ff48700dfb",  # 3
    ("paragon", "embedded-prefetch2"):
        "50df689054992312f30630dbb0690940d0cec06dbd66bb2fa407644e15c7c0db",  # 4
    ("paragon", "separate-io"):
        "2d3e7ff82daab7b695625c73f567cad32d9c71388b7adc384d6959094b455067",  # 11
    ("paragon", "separate-io+combined"):
        "2267778fe3a89421157cf120823ded67d49075b81b36fd6f105eca6c35c97b67",  # 11
    ("paragon", "server-directed"):
        "aac4691d5c9a60e3dd61917902a7f6af9ff4d557b4334780fc739464a63df50b",  # 2
    ("sp", "data-sieving"):
        "a12c715ff8e25770abb1c86ec5392625a98aaaf536dd0e5d987c35378e0e06c2",  # 11
    ("sp", "embedded-io"):
        "333daa4f024a52e6aecb944a860d090463f270a1ac81098d934785321e3e7267",  # 11
    ("sp", "embedded-io+combined"):
        "ba382942ff38cdb65a8b9f04accc4ccfafd9bdda1dc6b20fb5f56ea3bbb01d63",  # 11
    ("sp", "separate-io"):
        "255bdbf713ae980f3ed56c3045156b04cd1f3a49e09b187a702956a6f610c118",  # 11
    ("sp", "separate-io+combined"):
        "f19b6462fee539c5b6e760556c82821457d8e2d89d5e3dda3e82377fead9ecb2",  # 11
    ("sp", "server-directed"):
        "c4e0a9f067b8af39465a4dbb1a5fb8015879b49ac981483187df25e634b8b783",  # 8
}


#: Full-result hashes of the small spec in threaded mode (receive,
#: compute and send as concurrent node threads, so the credit wait sits
#: in the send thread), on the Paragon mesh with PFS and on the SP
#: switch with PIOFS; captured before the plan listed each inter-task
#: edge once as one message table.
THREADED_HASHES = {
    ("paragon", "embedded-io"):
        "d541c1e39f4091a438ac55ddd337fdc5c8b1ceaa8a07e5c5cce6d3313ba9784f",
    ("paragon", "embedded-io+combined"):
        "21dbcc636f77ce3e2cb23996e7ff1a697ad482e44a2efaa305cc7f4baf650bc5",
    ("paragon", "separate-io"):
        "f7d37a7ff3de8ffe19895cd06f9adb5d1fcb45fe1c2962520e179e574177550f",
    ("sp", "embedded-io"):
        "c92c108d28b731c99d9c9d11e7766f849f3fdf48db404bd337c62869253bb4fe",
    ("sp", "embedded-io+combined"):
        "1188de01ee19b6aadc4765a64d710db11d87046372090fc4c560db9c9b030246",
    ("sp", "separate-io"):
        "8b12dde852c684ce7bdb373df23062b0a8a3cb45ce9fa347e9b2a96a00d509b5",
}

#: More hard-weight (10) and hard-beamforming (9) nodes than the small
#: spec's 8 hard bins: the surplus nodes own no rows and take no part.
EMPTY_PARTITION_ASSIGNMENT = NodeAssignment(
    doppler=2, easy_weight=1, hard_weight=10, easy_bf=2, hard_bf=9,
    pulse_compr=2, cfar=1,
)
#: Full-result hash of the embedded-io small spec on that assignment,
#: captured alongside :data:`THREADED_HASHES`.
EMPTY_PARTITION_HASH = (
    "2b54ac29169eec65948c29487e8efb4a126c231d27b33d2edad2d0cc104f0714"
)

def small_spec(small_params, **kw):
    kw.setdefault("assignment", NodeAssignment.balanced(small_params, 14))
    kw.setdefault("machine", "paragon")
    kw.setdefault("fs", FSConfig("pfs", 8))
    kw.setdefault("params", small_params)
    kw.setdefault("cfg", FAST)
    kw.setdefault("seed", 0)
    return ExperimentSpec(**kw)


def result_hash(result) -> str:
    return hashlib.sha256(
        json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


class TestRegistry:
    def test_at_least_five_strategies(self):
        names = strategy_names()
        assert len(names) >= 5
        for expected in ("embedded-io", "separate-io", "embedded-io+combined",
                         "separate-io+combined", "collective-two-phase",
                         "data-sieving", "embedded-prefetch2"):
            assert expected in names

    def test_names_sorted_and_labels_stable(self):
        names = strategy_names()
        assert names == sorted(names)
        for name in names:
            s = get_strategy(name)
            assert s.label() == name
            assert s.describe()  # every strategy documents itself

    def test_unknown_name_rejected_with_choices(self):
        with pytest.raises(ConfigurationError, match="embedded-io"):
            get_strategy("no-such-strategy")

    def test_spec_name_resolution(self):
        assert strategy_for_spec("embedded-io").name == "embedded-io"
        assert strategy_for_spec("my-custom-pipeline") is None

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            @register
            class Clash(IOStrategy):
                name = "embedded-io"

    def test_unnamed_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="no name"):
            @register
            class Anonymous(IOStrategy):
                pass


class TestSpecConstruction:
    """Strategy build_spec reproduces the legacy builders exactly."""

    LEGACY = {
        "embedded-io": build_embedded_pipeline,
        "separate-io": build_separate_io_pipeline,
        "embedded-io+combined":
            lambda a: combine_pulse_cfar(build_embedded_pipeline(a)),
        "separate-io+combined":
            lambda a: combine_pulse_cfar(build_separate_io_pipeline(a)),
    }

    @pytest.mark.parametrize("name", sorted(LEGACY))
    def test_build_spec_matches_legacy_builder(self, name, small_params):
        a = NodeAssignment.balanced(small_params, 14)
        assert (get_strategy(name).build_spec(a).to_dict()
                == self.LEGACY[name](a).to_dict())

    def test_engine_pipelines_include_registry(self):
        for name in strategy_names():
            assert name in PIPELINES

    def test_legacy_aliases_and_strategy_property(self, small_params):
        for legacy, strategy in LEGACY_STRATEGY.items():
            spec = small_spec(small_params, pipeline=legacy)
            assert spec.strategy == strategy
        spec = small_spec(small_params, pipeline="data-sieving")
        assert spec.strategy == "data-sieving"


class TestValidation:
    def test_async_strategy_rejected_on_piofs_at_build_time(self, small_params):
        a = NodeAssignment.balanced(small_params, 14)
        spec = PIPELINES["embedded-prefetch2"](a)
        with pytest.raises(PipelineError, match="asynchronous"):
            PipelineExecutor(spec, small_params, paragon(),
                             FSConfig("piofs", 8), FAST)

    def test_two_phase_rejects_read_deadline(self, small_params):
        a = NodeAssignment.balanced(small_params, 14)
        spec = PIPELINES["collective-two-phase"](a)
        with pytest.raises(PipelineError, match="read_deadline"):
            PipelineExecutor(
                spec, small_params, paragon(), FSConfig("pfs", 8),
                ExecutionConfig(n_cpis=4, warmup=1, read_deadline=0.5),
            )

    def test_engine_surfaces_validation_errors(self, small_params):
        spec = small_spec(small_params, pipeline="embedded-prefetch2",
                          fs=FSConfig("piofs", 8))
        with pytest.raises(PipelineError, match="embedded-prefetch2"):
            run_spec(spec)


class TestMigrationPins:
    """The refactor is bit-identical to the pre-refactor reader."""

    @pytest.mark.parametrize(
        "pipeline,fs_kind", sorted(PRE_REFACTOR_HASHES))
    def test_pre_refactor_result_hash(self, pipeline, fs_kind, small_params):
        spec = small_spec(small_params, pipeline=pipeline,
                          fs=FSConfig(fs_kind, 8))
        assert (result_hash(run_spec(spec))
                == PRE_REFACTOR_HASHES[(pipeline, fs_kind)])

    @pytest.mark.parametrize("pipeline", sorted(SP_HASHES))
    def test_sp_switch_result_hash(self, pipeline, small_params):
        spec = small_spec(small_params, pipeline=pipeline, machine="sp",
                          fs=FSConfig("piofs", 8))
        assert result_hash(run_spec(spec)) == SP_HASHES[pipeline]

    def test_deadline_cells_cover_every_deadline_strategy(self):
        expected = {
            (machine, name)
            for machine, kind in (("paragon", "pfs"), ("sp", "piofs"))
            for name in strategy_names()
            if get_strategy(name).supports_read_deadline
            and get_strategy(name).missing_capability(kind) is None
        }
        assert set(DEADLINE_HASHES) == expected

    @pytest.mark.parametrize("machine,name", sorted(DEADLINE_HASHES))
    def test_deadline_result_hash(self, machine, name, small_params):
        kind = "pfs" if machine == "paragon" else "piofs"
        spec = small_spec(
            small_params, pipeline=name, machine=machine,
            fs=FSConfig(kind, DEADLINE_SF),
            cfg=ExecutionConfig(n_cpis=4, warmup=1, read_deadline=DEADLINE_S),
        )
        result = run_spec(spec)
        assert 0 < len(result.dropped_cpis) < 12  # drops and completes
        assert result_hash(result) == DEADLINE_HASHES[(machine, name)]

    @pytest.mark.parametrize("machine,name", sorted(THREADED_HASHES))
    def test_threaded_result_hash(self, machine, name, small_params):
        kind = "pfs" if machine == "paragon" else "piofs"
        spec = small_spec(
            small_params, pipeline=name, machine=machine,
            fs=FSConfig(kind, 8),
            cfg=ExecutionConfig(n_cpis=4, warmup=1, threaded=True),
        )
        assert result_hash(run_spec(spec)) == THREADED_HASHES[(machine, name)]

    def test_empty_partition_result_hash(self, small_params):
        spec = small_spec(small_params, pipeline="embedded-io",
                          assignment=EMPTY_PARTITION_ASSIGNMENT)
        assert result_hash(run_spec(spec)) == EMPTY_PARTITION_HASH

    def test_registry_names_alias_legacy_results(self, small_params):
        """'embedded-io' differs from 'embedded' only by spec name."""
        legacy = run_spec(small_spec(small_params, pipeline="embedded"))
        new = run_spec(small_spec(small_params, pipeline="embedded-io"))
        assert new.throughput == legacy.throughput
        assert new.latency == legacy.latency


class TestNewStrategies:
    @pytest.mark.parametrize(
        "pipeline", ["collective-two-phase", "data-sieving"])
    @pytest.mark.parametrize("fs_kind", ["pfs", "piofs"])
    def test_runs_end_to_end_and_deterministic(
            self, pipeline, fs_kind, small_params):
        spec = small_spec(small_params, pipeline=pipeline,
                          fs=FSConfig(fs_kind, 8))
        first = run_spec(spec)
        assert first.throughput > 0
        assert result_hash(run_spec(spec)) == result_hash(first)

    def test_compute_mode_detections_identical_across_strategies(
            self, small_params):
        cfg = ExecutionConfig(n_cpis=3, warmup=1, compute=True)
        reference = None
        for pipeline in ("embedded", "data-sieving", "collective-two-phase"):
            spec = small_spec(small_params, pipeline=pipeline, cfg=cfg, seed=7)
            dets = [d.to_dict() for d in run_spec(spec).detections]
            if reference is None:
                reference = dets
                assert reference  # scenario must actually yield targets
            else:
                assert dets == reference

    def test_sieving_reads_more_bytes_for_same_cube(self, small_params):
        base = run_spec(small_spec(small_params, pipeline="embedded-io"))
        sieve = run_spec(small_spec(small_params, pipeline="data-sieving"))
        two_phase = run_spec(
            small_spec(small_params, pipeline="collective-two-phase"))
        assert (sieve.disk_stats["bytes_served"]
                > base.disk_stats["bytes_served"])
        assert (two_phase.disk_stats["bytes_served"]
                == base.disk_stats["bytes_served"])

    def test_prefetch2_runs_on_pfs(self, small_params):
        result = run_spec(small_spec(small_params,
                                     pipeline="embedded-prefetch2"))
        assert result.throughput > 0


class TestReaderDrain:
    """close() leaves no orphaned PFS requests behind (leak regression)."""

    def _executor(self, small_params, fs_kind="pfs", cfg=FAST):
        spec = PIPELINES["embedded-io"](
            NodeAssignment.balanced(small_params, 14))
        return PipelineExecutor(spec, small_params, paragon(),
                                FSConfig(fs_kind, 8), cfg)

    def _context(self, ex):
        inst = ex.plan.instances["doppler"]
        return TaskContext(
            kernel=ex.kernel, rc=ex.comm.view(inst.ranks[0]), task=inst,
            local=0, plan=ex.plan, cfg=ex.cfg, trace=ex.trace,
            fileset=ex.fileset, node_spec=ex.machine.node(inst.ranks[0]).spec,
            results=ex.results, strategy=ex.strategy,
        )

    def test_close_drains_outstanding_prefetch(self, small_params):
        ex = self._executor(small_params)
        ex.fileset.initialize()
        ctx = self._context(ex)
        rlo, rhi = ex.plan.ranges_doppler.bounds(0)
        seen = {}

        def driver():
            reader = get_strategy("embedded-io").make_reader(ctx, rlo, rhi)
            assert reader.depth == 1
            reader.prefetch(0)
            seen["posted"] = reader.outstanding_requests()
            yield ctx.kernel.timeout(1e-9)  # iread still in flight
            reader.close()
            seen["after_close"] = reader.outstanding_requests()

        ex.kernel.process(driver(), name="driver")
        ex.kernel.run()  # no unobserved failures may surface
        assert seen == {"posted": 1, "after_close": 0}
        assert ex.results["cancelled_reads"] == [("doppler", 0, 0)]

    def test_close_drains_deadline_orphan_sync_reader(self, small_params):
        deadline_cfg = ExecutionConfig(n_cpis=4, warmup=1, read_deadline=1e-9)
        ex = self._executor(small_params, "piofs", deadline_cfg)
        ex.fileset.initialize()
        ctx = self._context(ex)
        rlo, rhi = ex.plan.ranges_doppler.bounds(0)
        seen = {}

        def driver():
            reader = get_strategy("embedded-io").make_reader(ctx, rlo, rhi)
            assert reader.depth == 0
            out = yield from reader.read(0)
            assert out is DROPPED
            seen["orphans"] = reader.outstanding_requests()
            seen["procs"] = [ev for _cpi, ev in reader._inflight()]
            reader.close()
            seen["after_close"] = reader.outstanding_requests()

        ex.kernel.process(driver(), name="driver")
        ex.kernel.run()
        assert seen["orphans"] == 1
        assert seen["after_close"] == 0
        # The interrupt lands on the next kernel step; after the run the
        # orphaned deadline-read process must be gone.
        assert [p.is_alive for p in seen["procs"]] == [False]
        assert ex.results["cancelled_reads"] == [("doppler", 0, 0)]

    #: kind -> (file system, reader factory, depth, reads left in flight).
    #: The blocking reader's in-flight read is a deadline orphan; every
    #: other kind leaves its posted window in flight.
    READER_KINDS = {
        "blocking": ("piofs", SlabReader, 0, 1),
        "depth1": ("pfs", SlabReader, 1, 1),
        "depth2": ("pfs", lambda *a: SlabReader(*a, depth=2), 2, 2),
        "sieve": ("pfs", lambda *a: SlabReader(*a, sieve=True), 1, 1),
        "two-phase": ("pfs", TwoPhaseReader, 1, 1),
        "list-io": ("pfs", ListIOReader, 1, 1),
    }

    @pytest.mark.parametrize("kind", sorted(READER_KINDS))
    def test_close_drains_every_reader_kind(self, kind, small_params):
        fs_kind, make, depth, n_inflight = self.READER_KINDS[kind]
        cfg = ExecutionConfig(n_cpis=4, warmup=1, read_deadline=1e-9)
        ex = self._executor(small_params, fs_kind, cfg)
        ex.fileset.initialize()
        ctx = self._context(ex)
        rlo, rhi = ex.plan.ranges_doppler.bounds(0)
        seen = {}

        def driver():
            reader = make(ctx, rlo, rhi)
            seen["depth"] = reader.depth
            reader.prefetch(0)
            if not reader.depth:
                out = yield from reader.read(0)
                assert out is DROPPED
            seen["events"] = [ev for _cpi, ev in reader._inflight()]
            yield ctx.kernel.timeout(1e-9)  # reads still in flight
            seen["posted"] = reader.outstanding_requests()
            reader.close()
            seen["after_close"] = reader.outstanding_requests()

        ex.kernel.process(driver(), name="driver")
        ex.kernel.run()  # no unobserved failures may surface
        assert seen["depth"] == depth
        assert seen["posted"] == n_inflight
        assert seen["after_close"] == 0
        assert not any(getattr(ev, "is_alive", False) for ev in seen["events"])
        assert ex.results["cancelled_reads"] == [
            ("doppler", 0, cpi) for cpi in range(n_inflight)
        ]

    def test_deadline_drop_run_is_clean_and_deterministic(self, small_params):
        cfg = ExecutionConfig(n_cpis=4, warmup=1, read_deadline=1e-6)
        spec = small_spec(small_params, cfg=cfg,
                          fs=FSConfig("pfs", 1))  # one server: reads stall
        first = run_spec(spec)
        assert first.dropped_cpis  # the tiny deadline must actually trip
        assert result_hash(run_spec(spec)) == result_hash(first)


class TestCombineDedup:
    def test_fan_in_edges_collapse_to_one(self):
        """A task feeding both halves ends with one edge, order kept."""
        sd = DependencyKind.SPATIAL
        spec = PipelineSpec(
            tasks=[
                TaskSpec("doppler", TaskKind.DOPPLER_EMBEDDED_IO, 2),
                TaskSpec("pulse_compr", TaskKind.PULSE_COMPRESSION, 1),
                TaskSpec("cfar", TaskKind.CFAR, 1),
            ],
            edges=[
                Edge("doppler", "pulse_compr", sd),
                Edge("doppler", "cfar", sd),
                Edge("pulse_compr", "cfar", sd),
            ],
            name="fan-in",
        )
        combined = combine_pulse_cfar(spec)
        assert combined.edges == [Edge("doppler", "pc_cfar", sd)]

    def test_distinct_kinds_not_collapsed(self):
        sd, td = DependencyKind.SPATIAL, DependencyKind.TEMPORAL
        spec = PipelineSpec(
            tasks=[
                TaskSpec("doppler", TaskKind.DOPPLER_EMBEDDED_IO, 2),
                TaskSpec("pulse_compr", TaskKind.PULSE_COMPRESSION, 1),
                TaskSpec("cfar", TaskKind.CFAR, 1),
            ],
            edges=[
                Edge("doppler", "pulse_compr", sd),
                Edge("doppler", "cfar", td),
                Edge("pulse_compr", "cfar", sd),
            ],
            name="fan-in-kinds",
        )
        combined = combine_pulse_cfar(spec)
        assert combined.edges == [
            Edge("doppler", "pc_cfar", sd),
            Edge("doppler", "pc_cfar", td),
        ]

    def test_paper_pipelines_unchanged_by_dedup(self, small_params):
        a = NodeAssignment.balanced(small_params, 14)
        combined = combine_pulse_cfar(build_embedded_pipeline(a))
        # The paper graph has no duplicate-producing fan-in: 9 core edges
        # minus the merged-away pulse_compr->cfar edge.
        assert len(combined.edges) == 8
