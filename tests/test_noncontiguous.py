"""Noncontiguous-access strategy family + fault-path bug sweep.

Covers the PR's tentpole — list I/O (``read_list``/``iread_list``),
ROMIO-style hints on :class:`FSConfig`, and ViPIOS-style server-directed
placement — plus regression tests for the three fault-path bugs:

* a queued resource requester interrupted while waiting used to pin its
  slot forever (``Resource.release`` granted the dead waiter);
* ``IOServer.schedule_outage(at_time=...)`` documented absolute time but
  slept ``at_time`` *relative* to when the arming process ran;
* a timed-out service attempt abandoned the server process but let it
  run to completion, silently inflating ``bytes_shipped`` — now counted
  separately as ``duplicate_ships`` (``docs/fault_model.md``).
"""

import hashlib
import json

import pytest

from repro.bench.engine import ExperimentSpec, run_spec
from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig
from repro.core.pipeline import NodeAssignment
from repro.errors import (
    ConfigurationError,
    ListIOUnsupportedError,
    NoSuchFileError,
    PipelineError,
    ReproError,
    RetriesExhaustedError,
)
from repro.machine.presets import generic_cluster
from repro.pfs import PFS, PIOFS, DiskSpec, OpenMode, RetryPolicy
from repro.pfs.stripe import StripeLayout
from repro.sim.kernel import Kernel
from repro.sim.process import Interrupt
from repro.sim.resources import PriorityResource, Resource


def make_fs(cls=PFS, sf=4, n_compute=4, unit=1024, disk=None, retry=None):
    k = Kernel()
    m = generic_cluster().build(k, n_compute=n_compute, n_io=sf)
    fs = cls(
        m,
        stripe_unit=unit,
        stripe_factor=sf,
        disk=disk or DiskSpec(50e6, 1e-3),
        retry=retry,
    )
    return k, fs


def run(k, gen):
    """Drive a process generator to completion; return value or raise."""
    out = {}

    def wrapper():
        try:
            out["value"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - tests inspect the error
            out["error"] = exc

    k.process(wrapper())
    k.run()
    if "error" in out:
        raise out["error"]
    return out.get("value")


# ---------------------------------------------------------------------------
# Bugfix 1: interrupted-while-queued waiters must not pin resource slots.
# ---------------------------------------------------------------------------
class TestStaleWaiterSlotLeak:
    def _holder(self, kernel, resource, hold):
        def body():
            yield resource.request()
            yield kernel.timeout(hold)
            resource.release()

        return kernel.process(body())

    def _queued(self, kernel, resource, **req_kw):
        """A process that queues on ``resource`` and absorbs an interrupt."""

        def body():
            try:
                yield resource.request(**req_kw)
            except Interrupt:
                return "interrupted"
            resource.release()
            return "granted"

        return kernel.process(body())

    def test_interrupted_queued_requester_frees_the_slot(self, kernel):
        r = Resource(kernel, capacity=1)
        self._holder(kernel, r, hold=2.0)
        victim = self._queued(kernel, r)

        def interrupter():
            yield kernel.timeout(1.0)
            victim.interrupt()

        kernel.process(interrupter())
        kernel.run()
        # Pre-fix: release() granted the dead waiter and in_use stuck at 1.
        assert victim.value == "interrupted"
        assert r.in_use == 0

    def test_slot_stays_usable_after_skipping_dead_waiter(self, kernel):
        r = Resource(kernel, capacity=1)
        self._holder(kernel, r, hold=2.0)
        victim = self._queued(kernel, r)
        survivor = self._queued(kernel, r)  # queued behind the victim

        def interrupter():
            yield kernel.timeout(1.0)
            victim.interrupt()

        kernel.process(interrupter())
        kernel.run()
        assert victim.value == "interrupted"
        assert survivor.value == "granted"
        assert r.in_use == 0

    def test_priority_resource_skips_interrupted_waiter(self, kernel):
        r = PriorityResource(kernel, capacity=1)
        self._holder(kernel, r, hold=2.0)
        victim = self._queued(kernel, r, priority=0)
        survivor = self._queued(kernel, r, priority=5)

        def interrupter():
            yield kernel.timeout(1.0)
            victim.interrupt()

        kernel.process(interrupter())
        kernel.run()
        assert victim.value == "interrupted"
        assert survivor.value == "granted"
        assert r.in_use == 0

    def test_unyielded_request_is_still_granted(self, kernel):
        # The defunct-waiter detection must not misfire on a request that
        # simply has not been yielded yet (no listener != abandoned).
        r = Resource(kernel, capacity=1)
        r.request()
        ev = r.request()
        r.release()
        assert ev.triggered
        assert r.in_use == 1

    def test_disk_queue_survives_interrupted_requester(self):
        # Integration shape: a reader waiting behind a slow request is
        # interrupted (e.g. a deadline path tearing it down); the disk
        # must keep serving everyone else afterwards.
        k, fs = make_fs(sf=1, disk=DiskSpec(bandwidth=1e6, overhead=0.0))
        fs.create("p", phantom_size=8192)
        h = fs.open("p", 0, mode=OpenMode.M_ASYNC)
        slow = k.process(fs.read(h, 0, 100_000))  # ~0.1 s on the disk

        def victim_body():
            try:
                yield from fs.read(h, 0, 1024)
            except Interrupt:
                pass

        victim = k.process(victim_body())

        def interrupter():
            yield k.timeout(0.05)
            victim.interrupt()

        k.process(interrupter())
        k.run()
        assert slow.ok
        srv = fs.servers[0]
        # The disk slot drained: a fresh read is serviced immediately.
        run(k, fs.read(h, 0, 1024))
        assert srv._disk_res.in_use == 0


# ---------------------------------------------------------------------------
# Bugfix 2: schedule_outage(at_time=...) is an absolute simulated time.
# ---------------------------------------------------------------------------
class TestOutageAbsoluteTime:
    def test_outage_armed_late_fires_at_absolute_time(self):
        k, fs = make_fs(sf=1)
        srv = fs.servers[0]

        def armer():
            yield k.timeout(1.0)
            srv.schedule_outage(at_time=3.0, down_for=1.0)

        k.process(armer())
        # Pre-fix the outage landed at t=4.0 (1.0 + 3.0 relative sleep).
        k.run(until=2.5)
        assert srv.up
        k.run(until=3.5)
        assert not srv.up
        k.run(until=4.5)
        assert srv.up and srv.outages == 1

    def test_outage_in_the_past_fires_immediately(self):
        k, fs = make_fs(sf=1)
        srv = fs.servers[0]

        def armer():
            yield k.timeout(1.0)
            srv.schedule_outage(at_time=0.5, down_for=None)
            yield k.timeout(0.0)
            assert not srv.up  # down at the arming instant, not 0.5 later

        k.process(armer())
        k.run()
        assert not srv.up and srv.outages == 1


# ---------------------------------------------------------------------------
# Bugfix 3: late successes of abandoned attempts are duplicate ships.
# ---------------------------------------------------------------------------
class TestDuplicateShipAccounting:
    def test_timed_out_attempts_count_duplicates(self):
        # 1 KB/s disk: a 4096-byte unit takes ~4 s, far past the 0.1 s
        # request timeout.  Both attempts are abandoned by the client but
        # run to completion on the disk and ship their payload anyway.
        disk = DiskSpec(bandwidth=1e3, overhead=0.0)
        policy = RetryPolicy(max_attempts=2, request_timeout=0.1, backoff_base=0.01)
        k, fs = make_fs(sf=1, unit=8192, disk=disk, retry=policy)
        fs.create("p", phantom_size=4096)
        h = fs.open("p", 0)
        with pytest.raises(RetriesExhaustedError):
            run(k, fs.read(h, 0, 4096))
        srv = fs.servers[0]
        assert srv.duplicate_ships == 2
        assert srv.duplicate_bytes == 8192
        # The inflation the counter makes visible: the client consumed
        # nothing, yet bytes crossed the wire twice.
        assert srv.bytes_shipped == 8192

    def test_fault_free_run_has_no_duplicates(self):
        k, fs = make_fs(sf=2)
        fs.create("p", phantom_size=65536)
        h = fs.open("p", 0)
        run(k, fs.read(h, 0, 65536))
        assert all(s.duplicate_ships == 0 for s in fs.servers)
        assert all(s.duplicate_bytes == 0 for s in fs.servers)

    def test_executor_exposes_duplicate_ships(self, small_params):
        spec = ExperimentSpec(
            assignment=NodeAssignment.balanced(small_params, 14),
            pipeline="embedded-io",
            machine="paragon",
            fs=FSConfig("pfs", 8, replication=2),
            params=small_params,
            cfg=ExecutionConfig(n_cpis=2, warmup=0),
        )
        result = run_spec(spec)
        per_server = result.disk_stats["duplicate_ships_per_server"]
        assert len(per_server) == 8
        assert sum(per_server) == 0  # no faults injected


# ---------------------------------------------------------------------------
# Server-directed placement arithmetic.
# ---------------------------------------------------------------------------
class TestPlacement:
    def test_declared_units_form_contiguous_blocks(self):
        layout = StripeLayout(1024, 4)
        # Units 2..5: round-robin homes 2,3,0,1 -> remapped 0,1,2,3.
        placement = layout.placement_for_extents([(2048, 4096)])
        assert placement == {2: 0, 3: 1, 4: 2, 5: 3}

    def test_fraction_of_pattern_lands_on_minimal_directory_set(self):
        layout = StripeLayout(1024, 4)
        # 16 declared units over 4 directories: 4 consecutive units each.
        placement = layout.placement_for_extents([(0, 16 * 1024)])
        assert placement == {u: u // 4 for u in range(16)}
        # One client's quarter of the pattern touches exactly 1 directory
        # (round-robin would touch all 4).
        runs = layout.map_range(0, 4 * 1024, placement)
        assert len(runs) == 1 and runs[0].n_units == 4

    def test_empty_pattern_means_no_remap(self):
        layout = StripeLayout(1024, 4)
        assert layout.placement_for_extents([]) == {}
        assert layout.placement_for_extents([(0, 0)]) == {}

    def test_undeclared_units_keep_round_robin(self):
        layout = StripeLayout(1024, 4)
        placement = layout.placement_for_extents([(0, 2048)])  # units 0,1
        runs = layout.map_range(8 * 1024, 1024, placement)  # unit 8
        assert [r.directory for r in runs] == [8 % 4]

    def test_declare_access_is_idempotent(self):
        _, fs = make_fs()
        fs.create("p", phantom_size=16 * 1024)
        first = fs.declare_access("p", [(0, 8192)])
        again = fs.declare_access("p", [(0, 8192)])
        assert first == again
        assert fs.declared_placement("p") == first

    def test_redeclaring_a_new_pattern_replaces_the_remap(self):
        _, fs = make_fs()
        fs.create("p", phantom_size=16 * 1024)
        fs.declare_access("p", [(0, 4096)])
        second = fs.declare_access("p", [(4096, 4096)])
        assert fs.declared_placement("p") == second
        assert set(second) == {4, 5, 6, 7}

    def test_declare_on_missing_file_rejected(self):
        _, fs = make_fs()
        with pytest.raises(NoSuchFileError):
            fs.declare_access("nope", [(0, 1024)])

    def test_remap_preserves_file_contents(self):
        k, fs = make_fs()
        fs.create("p")
        fs.declare_access("p", [(0, 8 * 1024)])
        h = fs.open("p", 0)
        payload = bytes(range(256)) * 32  # 8 KiB
        run(k, fs.write(h, 0, payload))
        assert run(k, fs.read(h, 0, len(payload))) == payload


# ---------------------------------------------------------------------------
# The list-I/O call.
# ---------------------------------------------------------------------------
class TestReadList:
    def _ready_fs(self, **kw):
        k, fs = make_fs(**kw)
        fs.create("p")
        h = fs.open("p", 0, mode=OpenMode.M_ASYNC)
        payload = bytes(range(256)) * 32  # 8 KiB over 8 units
        run(k, fs.write(h, 0, payload))
        return k, fs, h, payload

    def test_piofs_has_no_list_io(self):
        k, fs = make_fs(cls=PIOFS)
        assert not fs.supports_list_io
        fs.create("p", phantom_size=4096)
        h = fs.open("p", 0)
        with pytest.raises(ListIOUnsupportedError):
            run(k, fs.read_list([(h, 0, 1024)]))

    def test_one_request_per_directory(self):
        k, fs, h, payload = self._ready_fs()
        served_before = [s.requests_served for s in fs.servers]
        # Four pieces on two directories (units 0,4 -> dir 0; 1,5 -> dir 1).
        accesses = [(h, 0, 1024), (h, 1024, 1024), (h, 4096, 1024), (h, 5120, 1024)]
        out = run(k, fs.read_list(accesses))
        assert out == [payload[o : o + n] for _, o, n in accesses]
        served = [
            s.requests_served - b for s, b in zip(fs.servers, served_before)
        ]
        # One batched request per touched directory; read() would issue 4.
        assert served == [1, 1, 0, 0]

    def test_max_runs_hint_splits_batches(self):
        k, fs, h, payload = self._ready_fs()
        fs.hints["list_io_max_runs"] = 1
        served_before = [s.requests_served for s in fs.servers]
        accesses = [(h, 0, 1024), (h, 1024, 1024), (h, 4096, 1024), (h, 5120, 1024)]
        out = run(k, fs.read_list(accesses))
        assert out == [payload[o : o + n] for _, o, n in accesses]
        served = [
            s.requests_served - b for s, b in zip(fs.servers, served_before)
        ]
        assert served == [2, 2, 0, 0]  # one request per piece again

    def test_results_in_input_order_across_files(self):
        k, fs = make_fs()
        fs.create("a")
        fs.create("b")
        ha = fs.open("a", 0, mode=OpenMode.M_ASYNC)
        hb = fs.open("b", 0, mode=OpenMode.M_ASYNC)
        run(k, fs.write(ha, 0, b"A" * 4096))
        run(k, fs.write(hb, 0, b"B" * 4096))
        out = run(
            k,
            fs.read_list([(hb, 0, 1024), (ha, 2048, 512), (hb, 3072, 1024)]),
        )
        assert out == [b"B" * 1024, b"A" * 512, b"B" * 1024]

    def test_same_bytes_as_individual_reads(self):
        k, fs, h, payload = self._ready_fs()
        accesses = [(h, 256, 512), (h, 3000, 2000), (h, 7000, 1000)]
        batched = run(k, fs.read_list(accesses))
        individual = [run(k, fs.read(h, o, n)) for _, o, n in accesses]
        assert batched == individual


# ---------------------------------------------------------------------------
# ROMIO-style hints: validation and serialization.
# ---------------------------------------------------------------------------
class TestHints:
    def _spec(self, small_params, **fs_kw):
        fs_kw.setdefault("kind", "pfs")
        fs_kw.setdefault("stripe_factor", 8)
        return ExperimentSpec(
            assignment=NodeAssignment.balanced(small_params, 14),
            pipeline=fs_kw.pop("pipeline", "embedded-io"),
            machine="paragon",
            fs=FSConfig(**fs_kw),
            params=small_params,
            cfg=ExecutionConfig(n_cpis=2, warmup=0),
        )

    @pytest.mark.parametrize("hint", FSConfig.HINT_FIELDS)
    def test_hint_below_one_rejected(self, small_params, hint):
        with pytest.raises(ConfigurationError, match="must be >= 1"):
            run_spec(self._spec(small_params, **{hint: 0}))

    def test_list_io_hint_rejected_on_piofs(self, small_params):
        with pytest.raises(ConfigurationError, match="list_io_max_runs"):
            run_spec(self._spec(small_params, kind="piofs", list_io_max_runs=4))

    def test_list_io_strategy_rejected_on_piofs(self, small_params):
        with pytest.raises(PipelineError, match="list-I/O"):
            run_spec(self._spec(small_params, kind="piofs", pipeline="list-io"))

    def test_sieve_hint_accepted_on_piofs(self, small_params):
        # Data sieving is plain read() underneath: valid on both systems.
        result = run_spec(
            self._spec(
                small_params,
                kind="piofs",
                pipeline="data-sieving",
                sieve_buffer_size=128 * 1024,
            )
        )
        assert result.throughput > 0

    def test_default_config_serializes_without_hint_keys(self):
        d = FSConfig().to_dict()
        for hint in FSConfig.HINT_FIELDS:
            assert hint not in d  # golden spec hashes depend on this

    def test_set_hints_round_trip(self):
        cfg = FSConfig("pfs", 16, cb_nodes=4, list_io_max_runs=8)
        d = cfg.to_dict()
        assert d["cb_nodes"] == 4 and d["list_io_max_runs"] == 8
        assert "sieve_buffer_size" not in d
        assert FSConfig.from_dict(d) == cfg

    def test_cli_hint_parsing(self):
        from repro.cli import _parse_hints

        assert _parse_hints(["cb_nodes=4", "sieve_buffer_size=65536"]) == {
            "cb_nodes": 4,
            "sieve_buffer_size": 65536,
        }
        with pytest.raises(ReproError, match="unknown hint"):
            _parse_hints(["bogus=1"])
        with pytest.raises(ReproError, match="integer"):
            _parse_hints(["cb_nodes=many"])


# ---------------------------------------------------------------------------
# Strategy equivalence: same spec, compute mode, byte-identical answers.
# ---------------------------------------------------------------------------
STRATEGIES = ("embedded-io", "data-sieving", "list-io", "server-directed")


@pytest.fixture(scope="module")
def compute_results():
    """One compute-mode run per strategy on an identical spec."""
    from repro.stap.params import STAPParams

    params = STAPParams(
        n_channels=8, n_pulses=32, n_ranges=256, n_beams=6, n_hard_bins=8,
        n_training=64, pulse_len=16, cfar_window=12, cfar_guard=3, pfa=1e-6,
    )
    assignment = NodeAssignment.balanced(params, 14)
    cfg = ExecutionConfig(n_cpis=4, warmup=1, compute=True)
    out = {}
    for name in STRATEGIES:
        spec = ExperimentSpec(
            assignment=assignment, pipeline=name, machine="paragon",
            fs=FSConfig("pfs", 8), params=params, cfg=cfg, seed=7,
        )
        out[name] = run_spec(spec)
    return out


class TestStrategyEquivalence:
    def _detections_digest(self, result):
        payload = json.dumps(result.to_dict()["detections"], sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def test_detections_byte_identical(self, compute_results):
        digests = {
            name: self._detections_digest(r)
            for name, r in compute_results.items()
        }
        assert len(set(digests.values())) == 1, digests

    def test_list_io_issues_strictly_fewer_requests(self, compute_results):
        reqs = {
            name: sum(r.disk_stats["requests_per_server"])
            for name, r in compute_results.items()
        }
        assert reqs["list-io"] < reqs["embedded-io"]
        # The whole 4-file window collapses into one request per
        # directory: a 4x reduction on this round-robin fileset.
        assert reqs["list-io"] * 4 == reqs["embedded-io"]

    def test_sieving_pad_overhead_pinned(self, compute_results):
        exact = compute_results["embedded-io"].disk_stats["bytes_served"]
        sieved = compute_results["data-sieving"].disk_stats["bytes_served"]
        # Whole-stripe-unit widening on this spec reads exactly 512 KiB
        # of pad the other strategies never touch.
        assert sieved - exact == 512 * 1024

    def test_list_io_and_server_directed_read_exact_bytes(self, compute_results):
        exact = compute_results["embedded-io"].disk_stats["bytes_served"]
        for name in ("list-io", "server-directed"):
            assert compute_results[name].disk_stats["bytes_served"] == exact
