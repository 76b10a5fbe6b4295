"""Fault-model tests: server outages, flaky disks, retry/failover, replication.

Covers the IOServer up/down state machine, the chained-declustering
replica layout, the client retry/backoff/failover path, the
counting-at-disk-completion accounting fix, and the FS-level open-handle
leak detector (including the RadarWriter regression).
"""

import pytest

from repro.errors import (
    ConfigurationError,
    FlakyDiskError,
    IOFaultError,
    RetriesExhaustedError,
    ServerDownError,
)
from repro.io.fileset import CubeFileSet
from repro.io.writer import RadarWriter
from repro.machine.presets import generic_cluster
from repro.pfs import PFS, DiskSpec, RetryPolicy
from repro.pfs.stripe import StripeLayout
from repro.sim.kernel import Kernel


def make_fs(sf=4, n_compute=4, unit=1024, disk=None, replication=1, retry=None):
    k = Kernel()
    m = generic_cluster().build(k, n_compute=n_compute, n_io=sf)
    fs = PFS(
        m,
        stripe_unit=unit,
        stripe_factor=sf,
        disk=disk or DiskSpec(50e6, 1e-3),
        replication=replication,
        retry=retry,
    )
    return k, fs


def run(k, gen):
    """Drive a process generator to completion; return value or raised error."""
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


class TestReplicaLayout:
    def test_chained_declustering(self):
        layout = StripeLayout(1024, 4, replication=2)
        assert layout.replica_directories(0) == (0, 1)
        assert layout.replica_directories(3) == (3, 0)  # wraps around

    def test_replication_one_is_identity(self):
        layout = StripeLayout(1024, 4)
        assert layout.replication == 1
        assert layout.replica_directories(2) == (2,)

    def test_full_replication(self):
        layout = StripeLayout(1024, 3, replication=3)
        assert layout.replica_directories(1) == (1, 2, 0)

    def test_replication_bounds(self):
        with pytest.raises(ConfigurationError):
            StripeLayout(1024, 4, replication=0)
        with pytest.raises(ConfigurationError):
            StripeLayout(1024, 4, replication=5)  # > stripe_factor

    def test_bad_directory_rejected(self):
        layout = StripeLayout(1024, 4, replication=2)
        with pytest.raises(ConfigurationError):
            layout.replica_directories(4)

    def test_repr_mentions_replication_only_when_on(self):
        assert "replication" not in repr(StripeLayout(1024, 4))
        assert "replication=2" in repr(StripeLayout(1024, 4, replication=2))


class TestServerStateMachine:
    def test_down_server_rejects_new_requests(self):
        k, fs = make_fs(sf=1)
        srv = fs.servers[0]
        srv.set_down()
        with pytest.raises(ServerDownError):
            run(k, srv.service(1024, 1, dest_node=0))
        assert srv.requests_failed == 1 and srv.requests_served == 0

    def test_outage_counted_once_per_transition(self):
        _, fs = make_fs(sf=1)
        srv = fs.servers[0]
        srv.set_down()
        srv.set_down()  # already down: not a second outage
        assert srv.outages == 1
        srv.set_up()
        srv.set_down()
        assert srv.outages == 2

    def test_scheduled_outage_recovers(self):
        k, fs = make_fs(sf=1)
        srv = fs.servers[0]
        srv.schedule_outage(at_time=1.0, down_for=2.0)
        k.run(until=0.5)
        assert srv.up
        k.run(until=1.5)
        assert not srv.up
        k.run(until=4.0)
        assert srv.up and srv.outages == 1

    def test_permanent_outage_never_recovers(self):
        k, fs = make_fs(sf=1)
        srv = fs.servers[0]
        srv.schedule_outage(at_time=1.0, down_for=None)
        k.run()
        assert not srv.up

    def test_mid_service_crash_drops_inflight_request(self):
        disk = DiskSpec(bandwidth=1e6, overhead=0.0)
        k, fs = make_fs(sf=1, disk=disk)
        srv = fs.servers[0]
        srv.schedule_outage(at_time=0.05, down_for=None)  # mid disk service
        with pytest.raises(ServerDownError):
            run(k, srv.service(100_000, 1, dest_node=0))  # 0.1 s of disk time
        assert srv.requests_served == 0 and srv.requests_failed == 1


class TestServedVsShippedAccounting:
    def test_served_credited_at_disk_completion_before_ship(self):
        # 100 KB at 1 MB/s = 0.1 s of disk; the network leg to node 0
        # takes ~0.85 ms more.  Stop the clock in between.
        disk = DiskSpec(bandwidth=1e6, overhead=0.0)
        k, fs = make_fs(sf=1, disk=disk)
        srv = fs.servers[0]
        k.process(srv.service(100_000, 1, dest_node=0))
        k.run(until=0.1004)
        assert srv.requests_served == 1
        assert srv.bytes_served == 100_000
        assert srv.bytes_shipped == 0  # still on the wire
        k.run()
        assert srv.bytes_shipped == 100_000

    def test_no_ship_leg_never_ships(self):
        k, fs = make_fs(sf=1)
        srv = fs.servers[0]
        run(k, srv.service(4096, 1, dest_node=0, ship=False))
        assert srv.bytes_served == 4096 and srv.bytes_shipped == 0


class TestFlakyDisk:
    def _failure_pattern(self, seed, n=20):
        k, fs = make_fs(sf=1)
        srv = fs.servers[0]
        srv.set_flaky(0.5, seed=seed)
        pattern = []
        for _ in range(n):
            try:
                run(k, srv.service(1024, 1, dest_node=0))
                pattern.append(True)
            except FlakyDiskError:
                pattern.append(False)
        return pattern, srv

    def test_deterministic_failures(self):
        a, _ = self._failure_pattern(seed=7)
        b, _ = self._failure_pattern(seed=7)
        assert a == b
        c, _ = self._failure_pattern(seed=8)
        assert a != c  # different seed, different draws

    def test_failed_requests_counted(self):
        pattern, srv = self._failure_pattern(seed=7)
        assert srv.requests_failed == pattern.count(False)
        assert srv.requests_served == pattern.count(True)


class TestFaultTolerantProperty:
    """``fault_tolerant`` is computed from state: replicas, or a server
    with a fault armed.  It only selects which fault counters report."""

    def test_fresh_unreplicated_fs_is_not(self):
        _, fs = make_fs(sf=2)
        assert not fs.fault_tolerant
        fs.servers[1].set_flaky(0.0)
        assert not fs.fault_tolerant

    def test_set_down_arms_it(self):
        _, fs = make_fs(sf=2)
        fs.servers[0].set_down()
        assert fs.fault_tolerant
        fs.servers[0].set_up()  # a recovered crash still happened
        assert fs.fault_tolerant

    def test_scheduled_outage_arms_it_before_it_fires(self):
        _, fs = make_fs(sf=2)
        fs.servers[1].schedule_outage(at_time=5.0, down_for=1.0)
        assert fs.servers[1].up
        assert fs.fault_tolerant

    def test_flaky_disk_arms_it(self):
        _, fs = make_fs(sf=2)
        fs.servers[0].set_flaky(0.05)
        assert fs.fault_tolerant

    def test_replication_makes_it(self):
        _, fs = make_fs(sf=2, replication=2)
        assert fs.fault_tolerant


class TestRetryAndFailover:
    def test_failover_reads_from_mirror(self):
        k, fs = make_fs(sf=2, replication=2)
        fs.create("p", phantom_size=4096)
        fs.servers[0].set_down()
        h = fs.open("p", 0)
        out = run(k, fs.read(h, 0, 4096))
        assert out.nbytes == 4096
        # Every unit came off the mirror; the primary served nothing.
        assert fs.servers[0].requests_served == 0
        assert fs.servers[1].bytes_served >= 4096

    def test_retry_rides_out_transient_outage(self):
        k, fs = make_fs(sf=1)
        fs.create("p", phantom_size=1024)
        fs.servers[0].schedule_outage(at_time=0.0, down_for=0.3)
        h = fs.open("p", 0)
        out = run(k, fs.read(h, 0, 1024))
        assert out.nbytes == 1024
        assert fs.servers[0].requests_failed > 0  # early attempts bounced
        assert k.now >= 0.3  # had to wait for recovery

    def test_retries_exhausted_on_permanent_outage(self):
        k, fs = make_fs(sf=1, retry=RetryPolicy(max_attempts=3))
        fs.create("p", phantom_size=1024)
        fs.servers[0].set_down()
        h = fs.open("p", 0)
        with pytest.raises(RetriesExhaustedError):
            run(k, fs.read(h, 0, 1024))

    def test_backoff_schedule_is_capped_exponential(self):
        policy = RetryPolicy()
        delays = [policy.backoff(c) for c in range(7)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0]

    def test_request_timeout_bounds_an_attempt(self):
        # A huge request on a slow disk: without replication the client
        # times out, retries, and (server still slow, not down) succeeds
        # on a later attempt only if the timeout allows — here it never
        # does, so the read exhausts its retries in bounded time.
        disk = DiskSpec(bandwidth=1e3, overhead=0.0)  # 1 KB/s: 4 s per unit
        policy = RetryPolicy(max_attempts=2, request_timeout=0.1, backoff_base=0.01)
        k, fs = make_fs(sf=1, unit=8192, disk=disk, retry=policy)
        fs.create("p", phantom_size=4096)
        h = fs.open("p", 0)
        with pytest.raises(RetriesExhaustedError):
            run(k, fs.read(h, 0, 4096))

    def test_replication_changes_no_timing_without_faults(self):
        def elapsed(replication):
            k, fs = make_fs(sf=4, replication=replication)
            fs.create("p", phantom_size=64 * 1024)
            h = fs.open("p", 0)
            run(k, fs.read(h, 0, 64 * 1024))
            return k.now

        # Reads go primary-first, so a fault-free read never touches the
        # mirrors: identical timing, which is what keeps the golden
        # result hashes stable.
        assert elapsed(2) == elapsed(1)


class TestMirroredWrites:
    def test_write_lands_on_every_replica(self):
        k, fs = make_fs(sf=2, replication=2)
        fs.create("f")
        h = fs.open("f", 0)
        payload = b"x" * 2048
        run(k, fs.write(h, 0, payload))
        assert fs.servers[0].bytes_served >= 2048
        assert fs.servers[1].bytes_served >= 2048
        out = run(k, fs.read(h, 0, 2048))
        assert out == payload

    def test_write_survives_one_dead_replica(self):
        k, fs = make_fs(sf=2, replication=2, retry=RetryPolicy(max_attempts=2))
        fs.create("f")
        fs.servers[1].set_down()
        h = fs.open("f", 0)
        run(k, fs.write(h, 0, b"y" * 1024))
        assert fs.servers[0].bytes_served >= 1024

    def test_write_fails_when_all_replicas_dead(self):
        k, fs = make_fs(sf=2, replication=2, retry=RetryPolicy(max_attempts=2))
        fs.create("f")
        fs.servers[0].set_down()
        fs.servers[1].set_down()
        h = fs.open("f", 0)
        with pytest.raises(RetriesExhaustedError):
            run(k, fs.write(h, 0, b"z" * 1024))


class TestFaultErrorsAreIOFaults:
    def test_hierarchy(self):
        for exc in (ServerDownError, FlakyDiskError, RetriesExhaustedError):
            assert issubclass(exc, IOFaultError)


class TestHandleAccounting:
    def test_open_close_balance(self):
        _, fs = make_fs()
        fs.create("a")
        assert fs.open_handle_count == 0
        h1 = fs.open("a", 0)
        h2 = fs.open("a", 1)
        assert fs.open_handle_count == 2
        h1.close()
        h1.close()  # idempotent: no double decrement
        fs.close(h2)
        assert fs.open_handle_count == 0

    def test_context_manager_closes_on_error(self):
        _, fs = make_fs()
        fs.create("a")
        with pytest.raises(RuntimeError):
            with fs.open("a", 0):
                raise RuntimeError("boom")
        assert fs.open_handle_count == 0

    def test_gopen_handles_counted(self):
        _, fs = make_fs()
        fs.create("a")
        handles = fs.gopen("a", [0, 1, 2])
        assert fs.open_handle_count == 3
        for h in handles:
            h.close()
        assert fs.open_handle_count == 0

    def test_radar_writer_leaks_no_handles(self, tiny_params):
        # Regression: RadarWriter.run used to open a handle per CPI and
        # never close it.
        k, fs = make_fs()
        fset = CubeFileSet(fs, tiny_params)
        fset.initialize()
        w = RadarWriter(fset, node_id=0, period=0.05, n_cpis=5)
        k.process(w.run(k))
        k.run()
        assert w.writes_done == 5
        assert fs.open_handle_count == 0
