"""Unit tests for the multistage (SP switch) network."""

import pytest

from repro.errors import ConfigurationError
from repro.machine.multistage import MultistageNetwork
from repro.sim.kernel import Kernel


def run_transfers(net, jobs):
    k = net.kernel
    times = {}

    def mover(k, net, i, s, d, nb):
        yield from net.transfer(s, d, nb)
        times[i] = k.now

    for i, (s, d, nb) in enumerate(jobs):
        k.process(mover(k, net, i, s, d, nb))
    k.run()
    return times


def mk(n=8, latency=0.0, bw=1e6):
    return MultistageNetwork(Kernel(), n, latency, bw)


class TestMultistage:
    def test_single_transfer_alpha_beta(self):
        net = mk(latency=1e-3)
        t = run_transfers(net, [(0, 5, 1e6)])
        assert t[0] == pytest.approx(1e-3 + 1.0)

    def test_local_transfer(self):
        net = mk(latency=1e-3)
        t = run_transfers(net, [(3, 3, 1e9)])
        assert t[0] == pytest.approx(0.5e-3)

    def test_disjoint_pairs_overlap(self):
        net = mk()
        t = run_transfers(net, [(0, 1, 1e6), (2, 3, 1e6), (4, 5, 1e6)])
        assert all(v == pytest.approx(1.0) for v in t.values())

    def test_shared_destination_serialises(self):
        net = mk()
        t = run_transfers(net, [(0, 7, 1e6), (1, 7, 1e6), (2, 7, 1e6)])
        assert sorted(t.values()) == pytest.approx([1.0, 2.0, 3.0])

    def test_shared_source_serialises(self):
        net = mk()
        t = run_transfers(net, [(0, 5, 1e6), (0, 6, 1e6)])
        assert sorted(t.values()) == pytest.approx([1.0, 2.0])

    def test_bidirectional_pair_overlaps(self):
        net = mk()
        t = run_transfers(net, [(0, 1, 1e6), (1, 0, 1e6)])
        assert all(v == pytest.approx(1.0) for v in t.values())

    def test_no_deadlock_under_cross_traffic(self):
        net = mk()
        jobs = [(i, (i + 3) % 8, 1e5) for i in range(8)]
        t = run_transfers(net, jobs)
        assert len(t) == 8

    def test_invalid_node_count(self):
        with pytest.raises(ConfigurationError):
            MultistageNetwork(Kernel(), 0, 0.0, 1e6)

    def test_invalid_endpoint(self):
        with pytest.raises(ConfigurationError):
            list(mk().transfer(0, 99, 10))


class TestPortGrants:
    """Busy ports grant FIFO, whether a transfer takes a free port
    directly (kernel quiescent), through the born-fired grant (other
    work due now) or by queueing on a busy one."""

    def test_busy_injection_port_grants_fifo(self):
        net = mk()
        t = run_transfers(net, [(0, d, 1e6) for d in (1, 2, 3, 4)])
        assert t == {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}

    def test_busy_ejection_port_grants_fifo(self):
        net = mk()
        t = run_transfers(net, [(s, 7, 1e6) for s in (3, 0, 2, 1)])
        assert t == {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}

    def test_holder_waiting_on_ejection_keeps_its_injection_port(self):
        # Job 1 holds inj1 while it queues for ej7 behind job 0, so job 2
        # (also from node 1) starts only once job 1 has finished.
        net = mk()
        t = run_transfers(net, [(0, 7, 1e6), (1, 7, 1e6), (1, 6, 1e6)])
        assert t == {0: 1.0, 1: 2.0, 2: 3.0}

    def test_ports_idle_after_contention(self):
        net = mk()
        run_transfers(net, [(i % 3, 7 - i % 2, 1e5) for i in range(12)])
        ports = list(net._in_ports.values()) + list(net._out_ports.values())
        assert ports and all(p.in_use == 0 and p.queue_length == 0
                             for p in ports)

    def test_grants_interleave_like_plain_requests(self):
        """A transfer that finds a port free must still let the work
        already due now run before it moves on to its next port: direct
        port holders racing the transfers at the same instants see the
        same grants as with plain ``request()``/``release()`` calls."""

        def plain_transfer(net, src, dst, nbytes):
            k = net.kernel
            inj = net._port(net._in_ports, src, "inj")
            ej = net._port(net._out_ports, dst, "ej")
            yield inj.request()
            try:
                yield ej.request()
                try:
                    yield k.timeout(net.pure_transfer_time(nbytes))
                finally:
                    ej.release()
            finally:
                inj.release()

        jobs = [
            (0.0, "xfer", 0, 7), (0.0, "ej", 7, None), (0.0, "xfer", 1, 7),
            (0.0, "inj", 1, None), (0.0, "xfer", 2, 6), (0.5, "xfer", 6, 7),
            (0.5, "ej", 6, None), (0.5, "xfer", 3, 6), (1.0, "inj", 3, None),
            (1.0, "xfer", 3, 7),
        ]

        def trace(move):
            net = mk(latency=1e-3)
            k = net.kernel
            log = []

            def job(i, start, kind, a, b):
                yield k.timeout(start)
                if kind == "xfer":
                    yield from move(net, a, b, 2.5e5)
                else:
                    table = net._in_ports if kind == "inj" else net._out_ports
                    port = net._port(table, a, kind)
                    yield port.request()
                    log.append((i, "held", k.now))
                    yield k.timeout(0.3)
                    port.release()
                log.append((i, "done", k.now))

            for i, spec in enumerate(jobs):
                k.process(job(i, *spec))
            k.run()
            return log

        assert trace(MultistageNetwork.transfer) == trace(plain_transfer)

    def test_fused_deliver_deposits_in_grant_order(self):
        net = mk()
        k = net.kernel
        arrivals = []

        class Box:
            def put_nowait(self, msg):
                arrivals.append((k.now, msg))

        box = Box()
        for i, s in enumerate((2, 0, 1, 7)):
            k.process(net.deliver(s, 7, 1e6, box, i))
        k.run()
        assert arrivals == [(0.0, 3), (1.0, 0), (2.0, 1), (3.0, 2)]

    def test_deliver_matches_transfer_then_deposit(self):
        jobs = [(0, 7, 1e6), (1, 7, 5e5), (0, 6, 2e5), (1, 6, 1e6), (6, 6, 1)]

        def arrivals(fused):
            net = mk(latency=1e-3)
            k = net.kernel
            out = []

            class Box:
                def put_nowait(self, msg):
                    out.append((k.now, msg))

            box = Box()

            def mover(i, s, d, nb):
                yield from net.transfer(s, d, nb)
                box.put_nowait(i)

            for i, (s, d, nb) in enumerate(jobs):
                gen = net.deliver(s, d, nb, box, i) if fused else mover(i, s, d, nb)
                k.process(gen)
            k.run()
            return out

        assert arrivals(True) == arrivals(False)
