"""Unit and property tests for the 2-D mesh network."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.machine.mesh import MeshNetwork
from repro.machine.multistage import MultistageNetwork
from repro.machine.network import ContentionFreeNetwork
from repro.sim.kernel import Kernel
from repro.sim.process import Interrupt


def mk(n, cols=None, latency=1e-5, bw=1e8):
    return MeshNetwork(Kernel(), n, latency, bw, cols=cols)


class TestTopology:
    def test_square_layout(self):
        net = mk(16)
        assert net.cols == 4 and net.rows == 4

    def test_non_square_count(self):
        net = mk(10)
        assert net.cols == 4 and net.rows == 3  # 12-slot grid, 10 populated

    def test_explicit_cols(self):
        net = mk(12, cols=6)
        assert net.cols == 6 and net.rows == 2

    def test_coords_roundtrip(self):
        net = mk(20, cols=5)
        for n in range(20):
            r, c = net.coords(n)
            assert net.node_at(r, c) == n

    def test_coords_out_of_range(self):
        with pytest.raises(ConfigurationError):
            mk(4).coords(4)

    def test_route_empty_for_self(self):
        assert mk(9).route(4, 4) == []

    def test_route_x_first(self):
        net = mk(9, cols=3)
        # 0 -> 8: (0,0) -> (0,2) -> (2,2)
        hops = net.route(0, 8)
        assert hops == [(0, 1), (1, 2), (2, 5), (5, 8)]

    def test_route_negative_directions(self):
        net = mk(9, cols=3)
        hops = net.route(8, 0)
        assert hops == [(8, 7), (7, 6), (6, 3), (3, 0)]

    def test_route_length_is_manhattan_distance(self):
        net = mk(25, cols=5)
        for s, d in [(0, 24), (3, 17), (11, 2)]:
            (sr, sc), (dr, dc) = net.coords(s), net.coords(d)
            assert len(net.route(s, d)) == abs(sr - dr) + abs(sc - dc)

    @given(
        st.integers(min_value=2, max_value=36),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_route_hops_are_adjacent_and_reach(self, n, data):
        net = mk(n)
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        hops = net.route(src, dst)
        pos = src
        for a, b in hops:
            assert a == pos
            (ar, ac), (br, bc) = divmod(a, net.cols), divmod(b, net.cols)
            assert abs(ar - br) + abs(ac - bc) == 1
            pos = b
        assert pos == dst


def run_transfers(net, jobs):
    """jobs: list of (src, dst, nbytes); returns completion times."""
    k = net.kernel
    times = {}

    def mover(k, net, i, s, d, nb):
        yield from net.transfer(s, d, nb)
        times[i] = k.now

    for i, (s, d, nb) in enumerate(jobs):
        k.process(mover(k, net, i, s, d, nb))
    k.run()
    return times


class TestTransfer:
    def test_single_transfer_time(self):
        net = mk(4, latency=1e-3, bw=1e6)
        times = run_transfers(net, [(0, 3, 1000)])
        assert times[0] == pytest.approx(1e-3 + 1000 / 1e6)

    def test_local_transfer_is_cheap(self):
        net = mk(4, latency=1e-3, bw=1e6)
        times = run_transfers(net, [(2, 2, 10**9)])
        assert times[0] == pytest.approx(0.5e-3)

    def test_disjoint_paths_do_not_contend(self):
        net = mk(16, cols=4, latency=0.0, bw=1e6)
        # Row 0 and row 3 transfers share no links.
        times = run_transfers(net, [(0, 3, 1e6), (12, 15, 1e6)])
        assert times[0] == pytest.approx(1.0)
        assert times[1] == pytest.approx(1.0)

    def test_shared_link_serialises(self):
        net = mk(4, cols=4, latency=0.0, bw=1e6)
        # Both 0->3 and 1->3 traverse link 1->2 and 2->3.
        times = run_transfers(net, [(0, 3, 1e6), (1, 3, 1e6)])
        assert min(times.values()) == pytest.approx(1.0)
        assert max(times.values()) == pytest.approx(2.0)

    def test_many_to_one_serialises_fully(self):
        net = mk(8, cols=8, latency=0.0, bw=1e6)
        jobs = [(i, 7, 1e6) for i in range(4)]
        times = run_transfers(net, jobs)
        assert max(times.values()) == pytest.approx(4.0)

    def test_bidirectional_links_are_independent(self):
        net = mk(2, cols=2, latency=0.0, bw=1e6)
        times = run_transfers(net, [(0, 1, 1e6), (1, 0, 1e6)])
        assert times[0] == pytest.approx(1.0)
        assert times[1] == pytest.approx(1.0)

    def test_opposing_traffic_no_deadlock(self):
        net = mk(9, cols=3, latency=0.0, bw=1e7)
        jobs = [(0, 8, 1e6), (8, 0, 1e6), (2, 6, 1e6), (6, 2, 1e6)]
        times = run_transfers(net, jobs)
        assert len(times) == 4  # all completed

    def test_invalid_endpoint_rejected(self):
        net = mk(4)
        with pytest.raises(ConfigurationError):
            list(net.transfer(0, 9, 10))

    def test_negative_size_rejected(self):
        net = mk(4)
        with pytest.raises(ConfigurationError):
            list(net.transfer(0, 1, -1))

    def test_allocated_links_grow_lazily(self):
        net = mk(16)
        assert net.allocated_links == 0
        run_transfers(net, [(0, 1, 10)])
        assert net.allocated_links == 1


#: (n_nodes, cols): one row, one column, square, ragged last rows.
SHAPES = [(6, 6), (6, 1), (16, None), (7, 3), (10, None), (100, None)]


class TestPortTables:
    """A message's path is read from the row and column link tables; it
    must be the XY route's ports in order, and only crossed links exist."""

    @pytest.mark.parametrize("n, cols", SHAPES,
                             ids=lambda v: "auto" if v is None else str(v))
    def test_path_is_the_route_in_order(self, n, cols):
        net = mk(n, cols)
        pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
        random.Random(n).shuffle(pairs)
        crossed = set()
        for s, d in pairs:
            hops = net.route(s, d)
            path = net._path(s, d)
            crossed.update(hops)
            assert len(path) == len(hops)
            assert all(p is net._ports[h] for p, h in zip(path, hops))
            assert [p.name for p in path] == [f"link{a}->{b}" for a, b in hops]
            assert net.allocated_links == len(crossed)

    @given(st.sampled_from(SHAPES[:-1]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_transfers_allocate_only_crossed_links(self, shape, data):
        n, cols = shape
        net = mk(n, cols)
        node = st.integers(0, n - 1)
        jobs = data.draw(st.lists(st.tuples(node, node), max_size=10))
        run_transfers(net, [(s, d, 1e3) for s, d in jobs])
        crossed = {hop for s, d in jobs for hop in net.route(s, d)}
        assert set(net._ports) == crossed
        assert net.allocated_links == len(crossed)
        assert all(p.in_use == 0 and p.queue_length == 0
                   for p in net._ports.values())


def directed_links(net):
    """Directed links (or ports) the topology can ever make."""
    if net.kind == "mesh":
        return 2 * net.rows * (net.cols - 1) + 2 * net.cols * (net.rows - 1)
    return 2 * net.n_nodes


def held_containers(net):
    """Every list, tuple, dict, set and deque the network holds, however
    deeply nested (ports and the kernel are not walked into)."""
    found, todo = [], deque(vars(net).values())
    while todo:
        obj = todo.popleft()
        if isinstance(obj, dict):
            found.append(obj)
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            found.append(obj)
            todo.extend(obj)
    return found


class TestStateScalesWithLinks:
    """A network's state grows with its links, not with node pairs."""

    @pytest.mark.parametrize("n", [100, 400])
    @pytest.mark.parametrize("make", [MeshNetwork, MultistageNetwork],
                             ids=["mesh", "multistage"])
    def test_all_pairs_traffic(self, make, n):
        k = Kernel()
        net = make(k, n, 1e-6, 1e9)

        def sender(src):
            for dst in range(n):
                yield from net.transfer(src, dst, 64)

        for src in range(n):
            k.process(sender(src))
        k.run()
        links = directed_links(net)
        assert net.kind != "mesh" or net.allocated_links == links
        assert len(net._ports) <= links
        assert max(len(c) for c in held_containers(net)) <= links


NETWORKS = pytest.mark.parametrize("make", [
    lambda k: MeshNetwork(k, 9, 0.0, 1e6, cols=3),
    lambda k: MultistageNetwork(k, 9, 0.0, 1e6),
    lambda k: ContentionFreeNetwork(k, 9, 0.0, 1e6),
], ids=["mesh", "multistage", "ideal"])


class TestInterruptedTransfer:
    """On every network, an interrupted transfer releases the ports it
    holds, deposits nothing, and leaves no abandoned waiter to be granted
    a busy port."""

    @NETWORKS
    def test_interrupt_while_queued_frees_every_port(self, make):
        k = Kernel()
        net = make(k)
        log = []

        class Box:
            def put_nowait(self, msg):
                log.append((msg, k.now))

        def job_a():  # 1 -> 2 holds link1->2 (mesh) / ej2 (switch) for 1 s
            yield from net.deliver(1, 2, 1e6, Box(), "a")

        def job_b():  # 0 -> 2 takes link0->1 / inj0, then queues
            try:
                yield from net.deliver(0, 2, 1e6, Box(), "b")
            except Interrupt:
                log.append(("b interrupted", k.now))

        def interrupter(proc):
            yield k.timeout(0.5)
            proc.interrupt()

        def probe():  # after the interrupt, only A's path is held
            yield k.timeout(0.6)
            log.append({p.name for p in net._ports.values() if p.in_use})

        def later():
            yield k.timeout(2.0)
            yield from net.transfer(1, 2, 1e6)
            log.append(("later", k.now))

        k.process(job_a())
        k.process(interrupter(k.process(job_b())))
        k.process(probe())
        k.process(later())
        k.run()

        a_path = {"mesh": {"link1->2"}, "multistage": {"inj1", "ej2"},
                  "ideal": set()}[net.kind]
        assert log == [("b interrupted", 0.5), a_path, ("a", 1.0),
                       ("later", 3.0)]
        assert all(p.in_use == 0 and p.queue_length == 0
                   for p in net._ports.values())

    @NETWORKS
    def test_interrupt_while_holding_frees_the_path(self, make):
        k = Kernel()
        net = make(k)
        log = []

        def job():  # 0 -> 2 holds its whole path from t=0 to t=1
            try:
                yield from net.transfer(0, 2, 1e6)
            except Interrupt:
                log.append(("interrupted", k.now))

        def interrupter(proc):
            yield k.timeout(0.5)
            proc.interrupt()

        def later():
            yield k.timeout(0.6)
            yield from net.transfer(0, 2, 1e6)
            log.append(("later", k.now))

        k.process(interrupter(k.process(job())))
        k.process(later())
        k.run()

        assert log == [("interrupted", 0.5), ("later", pytest.approx(1.6))]
        assert all(p.in_use == 0 and p.queue_length == 0
                   for p in net._ports.values())

    @pytest.mark.parametrize("next_hold", [2e6, 0.5e6],
                             ids=["next-busy", "next-free"])
    @pytest.mark.parametrize("kind", ["mesh", "multistage"])
    def test_interrupt_in_the_instant_a_queued_grant_lands(self, kind,
                                                           next_hold):
        # B queues for its first port.  At t=1 the holder hands that port
        # to B, and B is interrupted in the same instant, before it has
        # resumed.  The grant resumes B first, so B takes the port and
        # goes on to the next one (busy: queues; free: takes it), where
        # the interrupt lands.
        k = Kernel()
        if kind == "mesh":
            net = MeshNetwork(k, 4, 0.0, 1e6, cols=4)  # 0-1-2-3 in a row
            first, second, victim = (0, 1), (1, 2), (0, 3)
        else:
            net = MultistageNetwork(k, 6, 0.0, 1e6)
            first, second, victim = (0, 5), (4, 3), (0, 3)
        log = []

        def hold(pair, nbytes):
            yield from net.transfer(*pair, nbytes)

        def job_b():
            try:
                yield from net.transfer(*victim, 1e6)
            except Interrupt:
                log.append(("b interrupted", k.now))

        def interrupter(proc):
            yield k.timeout(0.5)
            yield k.timeout(0.5)  # queued after the first holder's release
            proc.interrupt()

        def later():  # over the second holder's path, once it is done
            yield k.timeout(3.0)
            yield from net.transfer(*second, 1e6)
            log.append(("later", k.now))

        k.process(hold(first, 1e6))
        k.process(hold(second, next_hold))
        k.process(interrupter(k.process(job_b())))
        k.process(later())
        k.run()

        assert log == [("b interrupted", 1.0), ("later", 4.0)]
        assert all(p.in_use == 0 and p.queue_length == 0
                   for p in net._ports.values())
