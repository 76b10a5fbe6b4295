"""Point-to-point messaging tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MPIError
from repro.mpi.communicator import ANY_SOURCE, ANY_TAG, Communicator
from repro.mpi.request import Request


@pytest.fixture
def comm(ideal_machine):
    return Communicator.world(ideal_machine)


def run_ranks(comm, bodies):
    """Spawn one process per (rank, generator-fn) pair and run."""
    k = comm.kernel
    procs = [k.process(body(comm.view(rank))) for rank, body in bodies]
    k.run()
    return procs


class TestBasics:
    def test_world_size(self, comm):
        assert comm.size == 8

    def test_empty_communicator_rejected(self, ideal_machine):
        with pytest.raises(ConfigurationError):
            Communicator(ideal_machine, [])

    def test_rank_out_of_machine_rejected(self, ideal_machine):
        with pytest.raises(ConfigurationError):
            Communicator(ideal_machine, [0, 99])

    def test_view_bad_rank(self, comm):
        with pytest.raises(MPIError):
            comm.view(8)

    def test_send_to_bad_rank(self, comm):
        rc = comm.view(0)
        with pytest.raises(MPIError):
            rc.isend("x", 42)

    def test_negative_user_tag_rejected(self, comm):
        rc = comm.view(0)
        with pytest.raises(MPIError):
            rc.isend("x", 1, tag=-3)


class TestSendRecv:
    def test_blocking_roundtrip(self, comm):
        got = []

        def sender(rc):
            yield from rc.send({"v": 1}, dest=1, tag=7)

        def receiver(rc):
            msg = yield from rc.recv(source=0, tag=7)
            got.append(msg)

        run_ranks(comm, [(0, sender), (1, receiver)])
        assert got == [{"v": 1}]

    def test_numpy_payload(self, comm):
        got = []

        def sender(rc):
            yield from rc.send(np.arange(10), dest=1)

        def receiver(rc):
            arr = yield from rc.recv(source=0)
            got.append(arr)

        run_ranks(comm, [(0, sender), (1, receiver)])
        assert np.array_equal(got[0], np.arange(10))

    def test_transfer_takes_simulated_time(self, comm):
        stamps = []

        def sender(rc):
            yield from rc.send(np.zeros(1000, np.float64), dest=1)

        def receiver(rc):
            yield from rc.recv(source=0)
            stamps.append(rc.kernel.now)

        run_ranks(comm, [(0, sender), (1, receiver)])
        net = comm.machine.network
        assert stamps[0] >= net.pure_transfer_time(8000)

    def test_larger_messages_take_longer(self, ideal_machine):
        comm = Communicator.world(ideal_machine)
        times = {}

        def sender(rc, n, tag):
            yield from rc.send(np.zeros(n, np.float64), dest=1, tag=tag)

        def receiver(rc):
            yield from rc.recv(source=0, tag=1)
            times["small"] = rc.kernel.now
            yield from rc.recv(source=0, tag=2)
            times["big"] = rc.kernel.now

        k = comm.kernel
        k.process(sender(comm.view(0), 10, 1))
        k.process(sender(comm.view(0), 10**6, 2))
        k.process(receiver(comm.view(1)))
        k.run()
        assert times["big"] > times["small"]

    def test_tag_matching(self, comm):
        got = []

        def sender(rc):
            rc.isend("wrong", 1, tag=1)
            rc.isend("right", 1, tag=2)
            yield rc.kernel.timeout(0)

        def receiver(rc):
            v = yield from rc.recv(source=0, tag=2)
            got.append(v)
            v = yield from rc.recv(source=0, tag=1)
            got.append(v)

        run_ranks(comm, [(0, sender), (1, receiver)])
        assert got == ["right", "wrong"]

    def test_source_matching(self, comm):
        got = []

        def sender(rc, label):
            yield from rc.send(label, dest=2, tag=0)

        def receiver(rc):
            v = yield from rc.recv(source=1, tag=0)
            got.append(v)
            v = yield from rc.recv(source=0, tag=0)
            got.append(v)

        run_ranks(
            comm,
            [(0, lambda rc: sender(rc, "from0")), (1, lambda rc: sender(rc, "from1")),
             (2, receiver)],
        )
        assert got == ["from1", "from0"]

    def test_wildcards(self, comm):
        got = []

        def sender(rc):
            yield from rc.send("anything", dest=1, tag=99)

        def receiver(rc):
            v = yield from rc.recv(source=ANY_SOURCE, tag=ANY_TAG)
            got.append(v)

        run_ranks(comm, [(0, sender), (1, receiver)])
        assert got == ["anything"]

    def test_non_overtaking_same_source_tag(self, comm):
        got = []

        def sender(rc):
            for i in range(5):
                rc.isend(i, 1, tag=0)
            yield rc.kernel.timeout(0)

        def receiver(rc):
            for _ in range(5):
                v = yield from rc.recv(source=0, tag=0)
                got.append(v)

        run_ranks(comm, [(0, sender), (1, receiver)])
        assert got == [0, 1, 2, 3, 4]

    def test_wildcards_take_messages_in_arrival_order(self, comm):
        # (source, tag) of each message, sent one simulated second apart
        # so the order they arrive in is the order listed.
        sends = [(0, 5), (2, 1), (3, 1), (0, 1), (2, 5),
                 (3, 7), (2, 1), (0, 7), (3, 5), (2, 7)]
        got = {}

        def sender(rc):
            for i, (src, tag) in enumerate(sends):
                if src == rc.rank:
                    yield rc.kernel.timeout(i - rc.kernel.now)
                    yield from rc.send(i, dest=1, tag=tag)

        def receiver(rc):
            yield rc.kernel.timeout(len(sends) + 1)
            got["buffered"] = len(rc.comm._mailboxes[rc.rank])
            got["any_source"] = []
            for _ in range(4):
                v = yield from rc.recv(source=ANY_SOURCE, tag=1)
                got["any_source"].append(v)
            got["any_tag"] = []
            for _ in range(2):
                v = yield from rc.recv(source=2, tag=ANY_TAG)
                got["any_tag"].append(v)
            got["any"] = []
            for _ in range(4):
                v = yield from rc.recv(source=ANY_SOURCE, tag=ANY_TAG)
                got["any"].append(v)
            got["left"] = len(rc.comm._mailboxes[rc.rank])

        run_ranks(comm, [(0, sender), (2, sender), (3, sender), (1, receiver)])
        assert got == {
            "buffered": 10,
            "any_source": [1, 2, 3, 6],
            "any_tag": [4, 9],
            "any": [0, 5, 7, 8],
            "left": 0,
        }

    def test_recv_msg_envelope(self, comm):
        got = []

        def sender(rc):
            yield from rc.send("payload", dest=1, tag=5)

        def receiver(rc):
            msg = yield from rc.recv_msg(source=0)
            got.append((msg.src, msg.dst, msg.tag, msg.payload))

        run_ranks(comm, [(0, sender), (1, receiver)])
        assert got == [(0, 1, 5, "payload")]

    def test_self_send(self, comm):
        got = []

        def both(rc):
            rc.isend("me", rc.rank, tag=0)
            v = yield from rc.recv(source=rc.rank, tag=0)
            got.append(v)

        run_ranks(comm, [(0, both)])
        assert got == ["me"]


class TestRequests:
    def test_isend_irecv_overlap(self, comm):
        got = []

        def sender(rc):
            req = rc.isend("x", 1, tag=0)
            yield from req.wait()

        def receiver(rc):
            req = rc.irecv(source=0, tag=0)
            assert not req.complete
            v = yield from req.wait()
            got.append(v)

        run_ranks(comm, [(0, sender), (1, receiver)])
        assert got == ["x"]

    def test_test_returns_none_until_done(self, comm):
        probes = []

        def receiver(rc):
            req = rc.irecv(source=0, tag=0)
            probes.append(req.test())
            v = yield from req.wait()
            probes.append(req.test())
            return v

        def sender(rc):
            yield rc.kernel.timeout(1.0)
            rc.isend("late", 1, tag=0)

        run_ranks(comm, [(0, sender), (1, receiver)])
        assert probes[0] is None and probes[1] == "late"

    def test_wait_all(self, comm):
        got = []

        def sender(rc):
            for i in range(3):
                rc.isend(i * 10, 1, tag=i)
            yield rc.kernel.timeout(0)

        def receiver(rc):
            reqs = [rc.irecv(source=0, tag=i) for i in range(3)]
            vals = yield from Request.wait_all(rc.kernel, reqs)
            got.append(vals)

        run_ranks(comm, [(0, sender), (1, receiver)])
        assert got == [[0, 10, 20]]

    def test_wait_all_rejects_non_requests(self, comm):
        with pytest.raises(MPIError):
            list(Request.wait_all(comm.kernel, ["nope"]))
