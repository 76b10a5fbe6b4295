"""Communicators and per-rank communication handles.

A :class:`Communicator` maps ``size`` ranks onto machine node ids and
owns one mailbox (:class:`~repro.sim.resources.Store`) per rank.  Rank
code runs as DES processes and communicates through a
:class:`RankComm` view obtained from :meth:`Communicator.view`.

Semantics (matching the subset of NX/MPL/MPI the paper's code needed):

* point-to-point is ordered per (source, dest, tag) — FIFO mailbox with
  filtered matching guarantees non-overtaking;
* ``isend`` completes when the message has been delivered into the
  destination mailbox (buffered-send semantics);
* ``recv``/``irecv`` match on (source, tag) with :data:`ANY_SOURCE` /
  :data:`ANY_TAG` wildcards;
* collectives (barrier, bcast, gather, scatter, allreduce) are built from
  point-to-point using reserved negative tags and a per-rank collective
  sequence number, so user traffic can never be confused with collective
  traffic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, MPIError, TruncationError
from repro.machine.machine import Machine
from repro.mpi.datatypes import nbytes_of
from repro.mpi.request import Request
from repro.sim.events import _SEALED, Event
from repro.sim.process import Process

__all__ = ["ANY_SOURCE", "ANY_TAG", "Message", "Communicator", "RankComm"]

ANY_SOURCE = -1
ANY_TAG = -1

#: Base for internal collective tags; user tags must be >= 0.
_COLLECTIVE_TAG_BASE = -1000


class Message:
    """An in-flight or delivered message.

    A hand-rolled value class rather than a frozen dataclass: one is
    constructed per send, and ``object.__setattr__`` (what frozen
    dataclass ``__init__`` must use) costs ~3x a plain slot store.
    Treat instances as immutable; equality and hashing are by value,
    matching the previous frozen-dataclass behaviour.
    """

    __slots__ = ("src", "dst", "tag", "payload", "nbytes")

    def __init__(self, src: int, dst: int, tag: int, payload: Any, nbytes: int) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.tag == other.tag
            and self.payload == other.payload
            and self.nbytes == other.nbytes
        )

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.tag, self.payload, self.nbytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(src={self.src}, dst={self.dst}, tag={self.tag}, "
            f"payload={self.payload!r}, nbytes={self.nbytes})"
        )


class _Mailbox:
    """Per-rank message buffer with inline (source, tag) matching.

    Behaviourally a :class:`~repro.sim.resources.Store` whose get-filters
    are always "src matches ``source``, tag matches ``tag``" — so the
    predicate is evaluated inline (two int compares per candidate)
    instead of through a per-receive closure.  Event creation and
    born-fired grant semantics are identical to the Store fast path, so
    kernel event order is unchanged.
    """

    __slots__ = ("kernel", "_items", "_getters", "_get_name")

    def __init__(self, kernel, name: str) -> None:
        self.kernel = kernel
        self._items: "deque[Message]" = deque()
        # Pending receivers: (event, source, tag), FIFO among matches.
        self._getters: "deque[Tuple[Event, int, int]]" = deque()
        self._get_name = f"get({name})"

    def __len__(self) -> int:
        return len(self._items)

    def put_nowait(self, msg: "Message") -> None:
        """Deposit ``msg``, waking the first matching receiver if any."""
        getters = self._getters
        if getters:
            src = msg.src
            tag = msg.tag
            for idx, (ev, source, gtag) in enumerate(getters):
                if (source == ANY_SOURCE or src == source) and (
                    gtag == ANY_TAG or tag == gtag
                ):
                    del getters[idx]
                    ev.succeed(msg)
                    return
        self._items.append(msg)

    def get_match(self, source: int, tag: int) -> Event:
        """Event firing with the first buffered message matching
        (source, tag); born fired when one is already buffered."""
        ev = Event(self.kernel, name=self._get_name)
        items = self._items
        if items:
            if source == ANY_SOURCE and tag == ANY_TAG:
                ev._value = items.popleft()
                ev._ok = True
                ev.callbacks = _SEALED
                return ev
            for idx, msg in enumerate(items):
                if (source == ANY_SOURCE or msg.src == source) and (
                    tag == ANY_TAG or msg.tag == tag
                ):
                    del items[idx]
                    ev._value = msg
                    ev._ok = True
                    ev.callbacks = _SEALED
                    return ev
        self._getters.append((ev, source, tag))
        return ev


class Communicator:
    """A group of ranks on a machine, with one mailbox per rank."""

    def __init__(self, machine: Machine, rank_to_node: Sequence[int], name: str = "comm") -> None:
        if not rank_to_node:
            raise ConfigurationError("communicator needs at least one rank")
        for node in rank_to_node:
            if not (0 <= node < machine.n_total):
                raise ConfigurationError(
                    f"rank mapped to node {node}, outside machine of {machine.n_total}"
                )
        self.machine = machine
        self.kernel = machine.kernel
        self.name = name
        self.rank_to_node: List[int] = list(rank_to_node)
        self.size = len(self.rank_to_node)
        self._mailboxes: List[_Mailbox] = [
            _Mailbox(self.kernel, f"{name}.mbox[{r}]") for r in range(self.size)
        ]
        # Traffic accounting: (src_rank, dst_rank) -> [messages, bytes].
        self.traffic: Dict[Tuple[int, int], List[int]] = {}

    @classmethod
    def world(cls, machine: Machine) -> "Communicator":
        """Communicator over all compute nodes, rank i on node i."""
        return cls(machine, list(range(machine.n_compute)), name="world")

    def view(self, rank: int) -> "RankComm":
        """Per-rank handle used inside that rank's process generator."""
        if not (0 <= rank < self.size):
            raise MPIError(f"rank {rank} outside communicator of size {self.size}")
        return RankComm(self, rank)

    def node_of(self, rank: int) -> int:
        """Machine node id a rank runs on."""
        if not (0 <= rank < self.size):
            raise MPIError(f"rank {rank} outside communicator of size {self.size}")
        return self.rank_to_node[rank]

    # -- internals ---------------------------------------------------------
    def _deliver(self, msg: Message):
        """Build the delivery process generator for ``msg``: move it
        across the network, then deposit it into the destination mailbox.

        Delegates to :meth:`Network.deliver` so mesh networks can fuse
        the deposit into the transfer body (one generator frame per
        delivery instead of two).  Kept as the spawn point so the
        traffic accounting lives with the communicator.
        """
        # Ranks were validated at isend time; index the map directly.
        r2n = self.rank_to_node
        key = (msg.src, msg.dst)
        try:
            entry = self.traffic[key]
        except KeyError:  # first message on this rank pair
            self.traffic[key] = [1, msg.nbytes]
        else:
            entry[0] += 1
            entry[1] += msg.nbytes
        # put_nowait at arrival: nobody consumes the put-completion
        # event, so the mailbox deposit materialises no event.
        return self.machine.network.deliver(
            r2n[msg.src], r2n[msg.dst], msg.nbytes, self._mailboxes[msg.dst], msg
        )

    def _match(self, rank: int, source: int, tag: int):
        """Mailbox get-event for the first message matching (source, tag)."""
        return self._mailboxes[rank].get_match(source, tag)


class RankComm:
    """Communication operations bound to one rank.

    All multi-step operations are process generators: invoke them with
    ``yield from`` inside rank code.  ``isend``/``irecv`` return
    :class:`~repro.mpi.request.Request` immediately.
    """

    def __init__(self, comm: Communicator, rank: int) -> None:
        self.comm = comm
        self.rank = rank
        self.kernel = comm.kernel
        self._coll_seq = 0  # per-rank collective sequence number
        # Labels shared by every send/recv from this rank: formatting an
        # f-string per message is measurable at hot-path message rates.
        self._isend_name = f"isend r{rank}"
        self._irecv_name = f"irecv r{rank}"

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self.comm.size

    # -- point-to-point -----------------------------------------------------
    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; the request completes on delivery."""
        if tag < 0:  # inline of _check_tag (hot path)
            raise MPIError(f"user tags must be >= 0, got {tag}")
        return self._isend(payload, dest, tag)

    def _isend(self, payload: Any, dest: int, tag: int) -> Request:
        """Send without user-tag validation (collectives use negative tags)."""
        comm = self.comm
        if not (0 <= dest < comm.size):  # inline of _check_peer (hot path)
            raise MPIError(f"peer rank {dest} outside communicator of size {comm.size}")
        msg = Message(self.rank, dest, tag, payload, nbytes_of(payload))
        proc = Process(self.kernel, comm._deliver(msg), name=self._isend_name)
        return Request(proc, kind="isend")

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; the request's value is the payload."""
        if source != ANY_SOURCE:
            self._check_peer(source)
        ev = self.comm._match(self.rank, source, tag)
        # Unwrap Message -> payload through a chained event.
        out = Event(self.kernel, name=self._irecv_name)

        def _unwrap(event):
            msg = event.value
            out.succeed(msg.payload)

        if ev.triggered:
            self.kernel._call_soon(_unwrap, ev)
        else:
            ev.callbacks.append(_unwrap)
        return Request(out, kind="irecv")

    def send(self, payload: Any, dest: int, tag: int = 0):
        """Blocking send (process generator)."""
        req = self.isend(payload, dest, tag)
        yield from req.wait()

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        max_bytes: Optional[int] = None,
    ):
        """Blocking receive (process generator); returns the payload.

        ``max_bytes`` models a fixed receive buffer: a matched message
        larger than it raises :class:`~repro.errors.TruncationError`
        (MPI's ERR_TRUNCATE), surfacing under-provisioned buffers that a
        real port would hit.
        """
        comm = self.comm
        if source != ANY_SOURCE and not (0 <= source < comm.size):
            raise MPIError(  # inline of _check_peer (hot path)
                f"peer rank {source} outside communicator of size {comm.size}"
            )
        ev = comm._match(self.rank, source, tag)
        kernel = self.kernel
        if ev._ok and not kernel._lane and not kernel._due:
            # Message already buffered and kernel quiescent: a yield on
            # the born-fired get event would chain straight back with
            # nothing able to interleave, so reading synchronously is
            # order-identical (see MeshNetwork.transfer).
            msg = ev._value
        else:
            msg = yield ev
        if max_bytes is not None and msg.nbytes > max_bytes:
            raise TruncationError(
                f"rank {self.rank}: message of {msg.nbytes} bytes from rank "
                f"{msg.src} (tag {msg.tag}) exceeds the {max_bytes}-byte buffer"
            )
        return msg.payload

    def recv_msg(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive returning the full :class:`Message` envelope."""
        if source != ANY_SOURCE:
            self._check_peer(source)
        ev = self.comm._match(self.rank, source, tag)
        kernel = self.kernel
        if ev._ok and not kernel._lane and not kernel._due:
            msg = ev._value  # quiescent fast path, same argument as recv()
        else:
            msg = yield ev
        return msg

    # -- collectives ----------------------------------------------------------
    def _next_coll_tag(self) -> int:
        """Reserved tag for the next collective this rank participates in.

        Ranks call collectives in program order, so equal sequence numbers
        across ranks always refer to the same logical collective.
        """
        tag = _COLLECTIVE_TAG_BASE - self._coll_seq
        self._coll_seq += 1
        return tag

    def barrier(self):
        """Dissemination barrier: log2(P) rounds of pairwise messages."""
        tag = self._next_coll_tag()
        size, rank = self.size, self.rank
        if size == 1:
            return
        round_no = 0
        dist = 1
        while dist < size:
            dest = (rank + dist) % size
            src = (rank - dist) % size
            self._isend(("bar", round_no), dest, tag)
            yield from self._recv_internal(src, tag)
            dist <<= 1
            round_no += 1

    def bcast(self, payload: Any, root: int = 0):
        """Binomial-tree broadcast; returns the payload on every rank."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        size = self.size
        if size == 1:
            return payload
        vrank = (self.rank - root) % size  # virtual rank with root at 0
        # Receive from parent (unless root).
        if vrank != 0:
            parent = (self._binomial_parent(vrank) + root) % size
            payload = yield from self._recv_internal(parent, tag)
        # Forward to children.
        for vchild in self._binomial_children(vrank, size):
            child = (vchild + root) % size
            self._isend(payload, child, tag)
        return payload

    def gather(self, payload: Any, root: int = 0):
        """Linear gather; root returns the list indexed by rank, others None."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        if self.rank == root:
            out: List[Any] = [None] * self.size
            out[root] = payload
            for _ in range(self.size - 1):
                msg = yield self.comm._match(self.rank, ANY_SOURCE, tag)
                out[msg.src] = msg.payload
            return out
        req = self._isend(payload, root, tag)
        yield from req.wait()
        return None

    def scatter(self, payloads: Optional[Sequence[Any]], root: int = 0):
        """Linear scatter; every rank returns its element of ``payloads``."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise MPIError(
                    f"scatter root needs exactly {self.size} payloads"
                )
            for dest in range(self.size):
                if dest != root:
                    self._isend(payloads[dest], dest, tag)
            return payloads[root]
        item = yield from self._recv_internal(root, tag)
        return item

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any]):
        """Reduce-to-root then broadcast; returns the reduction everywhere."""
        gathered = yield from self.gather(value, root=0)
        if self.rank == 0:
            acc = gathered[0]
            for item in gathered[1:]:
                acc = op(acc, item)
        else:
            acc = None
        result = yield from self.bcast(acc, root=0)
        return result

    # -- helpers ---------------------------------------------------------------
    def _recv_internal(self, source: int, tag: int):
        msg = yield self.comm._match(self.rank, source, tag)
        return msg.payload

    @staticmethod
    def _binomial_parent(vrank: int) -> int:
        """Parent of ``vrank`` in a binomial broadcast tree rooted at 0."""
        # Clear the lowest set bit.
        return vrank & (vrank - 1)

    @staticmethod
    def _binomial_children(vrank: int, size: int) -> List[int]:
        """Children of ``vrank`` in a binomial tree over ``size`` ranks."""
        # Child = vrank | 2^k for every 2^k below vrank's lowest set bit
        # (all powers of two for the root), so that clearing the child's
        # lowest set bit recovers vrank — the inverse of _binomial_parent.
        lowbit = vrank & -vrank if vrank else size
        children = []
        bit = 1
        while bit < lowbit and bit < size:
            child = vrank | bit
            if child < size:
                children.append(child)
            bit <<= 1
        return children

    def _check_peer(self, rank: int) -> None:
        if not (0 <= rank < self.comm.size):
            raise MPIError(
                f"peer rank {rank} outside communicator of size {self.comm.size}"
            )

    @staticmethod
    def _check_tag(tag: int) -> None:
        if tag < 0:
            raise MPIError(f"user tags must be >= 0, got {tag}")
