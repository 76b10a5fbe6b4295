"""Common machinery of the simulated parallel file systems.

:class:`ParallelFileSystem` implements striped reads/writes over
:class:`~repro.pfs.server.IOServer` queues; concrete subclasses add the
platform API differences (async support, open modes).

Open modes model Intel PFS semantics the paper relies on:

* ``M_UNIX`` — shared file pointer, atomic accesses: every read/write on
  the file acquires a global file token, serialising all nodes' accesses.
* ``M_ASYNC`` — independent pointers, no atomicity: accesses from
  different nodes proceed concurrently.  The paper opens its data files
  with ``gopen(..., M_ASYNC)`` "because it offers better performance and
  causes less system overhead" — the token serialisation is exactly the
  overhead being avoided.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import (
    ConfigurationError,
    FileExistsInFSError,
    FileNotOpenError,
    IOFaultError,
    IORequestTimeoutError,
    ListIOUnsupportedError,
    NoSuchFileError,
    RetriesExhaustedError,
)
from repro.machine.machine import Machine
from repro.mpi.datatypes import Phantom, nbytes_of
from repro.pfs.backing import BackingStore
from repro.pfs.blockdev import DiskSpec
from repro.pfs.server import IOServer
from repro.pfs.stripe import StripeLayout, UnitRun
from repro.sim.resources import Resource

__all__ = ["OpenMode", "FileHandle", "RetryPolicy", "ParallelFileSystem"]


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side fault handling knobs (all in simulated time).

    After every failed cycle through a request's replica set the client
    sleeps ``min(backoff_base * 2**cycle, backoff_cap)`` seconds before
    retrying, giving the classic capped exponential schedule
    0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0, ... — enough budget for a
    16-attempt client to ride out a transient outage of ~10 simulated
    seconds.  ``request_timeout`` bounds a single service attempt;
    ``None`` waits for the server (queueing on a busy disk is normal,
    not a fault).
    """

    max_attempts: int = 16
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    request_timeout: Optional[float] = None

    def backoff(self, cycle: int) -> float:
        """Delay after the ``cycle``-th failed pass over the replicas."""
        return min(self.backoff_base * (2 ** cycle), self.backoff_cap)


class OpenMode(enum.Enum):
    """File I/O modes (Intel PFS nomenclature)."""

    M_UNIX = "M_UNIX"
    M_ASYNC = "M_ASYNC"


class FileHandle:
    """A node's handle on an open file."""

    __slots__ = ("fs", "path", "node_id", "mode", "closed")

    def __init__(self, fs: "ParallelFileSystem", path: str, node_id: int, mode: OpenMode) -> None:
        self.fs = fs
        self.path = path
        self.node_id = node_id
        self.mode = mode
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise FileNotOpenError(f"{self.path} (handle already closed)")

    def close(self) -> None:
        """Release the handle (no simulated time cost); idempotent."""
        if not self.closed:
            self.closed = True
            self.fs._open_handles -= 1

    def __enter__(self) -> "FileHandle":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<FileHandle {self.path!r} node={self.node_id} {self.mode.value} {state}>"


class ParallelFileSystem:
    """Striped file system over the machine's I/O nodes.

    Parameters
    ----------
    machine:
        Host machine; must have at least one I/O node.  Stripe directory
        ``d`` is hosted on I/O node ``d % machine.n_io`` (directories
        share nodes when there are more directories than I/O nodes).
    stripe_unit:
        Striping granularity in bytes (64 KiB on both of the paper's
        machines).
    stripe_factor:
        Number of stripe directories.
    disk:
        Per-directory disk service model.
    name:
        Label for reports.
    replication:
        Copies of each stripe unit (chained declustering over successive
        directories).  Reads fail over between replicas and writes
        mirror to every replica; every request retries transient faults
        under the :class:`RetryPolicy`.
    retry:
        Client :class:`RetryPolicy`; defaults are used when omitted.
    """

    #: Whether this file system supports iread/iwrite (PFS yes, PIOFS no).
    supports_async: bool = False
    #: Whether this file system supports list I/O — batching a whole
    #: access list into one request per stripe directory (PFS yes,
    #: PIOFS no; see :meth:`read_list`).
    supports_list_io: bool = False

    def __init__(
        self,
        machine: Machine,
        stripe_unit: int,
        stripe_factor: int,
        disk: DiskSpec,
        name: str = "pfs",
        replication: int = 1,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if machine.n_io < 1:
            raise ConfigurationError(
                "parallel file system needs a machine with I/O nodes"
            )
        self.machine = machine
        self.kernel = machine.kernel
        self.layout = StripeLayout(stripe_unit, stripe_factor, replication)
        # Replica set of every directory, primary first (per-request
        # lookups stay off the hot path).
        self._replicas = [
            self.layout.replica_directories(d) for d in range(stripe_factor)
        ]
        self.disk = disk
        self.name = name
        self.backing = BackingStore()
        self.retry_policy = retry if retry is not None else RetryPolicy()
        self._open_handles = 0
        #: Client-side fault accounting: retry loop iterations that hit a
        #: fault, and reads ultimately satisfied by a non-primary replica.
        self.client_retries = 0
        self.client_failovers = 0
        self.servers: List[IOServer] = [
            IOServer(
                machine,
                machine.io_node_id(d % machine.n_io),
                disk,
                name=f"{name}.dir{d}",
            )
            for d in range(stripe_factor)
        ]
        # Per-path shared-file-pointer tokens for M_UNIX handles.
        self._file_tokens: Dict[str, Resource] = {}
        #: ROMIO-style hints (``sieve_buffer_size``, ``cb_nodes``,
        #: ``list_io_max_runs``), populated by the executor from
        #: :class:`~repro.core.executor.FSConfig`; readers and the
        #: list-I/O path consult it.  Empty = all defaults.
        self.hints: Dict[str, int] = {}
        # Server-directed placement state: per-path declared access
        # pattern and the unit -> directory remap computed from it.
        self._declared: Dict[str, Tuple[Tuple[int, int], ...]] = {}
        self._placements: Dict[str, Dict[int, int]] = {}
        #: Cumulative bytes requested per path (reads + writes), counted
        #: client-side at call time.  A plain Python tally — no kernel
        #: interaction — used for per-tenant attribution when several
        #: pipelines share one file system (ViPIOS-style awareness of
        #: *whose* accesses the servers are absorbing).
        self.bytes_by_path: Dict[str, int] = {}

    @property
    def fault_tolerant(self) -> bool:
        """True when replicas or an armed server fault make the fault
        counters meaningful.

        Every client request runs the retry/failover path; this only
        decides whether the substrate's ``disk_stats`` and the metrics
        registry report the fault counters, so fault-free results carry
        none.
        """
        return self.layout.replication > 1 or any(
            s.fault_armed for s in self.servers
        )

    # -- namespace ---------------------------------------------------------
    def create(
        self,
        path: str,
        data: Optional[Union[bytes, np.ndarray]] = None,
        phantom_size: Optional[int] = None,
        exist_ok: bool = False,
    ) -> None:
        """Create a file, optionally pre-populated (no simulated time).

        Use :meth:`write` (through a handle) when the write *cost* should
        appear in the simulation; ``create`` is for initial conditions.
        """
        if self.backing.exists(path) and not exist_ok:
            raise FileExistsInFSError(path)
        if phantom_size is not None:
            self.backing.create(path, phantom=True, size=phantom_size)
        else:
            self.backing.create(path)
            if data is not None:
                self.backing.write(path, 0, data)

    def exists(self, path: str) -> bool:
        """True if the path exists in this file system."""
        return self.backing.exists(path)

    def file_size(self, path: str) -> int:
        """Size of a file in bytes."""
        return self.backing.size(path)

    # -- open/close ----------------------------------------------------------
    def open(self, path: str, node_id: int, mode: OpenMode = OpenMode.M_UNIX) -> FileHandle:
        """Open an existing file from one node."""
        if not self.backing.exists(path):
            raise NoSuchFileError(path)
        if not (0 <= node_id < self.machine.n_total):
            raise ConfigurationError(f"node {node_id} outside machine")
        self._open_handles += 1
        return FileHandle(self, path, node_id, mode)

    def close(self, handle: FileHandle) -> None:
        """Close a handle obtained from :meth:`open`; idempotent."""
        handle.close()

    @property
    def open_handle_count(self) -> int:
        """Handles opened on this FS and not yet closed (leak detector)."""
        return self._open_handles

    def gopen(self, path: str, node_ids: List[int], mode: OpenMode = OpenMode.M_ASYNC) -> List[FileHandle]:
        """Global open: every listed node gets a handle (paper's gopen)."""
        return [self.open(path, n, mode) for n in node_ids]

    def _token(self, path: str) -> Resource:
        res = self._file_tokens.get(path)
        if res is None:
            res = Resource(self.kernel, capacity=1, name=f"{self.name}.tok:{path}")
            self._file_tokens[path] = res
        return res

    # -- server-directed placement -------------------------------------------
    def declare_access(
        self, path: str, extents: Iterable[Tuple[int, int]]
    ) -> Dict[int, int]:
        """Declare ``path``'s access pattern; servers reorganise placement.

        ViPIOS-style server-directed mode: the client announces at open
        time which ``(offset, nbytes)`` extents it will access, and the
        servers remap the declared stripe units from round-robin to
        contiguous blocks over the directories (see
        :meth:`~repro.pfs.stripe.StripeLayout.placement_for_extents`).
        All subsequent reads and writes of ``path`` use the remap.

        Declarations are idempotent: re-declaring the same pattern (every
        node of a gopen declares identically) is a no-op, so declaration
        order between nodes never matters.  No simulated time is charged
        — placement is decided before the run's data is written, like the
        real system reorganising at file-creation time.
        """
        if not self.backing.exists(path):
            raise NoSuchFileError(path)
        norm = tuple(sorted((int(o), int(n)) for o, n in extents if n > 0))
        if self._declared.get(path) == norm:
            return self._placements[path]
        placement = self.layout.placement_for_extents(norm)
        self._declared[path] = norm
        self._placements[path] = placement
        return placement

    def declared_placement(self, path: str) -> Optional[Dict[int, int]]:
        """The active unit -> directory remap for ``path``, if declared."""
        return self._placements.get(path)

    def _map(self, path: str, offset: int, nbytes: int):
        """Per-directory runs of a byte range, honouring any placement."""
        return self.layout.map_range(offset, nbytes, self._placements.get(path))

    # -- data path -------------------------------------------------------------
    def read(self, handle: FileHandle, offset: int, nbytes: int):
        """Process generator: blocking striped read.

        Fans the byte range out to the touched stripe directories, waits
        for every server to service + ship its run, then returns the
        assembled content (``bytes`` or :class:`Phantom`).
        """
        handle._check_open()
        if nbytes < 0 or offset < 0:
            raise ConfigurationError("offset and nbytes must be >= 0")
        self.bytes_by_path[handle.path] = (
            self.bytes_by_path.get(handle.path, 0) + nbytes
        )
        token = self._token(handle.path) if handle.mode is OpenMode.M_UNIX else None
        if token is not None:
            yield token.request()
        try:
            procs = [
                self.kernel.process(
                    self._service_with_retry(run, handle),
                    name=f"read:{handle.path}@dir{run.directory}",
                )
                for run in self._map(handle.path, offset, nbytes)
            ]
            if procs:
                yield self.kernel.all_of(procs)
        finally:
            if token is not None:
                token.release()
        return self.backing.read(handle.path, offset, nbytes)

    def read_list(self, accesses: List[Tuple[FileHandle, int, int]]):
        """Process generator: one batched striped read of a whole access list.

        List I/O (Thakur et al., *Optimizing Noncontiguous Accesses in
        MPI-IO*): the client ships its entire access list — ``(handle,
        offset, nbytes)`` triples, possibly spanning several files — to
        the file system in one call.  All pieces landing on the same
        stripe directory are served as **one** request: one disk-queue
        entry and one seek-amortised service call, instead of one request
        per contiguous piece as :meth:`read` issues per call.

        The ``list_io_max_runs`` hint caps how many contiguous pieces one
        batched request may carry; longer lists are split into ceil-sized
        batches per directory.  Returns the per-access contents in input
        order.  Raises :class:`~repro.errors.ListIOUnsupportedError` on
        file systems without a list-I/O call (PIOFS).
        """
        if not self.supports_list_io:
            raise ListIOUnsupportedError(
                f"{self.name}: no list-I/O call on this file system; "
                "issue one read() per piece instead"
            )
        for handle, offset, nbytes in accesses:
            handle._check_open()
            if nbytes < 0 or offset < 0:
                raise ConfigurationError("offset and nbytes must be >= 0")
            self.bytes_by_path[handle.path] = (
                self.bytes_by_path.get(handle.path, 0) + nbytes
            )
        # Atomic-mode handles still serialise per file; tokens are taken
        # in sorted path order so concurrent lists can never deadlock.
        token_paths = sorted(
            {h.path for h, _, _ in accesses if h.mode is OpenMode.M_UNIX}
        )
        tokens = [self._token(p) for p in token_paths]
        for tok in tokens:
            yield tok.request()
        try:
            per_dir: Dict[int, List[Tuple[UnitRun, FileHandle]]] = {}
            for handle, offset, nbytes in accesses:
                for run in self._map(handle.path, offset, nbytes):
                    per_dir.setdefault(run.directory, []).append((run, handle))
            max_runs = self.hints.get("list_io_max_runs")
            batches: List[Tuple[UnitRun, FileHandle]] = []
            for d in sorted(per_dir):
                pieces = per_dir[d]
                step = max_runs if max_runs else len(pieces)
                for i in range(0, len(pieces), step):
                    group = pieces[i : i + step]
                    batches.append(
                        (
                            UnitRun(
                                directory=d,
                                file_offset=group[0][0].file_offset,
                                nbytes=sum(r.nbytes for r, _ in group),
                                n_units=sum(r.n_units for r, _ in group),
                            ),
                            group[0][1],
                        )
                    )
            procs = [
                self.kernel.process(
                    self._service_with_retry(run, handle),
                    name=f"readl:{handle.path}@dir{run.directory}",
                )
                for run, handle in batches
            ]
            if procs:
                yield self.kernel.all_of(procs)
        finally:
            for tok in reversed(tokens):
                tok.release()
        return [
            self.backing.read(handle.path, offset, nbytes)
            for handle, offset, nbytes in accesses
        ]

    def write(self, handle: FileHandle, offset: int, data: Union[bytes, np.ndarray, Phantom]):
        """Process generator: blocking striped write.

        The payload is shipped client -> each touched server, queued on
        the disks, and stored.  Returns bytes written.
        """
        handle._check_open()
        total = nbytes_of(data)
        self.bytes_by_path[handle.path] = (
            self.bytes_by_path.get(handle.path, 0) + total
        )
        token = self._token(handle.path) if handle.mode is OpenMode.M_UNIX else None
        if token is not None:
            yield token.request()
        try:
            runs = self._map(handle.path, offset, total)
            procs = []
            for run in runs:
                procs.append(
                    self.kernel.process(
                        self._write_one_run(handle, run),
                        name=f"write:{handle.path}@dir{run.directory}",
                    )
                )
            if procs:
                yield self.kernel.all_of(procs)
        finally:
            if token is not None:
                token.release()
        self.backing.write(handle.path, offset, data)
        return total

    # -- retrying client path -------------------------------------------------
    def _attempt_service(self, server: IOServer, run, handle: FileHandle):
        """One deadline-bounded read attempt against one server."""
        timeout_s = self.retry_policy.request_timeout
        proc = self.kernel.process(
            server.service(run.nbytes, run.n_units, handle.node_id),
            name=f"attempt:{handle.path}@{server.name}",
        )
        fired, _ = yield self.kernel.any_of([proc, self.kernel.timeout(timeout_s)])
        if fired is not proc:
            # The attempt is abandoned but keeps running; if it fails
            # later its error is swallowed by the already-fired any_of,
            # and if it *succeeds* later the payload still crosses the
            # network to a client that no longer wants it.  Count that
            # late success as a duplicate ship so traffic reports can
            # separate real deliveries from retry double-ships.
            def _count_duplicate(ev, server=server, nbytes=run.nbytes):
                if ev._ok:
                    server.record_duplicate(nbytes)

            proc.callbacks.append(_count_duplicate)
            raise IORequestTimeoutError(
                f"{server.name}: no reply within {timeout_s}s"
            )

    def _service_with_retry(self, run, handle: FileHandle):
        """Read ``run`` with replica failover, capped exponential backoff.

        Replicas are tried primary-first; the client only backs off after
        a full pass over the replica set fails (failover itself is free —
        the data is simply requested from the mirror).
        """
        policy = self.retry_policy
        bounded = policy.request_timeout is not None
        replicas = self._replicas[run.directory]
        last_exc: Optional[IOFaultError] = None
        for attempt in range(policy.max_attempts):
            server = self.servers[replicas[attempt % len(replicas)]]
            try:
                if bounded:
                    yield from self._attempt_service(server, run, handle)
                else:
                    # Unbounded attempts go straight to the server: one
                    # generator frame per disk request on fault-free runs.
                    yield from server.service(
                        run.nbytes, run.n_units, handle.node_id
                    )
                if attempt % len(replicas) != 0:
                    self.client_failovers += 1
                return
            except IOFaultError as exc:
                last_exc = exc
                self.client_retries += 1
            cycle, pos = divmod(attempt + 1, len(replicas))
            if pos == 0:  # exhausted every replica this cycle: back off
                yield self.kernel.timeout(policy.backoff(cycle - 1))
        raise RetriesExhaustedError(
            f"read of dir {run.directory} failed after {policy.max_attempts} "
            f"attempts over replicas {replicas}"
        ) from last_exc

    def _write_replica_with_retry(self, handle: FileHandle, run, directory: int):
        """Write one replica copy, retrying transient faults with backoff."""
        policy = self.retry_policy
        server = self.servers[directory]
        last_exc: Optional[IOFaultError] = None
        for attempt in range(policy.max_attempts):
            try:
                if handle.node_id != server.node_id:
                    yield from self.machine.network.transfer(
                        handle.node_id, server.node_id, run.nbytes
                    )
                yield from server.service(
                    run.nbytes, run.n_units, handle.node_id, ship=False
                )
                return
            except IOFaultError as exc:
                last_exc = exc
                self.client_retries += 1
            yield self.kernel.timeout(policy.backoff(attempt))
        raise RetriesExhaustedError(
            f"write to dir {directory} failed after {policy.max_attempts} attempts"
        ) from last_exc

    def _write_one_run(self, handle: FileHandle, run):
        """Mirror a write to every replica; fail only if all replicas fail."""
        replicas = self._replicas[run.directory]
        errors: List[IOFaultError] = []
        for directory in replicas:
            try:
                yield from self._write_replica_with_retry(handle, run, directory)
            except IOFaultError as exc:
                errors.append(exc)
        if len(errors) == len(replicas):
            raise RetriesExhaustedError(
                f"write of dir {run.directory}: all {len(replicas)} replicas failed"
            ) from errors[-1]

    # -- stats -------------------------------------------------------------------
    def total_bytes_served(self) -> int:
        """Bytes served across all stripe directories."""
        return sum(s.bytes_served for s in self.servers)

    def bytes_for_prefix(self, prefix: str) -> int:
        """Bytes requested against paths starting with ``prefix``.

        Per-tenant disk-traffic attribution: a scenario names each
        tenant's files with a distinct prefix, so this sum is exactly
        that tenant's share of the client-side request volume.
        """
        return sum(
            n for path, n in self.bytes_by_path.items() if path.startswith(prefix)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r} stripe_factor="
            f"{self.layout.stripe_factor} unit={self.layout.stripe_unit}>"
        )
