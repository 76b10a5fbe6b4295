"""Slab readers: the per-node access methods behind the I/O strategies.

Each reading node (the Doppler task under embedded I/O, the dedicated
read task under separate I/O) owns one reader for its fixed range block.
The offset/length are set at construction — the paper's "read length and
file offset ... set only during initialisation" — and CPI ``k`` is read
from round-robin file ``k % n_files``.

The hierarchy replaces the old ``_SlabReader`` monolith:

* :class:`SyncReader` — one blocking striped read per CPI (the PIOFS
  behaviour);
* :class:`AsyncPrefetchReader` — a configurable-depth pipeline of posted
  ``iread`` requests (depth 1 reproduces the paper's overlap of reading
  CPI *k+1* with computing CPI *k* bit-identically);
* :class:`SievingSyncReader` / :class:`SievingAsyncReader` — data
  sieving: widen the request to whole stripe units and discard the pad;
* :class:`TwoPhaseReader` — collective two-phase I/O: phase one reads
  stripe-aligned contiguous chunks, phase two redistributes slab pieces
  over the mesh.

Deadline/drop handling (graceful degradation under server faults) is
shared via :class:`SlabReader`, as is in-flight request cleanup:
``close()`` observes and interrupts any read still outstanding — a
prefetch orphaned by a deadline drop or an early teardown no longer
leaks as an unobserved background process.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.metrics import DroppedCpi
from repro.errors import ConfigurationError, IOFaultError
from repro.mpi.datatypes import Phantom
from repro.mpi.request import Request
from repro.pfs.base import OpenMode
from repro.sim.events import Event
from repro.sim.process import Process
from repro.trace.record import Phase

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DROPPED",
    "EXCHANGE_TAG_BASE",
    "open_round_robin",
    "declare_access_pattern",
    "SlabReader",
    "SyncReader",
    "AsyncPrefetchReader",
    "SievingSyncReader",
    "SievingAsyncReader",
    "ListIOReader",
    "TwoPhaseReader",
]

#: Sentinel returned by a reader for a CPI abandoned at the
#: graceful-degradation read deadline (timing mode carries no payload, so
#: ``None`` is ambiguous).
DROPPED = object()

#: Tag space of the two-phase redistribution, disjoint from the per-CPI
#: ``data_tag`` range so exchange messages can never match pipeline data.
EXCHANGE_TAG_BASE = 1 << 20


def open_round_robin(ctx):
    """Open every round-robin data file with gopen/M_ASYNC semantics."""
    fs = ctx.fileset.fs
    node_id = ctx.rc.comm.node_of(ctx.rc.rank)
    return [
        fs.open(f"{ctx.fileset.prefix}{f}.dat", node_id, OpenMode.M_ASYNC)
        for f in range(ctx.fileset.n_files)
    ]


def _discard(_event) -> None:
    """No-op event observer: swallows a cancelled read's late outcome."""


class SlabReader:
    """Shared state and deadline/drop/cleanup machinery of all readers."""

    def __init__(self, ctx, rlo: int, rhi: int) -> None:
        self.ctx = ctx
        self.rlo, self.rhi = rlo, rhi
        self.offset, self.nbytes = ctx.fileset.slab_extent(rlo, rhi)
        # The extent actually issued to the file system; access methods
        # that over-read (data sieving) widen it and trim in _extract.
        self.read_offset, self.read_nbytes = self.offset, self.nbytes
        self.handles = open_round_robin(ctx)
        self.fs = ctx.fileset.fs
        #: (cpi, event) of reads posted but abandoned (deadline drops).
        self._orphans: List[Tuple[int, Event]] = []
        metrics = getattr(ctx, "metrics", None)
        if metrics is not None:
            # Outstanding-prefetch depth per reading node: how far the
            # access method's read-ahead actually runs ahead of consumption.
            metrics.gauge(
                "reader_outstanding_reads",
                help="posted slab reads not yet completed nor cancelled",
                fn=self.outstanding_requests,
                **ctx.tenant_labels(task=ctx.name, node=str(ctx.local)),
            )

    def _handle(self, cpi: int):
        return self.handles[cpi % self.ctx.fileset.n_files]

    # -- the access method --------------------------------------------------
    def prefetch(self, cpi: int) -> None:
        """Post read-ahead for ``cpi`` (no-op for synchronous readers)."""

    def read(self, cpi: int):
        """Process generator: obtain the slab bytes for ``cpi``.

        With :attr:`ExecutionConfig.read_deadline` set, the wait is
        bounded: a read that misses the deadline (or fails with an
        exhausted-retries I/O fault) yields the :data:`DROPPED` sentinel
        instead of stalling — graceful degradation under server faults.
        """
        raise NotImplementedError

    def _extract(self, raw):
        """Trim a completed read down to the slab extent (identity here)."""
        return raw

    # -- deadline drops ------------------------------------------------------
    def _drop(self, cpi: int, t0: float):
        """Record the sacrificed CPI; the pipeline keeps its beat."""
        ctx = self.ctx
        ctx.record(cpi, Phase.DROPPED, t0)
        ctx.results.setdefault("dropped_cpis", []).append(
            DroppedCpi(task=ctx.name, node=ctx.local, cpi=cpi, waited=ctx.now - t0)
        )
        return DROPPED

    # -- decode --------------------------------------------------------------
    def slab_array(self, raw) -> Optional[np.ndarray]:
        """Decode file bytes into the (J, N, R') slab (compute mode).

        A dropped CPI decodes to a zero slab: downstream numerics keep
        their shapes, the sacrificed data simply contains no targets.
        """
        if raw is DROPPED:
            import numpy as np

            p = self.ctx.params
            return np.zeros(
                (p.n_channels, p.n_pulses, self.rhi - self.rlo), dtype=p.dtype
            )
        if isinstance(raw, Phantom):
            return None
        from repro.stap.datacube import DataCube

        return DataCube.slab_from_file_bytes(raw, self.ctx.params, self.rlo, self.rhi)

    # -- teardown ------------------------------------------------------------
    def _inflight(self) -> List[Tuple[int, Event]]:
        """(cpi, event) of every read this reader still has in flight."""
        return list(self._orphans)

    def outstanding_requests(self) -> int:
        """In-flight reads not yet completed nor cancelled."""
        return sum(1 for _, ev in self._inflight() if not ev.triggered)

    def _drain(self) -> None:
        """Observe and cancel every in-flight read (see ``close``)."""
        for cpi, event in self._inflight():
            if event.triggered:
                continue
            # Observe the event first: a read that fails *after* being
            # cancelled (or after its deadline fired) must be swallowed,
            # not surfaced as an unobserved process failure.
            event.callbacks.append(_discard)
            if isinstance(event, Process) and event.is_alive:
                event.interrupt("reader closed")
            self.ctx.results.setdefault("cancelled_reads", []).append(
                (self.ctx.name, self.ctx.local, cpi)
            )
        self._orphans.clear()

    def close(self) -> None:
        """Drain in-flight reads, then close every data-file handle."""
        self._drain()
        for h in self.handles:
            h.close()


class SyncReader(SlabReader):
    """One blocking striped read per CPI (synchronous file systems)."""

    def read(self, cpi: int):
        if self.ctx.cfg.read_deadline is not None:
            raw = yield from self._read_with_deadline(cpi)
            return raw
        self.ctx.fileset.ensure_cpi(cpi)
        raw = yield from self.fs.read(
            self._handle(cpi), self.read_offset, self.read_nbytes
        )
        return self._extract(raw)

    def _read_with_deadline(self, cpi: int):
        """Race the slab read against the per-CPI deadline."""
        ctx = self.ctx
        kernel = ctx.kernel
        t0 = ctx.now
        ctx.fileset.ensure_cpi(cpi)
        event = kernel.process(
            self.fs.read(self._handle(cpi), self.read_offset, self.read_nbytes),
            name=f"deadline-read:{ctx.name}[{ctx.local}]@{cpi}",
        )
        try:
            fired, value = yield kernel.any_of(
                [event, kernel.timeout(ctx.cfg.read_deadline)]
            )
        except IOFaultError:
            # Retries exhausted before the deadline: same degradation.
            return self._drop(cpi, t0)
        if fired is event:
            return self._extract(value)
        self._orphans.append((cpi, event))
        return self._drop(cpi, t0)


class AsyncPrefetchReader(SlabReader):
    """A depth-``prefetch_depth`` pipeline of posted ``iread`` requests.

    Depth 1 is the paper's Paragon overlap: while CPI *k* computes, the
    read of CPI *k+1* is already in flight.  Greater depths keep more
    CPIs posted, hiding longer read latencies at the cost of buffering.
    """

    def __init__(self, ctx, rlo: int, rhi: int, prefetch_depth: int = 1) -> None:
        super().__init__(ctx, rlo, rhi)
        if prefetch_depth < 1:
            raise ConfigurationError(
                f"prefetch_depth must be >= 1, got {prefetch_depth}"
            )
        self.prefetch_depth = prefetch_depth
        self._pending: "deque[Tuple[int, Request]]" = deque()
        self._next_cpi: Optional[int] = None

    def prefetch(self, cpi: int) -> None:
        """Top up the posted-read window, starting no earlier than ``cpi``."""
        nxt = cpi if self._next_cpi is None else max(cpi, self._next_cpi)
        n_cpis = self.ctx.cfg.n_cpis
        while len(self._pending) < self.prefetch_depth and nxt < n_cpis:
            self.ctx.fileset.ensure_cpi(nxt)
            self._pending.append(
                (nxt, self.fs.iread(self._handle(nxt), self.read_offset, self.read_nbytes))
            )
            nxt += 1
        self._next_cpi = nxt

    def read(self, cpi: int):
        if self.ctx.cfg.read_deadline is not None:
            raw = yield from self._read_with_deadline(cpi)
            return raw
        if not self._pending:
            self.prefetch(cpi)
        _, req = self._pending.popleft()
        raw = yield from req.wait()
        return self._extract(raw)

    def _read_with_deadline(self, cpi: int):
        """Race the posted read against the per-CPI deadline."""
        ctx = self.ctx
        kernel = ctx.kernel
        t0 = ctx.now
        if not self._pending:
            self.prefetch(cpi)
        _, req = self._pending.popleft()
        event = req._event
        try:
            fired, value = yield kernel.any_of(
                [event, kernel.timeout(ctx.cfg.read_deadline)]
            )
        except IOFaultError:
            # Retries exhausted before the deadline: same degradation.
            return self._drop(cpi, t0)
        if fired is event:
            return self._extract(value)
        self._orphans.append((cpi, event))
        return self._drop(cpi, t0)

    def _inflight(self) -> List[Tuple[int, Event]]:
        return list(self._orphans) + [(c, r._event) for c, r in self._pending]

    def _drain(self) -> None:
        super()._drain()
        self._pending.clear()


class _SievingMixin:
    """Widen the issued extent to whole stripe units; trim on completion.

    Data sieving (Thakur et al., *Optimizing Noncontiguous Accesses in
    MPI-IO*): issue one large conforming request covering the wanted
    extent plus a "hole" of unwanted bytes, then discard the hole in
    memory.  In this reproduction's range-major layout a node's slab is
    already contiguous, so the hole is the stripe-unit alignment pad —
    the request becomes whole-unit-conforming at the cost of moving (and
    paying disk time for) the pad bytes.  See ``docs/io_strategies.md``
    for why the classic request-count reduction needs noncontiguity.
    """

    def _init_sieve(self) -> None:
        # The ``sieve_buffer_size`` hint replaces the stripe unit as the
        # alignment granularity: smaller buffers cap the pad below one
        # unit, larger buffers widen the request to bigger conforming
        # blocks (more pad, better seek amortisation).  Unset keeps the
        # classic whole-stripe-unit widening bit-identically.
        unit = self.fs.hints.get("sieve_buffer_size") or self.fs.layout.stripe_unit
        end = self.offset + self.nbytes
        lo = (self.offset // unit) * unit
        hi = min(-(-end // unit) * unit, self.ctx.params.cube_nbytes)
        self.read_offset, self.read_nbytes = lo, hi - lo

    def _extract(self, raw):
        if isinstance(raw, (bytes, bytearray, memoryview)):
            skip = self.offset - self.read_offset
            return bytes(raw[skip : skip + self.nbytes])
        return raw  # Phantom (timing mode) needs no trim


class SievingSyncReader(_SievingMixin, SyncReader):
    """Data sieving over blocking reads."""

    def __init__(self, ctx, rlo: int, rhi: int) -> None:
        super().__init__(ctx, rlo, rhi)
        self._init_sieve()


class SievingAsyncReader(_SievingMixin, AsyncPrefetchReader):
    """Data sieving over posted asynchronous reads."""

    def __init__(self, ctx, rlo: int, rhi: int, prefetch_depth: int = 1) -> None:
        super().__init__(ctx, rlo, rhi, prefetch_depth)
        self._init_sieve()


class ListIOReader(SlabReader):
    """List I/O: one batched multi-file request per directory per window.

    The round-robin fileset holds ``n_files`` distinct files, so a whole
    window of ``n_files`` consecutive CPIs touches ``n_files`` different
    slabs that can all ship to the file system in **one** access list
    (:meth:`~repro.pfs.base.ParallelFileSystem.read_list`): each stripe
    directory services the window as a single seek-amortised request
    instead of one request per CPI.  This is the Thakur et al. "list
    I/O" optimisation mapped onto this reproduction's layout — the
    noncontiguity lives *across files*, not within a slab.

    The next window is posted only once the previous window's payloads
    have been extracted: the radar overwrites the round-robin files
    (``ensure_cpi``), so a still-in-flight read of file *f* must not
    overlap re-population of file *f* with a newer CPI.
    """

    def __init__(self, ctx, rlo: int, rhi: int) -> None:
        super().__init__(ctx, rlo, rhi)
        self.window = ctx.fileset.n_files
        self._req: Optional[Tuple[int, Request]] = None
        self._results: Optional[Tuple[int, list]] = None

    def _post_window(self, base: int) -> None:
        hi = min(base + self.window, self.ctx.cfg.n_cpis)
        accesses = []
        for cpi in range(base, hi):
            self.ctx.fileset.ensure_cpi(cpi)
            accesses.append((self._handle(cpi), self.read_offset, self.read_nbytes))
        self._req = (base, self.fs.iread_list(accesses))

    def prefetch(self, cpi: int) -> None:
        """Post the access list for ``cpi``'s window, if safe to do so."""
        if cpi >= self.ctx.cfg.n_cpis or self._req is not None:
            return
        base = (cpi // self.window) * self.window
        if self._results is not None and self._results[0] == base:
            return  # window already extracted; nothing left to post
        self._post_window(base)

    def read(self, cpi: int):
        base = (cpi // self.window) * self.window
        if self._results is None or self._results[0] != base:
            if self._req is None:
                self._post_window(base)
            posted_base, req = self._req
            payloads = yield from req.wait()
            self._req = None
            self._results = (posted_base, payloads)
        return self._extract(self._results[1][cpi - base])

    def _inflight(self) -> List[Tuple[int, Event]]:
        extra = []
        if self._req is not None:
            base, req = self._req
            extra.append((base, req._event))
        return list(self._orphans) + extra

    def _drain(self) -> None:
        super()._drain()
        self._req = None


def declare_access_pattern(ctx) -> None:
    """Declare the reading task's collective access pattern (ViPIOS-style).

    Every reading node declares the *union* of all participants' slab
    extents for each round-robin file — the collective pattern, like an
    MPI-IO file view — so the declaration is identical from every node
    and :meth:`~repro.pfs.base.ParallelFileSystem.declare_access` is
    idempotent regardless of setup order.  The servers then place the
    pattern's stripe units in contiguous blocks over the directories,
    landing each node's slab on the minimal directory set.
    """
    plan = ctx.plan
    part = plan.ranges_read if ctx.name == "read" else plan.ranges_doppler
    bounds = [part.bounds(i) for i in range(part.parts) if part.size(i) > 0]
    lo = min(b[0] for b in bounds)
    hi = max(b[1] for b in bounds)
    off, nb = ctx.fileset.slab_extent(lo, hi)
    fs = ctx.fileset.fs
    for f in range(ctx.fileset.n_files):
        fs.declare_access(f"{ctx.fileset.prefix}{f}.dat", [(off, nb)])


class TwoPhaseReader(SlabReader):
    """Collective two-phase I/O across the reading task's nodes.

    Phase one: the *m* participating nodes read disjoint stripe-aligned
    contiguous chunks of the CPI file (participant *j* takes the *j*-th
    of *m* near-equal runs of whole stripe units).  Phase two: every
    node forwards each chunk piece to the node whose range slab contains
    it and assembles its own slab from the pieces it receives — fewer,
    larger, conforming disk requests traded against extra mesh traffic.

    The exchange is deadlock-free because ``isend`` is buffered (the
    request completes on delivery, never blocking the sender), so every
    node can post all its sends before receiving.  A read deadline is
    rejected at validation time: dropping one node's chunk would
    desynchronise everyone else's exchange.
    """

    def __init__(self, ctx, rlo: int, rhi: int) -> None:
        super().__init__(ctx, rlo, rhi)
        plan = ctx.plan
        part = plan.ranges_read if ctx.name == "read" else plan.ranges_doppler
        self.peer_ranks = ctx.ranks(ctx.name)
        self.participants = [i for i in range(part.parts) if part.size(i) > 0]
        #: local -> [slab_lo, slab_hi) byte extent in any CPI file.
        self._slabs = {}
        for local in self.participants:
            off, nb = ctx.fileset.slab_extent(*part.bounds(local))
            self._slabs[local] = (off, off + nb)
        # Stripe-aligned contiguous chunks: near-equal runs of whole
        # units over the phase-one aggregators.  The ``cb_nodes`` hint
        # (ROMIO's collective-buffering node count) caps how many
        # participants aggregate; the rest read nothing in phase one and
        # only receive their slab in the exchange.  Unset means every
        # participant aggregates — the classic behaviour, bit-identically.
        unit = self.fs.layout.stripe_unit
        cube = ctx.params.cube_nbytes
        units_total = -(-cube // unit)
        m = len(self.participants)
        cb = self.fs.hints.get("cb_nodes")
        n_agg = min(cb, m) if cb else m
        self._chunks = {}
        for j, local in enumerate(self.participants):
            if j < n_agg:
                lo = ((j * units_total) // n_agg) * unit
                hi = min((((j + 1) * units_total) // n_agg) * unit, cube)
            else:
                lo = hi = 0
            self._chunks[local] = (lo, max(hi, lo))
        self.chunk_off, self.chunk_end = self._chunks[ctx.local]
        self.use_async = self.fs.supports_async
        self._pending: "deque[Tuple[int, Request]]" = deque()
        self._next_cpi: Optional[int] = None

    def prefetch(self, cpi: int) -> None:
        """Post the next chunk read (async file systems only)."""
        if not self.use_async or self.chunk_end <= self.chunk_off:
            return
        nxt = cpi if self._next_cpi is None else max(cpi, self._next_cpi)
        if self._pending or nxt >= self.ctx.cfg.n_cpis:
            return
        self.ctx.fileset.ensure_cpi(nxt)
        self._pending.append(
            (nxt, self.fs.iread(self._handle(nxt), self.chunk_off, self.chunk_end - self.chunk_off))
        )
        self._next_cpi = nxt + 1

    def read(self, cpi: int):
        ctx = self.ctx
        compute = ctx.cfg.compute
        # Phase one: read my stripe-aligned chunk.
        chunk = None
        if self.chunk_end > self.chunk_off:
            if self.use_async:
                if not self._pending:
                    self.prefetch(cpi)
                _, req = self._pending.popleft()
                chunk = yield from req.wait()
            else:
                ctx.fileset.ensure_cpi(cpi)
                chunk = yield from self.fs.read(
                    self._handle(cpi), self.chunk_off, self.chunk_end - self.chunk_off
                )
        # Phase two: post every outgoing piece, then assemble my slab.
        tag = EXCHANGE_TAG_BASE + cpi
        reqs: List[Request] = []
        for local in self.participants:
            if local == ctx.local:
                continue
            s_lo, s_hi = self._slabs[local]
            lo, hi = max(s_lo, self.chunk_off), min(s_hi, self.chunk_end)
            if hi <= lo:
                continue
            piece = (
                chunk[lo - self.chunk_off : hi - self.chunk_off]
                if compute
                else None
            )
            reqs.append(
                ctx.rc.isend(
                    ctx.payload(piece, hi - lo, kind="two-phase"),
                    self.peer_ranks[local],
                    tag,
                )
            )
        buf = bytearray(self.nbytes) if compute else None
        my_end = self.offset + self.nbytes
        for local in self.participants:
            c_lo, c_hi = self._chunks[local]
            lo, hi = max(self.offset, c_lo), min(my_end, c_hi)
            if hi <= lo:
                continue
            if local == ctx.local:
                piece = (
                    chunk[lo - self.chunk_off : hi - self.chunk_off]
                    if compute
                    else None
                )
            else:
                piece = yield from ctx.rc.recv(self.peer_ranks[local], tag)
            if buf is not None:
                buf[lo - self.offset : hi - self.offset] = piece
        if reqs:
            yield from Request.wait_all(ctx.kernel, reqs)
        if compute:
            return bytes(buf)
        return Phantom(self.nbytes)

    def _inflight(self) -> List[Tuple[int, Event]]:
        return list(self._orphans) + [(c, r._event) for c, r in self._pending]

    def _drain(self) -> None:
        super()._drain()
        self._pending.clear()
