"""Slab readers: the per-node access methods behind the I/O strategies.

Each reading node (the Doppler task under embedded I/O, the dedicated
read task under separate I/O) owns one reader for its fixed range block.
The offset/length are set at construction — the paper's "read length and
file offset ... set only during initialisation" — and CPI ``k`` is read
from round-robin file ``k % n_files``.

An access method is an issued extent plus how it is issued.
:class:`SlabReader` owns both: a window of ``depth`` posted ``iread``
requests where the file system can post them (depth 1 is the paper's
Paragon overlap), one blocking read per CPI where it cannot (depth 0,
the PIOFS behaviour), and ``sieve=True`` widening the extent to whole
stripe units (data sieving).  It also owns the one deadline race
(graceful degradation under server faults) and the in-flight cleanup:
``close()`` observes and interrupts any read still outstanding, so a
prefetch orphaned by a deadline drop or an early teardown never leaks
as an unobserved background process.  The two collective readers reuse
that window: :class:`TwoPhaseReader` reads its aligned chunk through it
before the mesh exchange, and :class:`ListIOReader` posts one access
list per file window into it.
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
    """One node's slab reads: an issued extent, a posted window, a deadline.

    ``depth`` posted ``iread`` requests run ahead of consumption (depth 1
    reproduces the paper's overlap of reading CPI *k+1* with computing
    CPI *k* bit-identically; greater depths hide longer read latencies
    at the cost of buffering).  On a file system without async reads the
    reader takes depth 0: one blocking striped read per CPI.

    ``sieve=True`` is data sieving (Thakur et al., *Optimizing
    Noncontiguous Accesses in MPI-IO*): issue one conforming request
    covering the slab plus a "hole" of unwanted bytes, then discard the
    hole in memory.  In this reproduction's range-major layout a node's
    slab is already contiguous, so the hole is the stripe-unit alignment
    pad — the request becomes whole-unit-conforming at the cost of moving
    (and paying disk time for) the pad bytes.  See
    ``docs/io_strategies.md`` for why the classic request-count reduction
    needs noncontiguity.
    """

    def __init__(self, ctx, rlo: int, rhi: int, depth: int = 1, sieve: bool = False) -> None:
        if depth < 0:
            raise ConfigurationError(f"reader depth must be >= 0, got {depth}")
        self.ctx = ctx
        self.rlo, self.rhi = rlo, rhi
        self.offset, self.nbytes = ctx.fileset.slab_extent(rlo, rhi)
        self.handles = open_round_robin(ctx)
        self.fs = fs = ctx.fileset.fs
        self.depth = depth if fs.supports_async else 0
        # The extent actually issued to the file system; _extract trims
        # it back to the slab whenever the two differ.
        self.read_offset, self.read_nbytes = self.offset, self.nbytes
        if sieve:
            # The ``sieve_buffer_size`` hint replaces the stripe unit as
            # the alignment granularity: smaller buffers cap the pad
            # below one unit, larger ones widen the request to bigger
            # conforming blocks (more pad, better seek amortisation).
            # Unset keeps the classic whole-stripe-unit widening.
            unit = fs.hints.get("sieve_buffer_size") or fs.layout.stripe_unit
            end = self.offset + self.nbytes
            lo = (self.offset // unit) * unit
            hi = min(-(-end // unit) * unit, ctx.params.cube_nbytes)
            self.read_offset, self.read_nbytes = lo, hi - lo
        #: (cpi, request) of posted reads, oldest first.
        self._pending: "deque[Tuple[int, Request]]" = deque()
        self._next_cpi = 0
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
    def _issue(self, cpi: int, call):
        """Start ``call`` (``fs.read`` or ``fs.iread``) on ``cpi``'s extent."""
        self.ctx.fileset.ensure_cpi(cpi)
        return call(self._handle(cpi), self.read_offset, self.read_nbytes)

    def prefetch(self, cpi: int) -> None:
        """Top up the posted-read window, starting no earlier than ``cpi``."""
        nxt = max(cpi, self._next_cpi)
        n_cpis = self.ctx.cfg.n_cpis
        while len(self._pending) < self.depth and nxt < n_cpis:
            self._pending.append((nxt, self._issue(nxt, self.fs.iread)))
            nxt += 1
        self._next_cpi = nxt

    def _posted(self, cpi: int) -> Request:
        """The oldest posted read, posting the window first if it is empty."""
        if not self._pending:
            self.prefetch(cpi)
        return self._pending.popleft()[1]

    def _fetch(self, cpi: int):
        """Process generator returning the issued extent's raw bytes for
        ``cpi``: the wait on a posted read, or at depth 0 a blocking read.

        The generator is returned rather than delegated to, so no extra
        frame is resumed at each step of a blocking read.
        """
        if self.depth:
            return self._posted(cpi).wait()
        return self._issue(cpi, self.fs.read)

    def read(self, cpi: int):
        """Process generator: obtain the slab bytes for ``cpi``.

        With :attr:`ExecutionConfig.read_deadline` set, the wait is
        bounded: a read that misses the deadline (or fails with an
        exhausted-retries I/O fault) yields the :data:`DROPPED` sentinel
        instead of stalling — graceful degradation under server faults.
        """
        ctx = self.ctx
        deadline = ctx.cfg.read_deadline
        if deadline is None:
            raw = yield from self._fetch(cpi)
            return self._extract(raw)
        # Race the read — a posted request, or a blocking read spawned
        # as its own process — against the per-CPI deadline.
        kernel = ctx.kernel
        t0 = ctx.now
        if self.depth:
            event = self._posted(cpi)._event
        else:
            event = kernel.process(
                self._issue(cpi, self.fs.read),
                name=f"deadline-read:{ctx.name}[{ctx.local}]@{cpi}",
            )
        try:
            fired, value = yield kernel.any_of([event, kernel.timeout(deadline)])
        except IOFaultError:
            # Retries exhausted before the deadline: same degradation.
            return self._drop(cpi, t0)
        if fired is event:
            return self._extract(value)
        self._orphans.append((cpi, event))
        return self._drop(cpi, t0)

    def _extract(self, raw):
        """Trim a completed read of the issued extent down to the slab."""
        if (
            self.read_offset == self.offset and self.read_nbytes == self.nbytes
        ) or isinstance(raw, Phantom):
            return raw  # the slab itself, or timing mode
        skip = self.offset - self.read_offset
        return bytes(raw[skip : skip + self.nbytes])

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
        return self._orphans + [(c, r._event) for c, r in self._pending]

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
        self._pending.clear()

    def close(self) -> None:
        """Drain in-flight reads, then close every data-file handle."""
        self._drain()
        for h in self.handles:
            h.close()


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
        self._results: Optional[Tuple[int, list]] = None

    def _post_window(self, base: int) -> None:
        hi = min(base + self.window, self.ctx.cfg.n_cpis)
        accesses = []
        for cpi in range(base, hi):
            self.ctx.fileset.ensure_cpi(cpi)
            accesses.append((self._handle(cpi), self.read_offset, self.read_nbytes))
        self._pending.append((base, self.fs.iread_list(accesses)))

    def prefetch(self, cpi: int) -> None:
        """Post the access list for ``cpi``'s window, if safe to do so."""
        if cpi >= self.ctx.cfg.n_cpis or self._pending:
            return
        base = (cpi // self.window) * self.window
        if self._results is not None and self._results[0] == base:
            return  # window already extracted; nothing left to post
        self._post_window(base)

    def read(self, cpi: int):
        base = (cpi // self.window) * self.window
        if self._results is None or self._results[0] != base:
            if not self._pending:
                self._post_window(base)
            # The window stays posted (and counted in flight) until it
            # has completed.
            posted_base, req = self._pending[0]
            payloads = yield req._event
            self._pending.clear()
            self._results = (posted_base, payloads)
        return self._extract(self._results[1][cpi - base])


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
    part = ctx.plan.partition(ctx.name)
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
        part = ctx.plan.partition(ctx.name)
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
        # Phase one reads the chunk through the slab reader's window; a
        # participant without a chunk posts nothing.
        chunk_off, chunk_end = self._chunks[ctx.local]
        self.read_offset, self.read_nbytes = chunk_off, chunk_end - chunk_off
        if not self.read_nbytes:
            self.depth = 0

    def read(self, cpi: int):
        ctx = self.ctx
        compute = ctx.cfg.compute
        chunk_off, chunk_end = self._chunks[ctx.local]
        # Phase one: read my stripe-aligned chunk.
        chunk = None
        if self.read_nbytes:
            chunk = yield from self._fetch(cpi)
        # Phase two: post every outgoing piece, then assemble my slab.
        tag = EXCHANGE_TAG_BASE + cpi
        reqs: List[Request] = []
        for local in self.participants:
            if local == ctx.local:
                continue
            s_lo, s_hi = self._slabs[local]
            lo, hi = max(s_lo, chunk_off), min(s_hi, chunk_end)
            if hi <= lo:
                continue
            piece = chunk[lo - chunk_off : hi - chunk_off] if compute else None
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
                piece = chunk[lo - chunk_off : hi - chunk_off] if compute else None
            else:
                piece = yield from ctx.rc.recv(self.peer_ranks[local], tag)
            if buf is not None:
                buf[lo - self.offset : hi - self.offset] = piece
        if reqs:
            yield from Request.wait_all(ctx.kernel, reqs)
        if compute:
            return bytes(buf)
        return Phantom(self.nbytes)
