"""2-D mesh interconnect with XY wormhole routing (Intel Paragon style).

The Paragon's backplane is a 2-D mesh of bidirectional links with
dimension-ordered (XY) wormhole routing: a message first travels along X
to the destination column, then along Y.  Under wormhole switching a
message holds its whole path for its duration, so we model each
*directed* link as a capacity-1 FIFO resource and have a transfer acquire
the links of its route **in path order**, hold them for the transfer
time, then release.  Acquiring in path order under XY routing is
deadlock-free (the classic dimension-order argument: the link acquisition
order induces no cycles), which keeps the DES live under arbitrary
traffic.

The model captures the two phenomena the paper's results depend on:

* many-to-few traffic (compute nodes draining I/O nodes) serialises on
  the links near the hot spot;
* neighbouring pipeline tasks laid out in adjacent mesh columns barely
  interfere with each other.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.machine.network import Network
from repro.sim.events import Timeout
from repro.sim.kernel import Kernel
from repro.sim.resources import Resource

__all__ = ["MeshNetwork"]


class MeshNetwork(Network):
    """2-D mesh with per-link contention and XY wormhole routing.

    Parameters
    ----------
    kernel:
        Owning DES kernel.
    n_nodes:
        Total node count; nodes are laid out row-major on a
        ``rows x cols`` grid.  If ``cols`` is not given, the grid is the
        most square factorisation with ``cols >= rows``.
    latency:
        Per-message startup (software overhead dominates: ~tens of µs).
    bandwidth:
        Per-link bandwidth, bytes/s.
    cols:
        Optional explicit column count.
    """

    def __init__(
        self,
        kernel: Kernel,
        n_nodes: int,
        latency: float,
        bandwidth: float,
        cols: int | None = None,
    ) -> None:
        super().__init__(kernel, latency, bandwidth)
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = n_nodes
        if cols is None:
            cols = self._square_cols(n_nodes)
        if cols < 1:
            raise ConfigurationError(f"cols must be >= 1, got {cols}")
        self.cols = cols
        self.rows = math.ceil(n_nodes / cols)
        # Directed links created lazily: (from_node, to_node) -> Resource.
        self._links: Dict[Tuple[int, int], Resource] = {}
        # The topology is immutable after construction, so XY routes and
        # their resolved link-resource runs are memoized per (src, dst).
        self._routes: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._link_runs: Dict[Tuple[int, int], List[Resource]] = {}

    @staticmethod
    def _square_cols(n: int) -> int:
        """Most square grid: smallest cols >= sqrt(n) with rows*cols >= n."""
        c = math.ceil(math.sqrt(n))
        return c

    # -- topology helpers ------------------------------------------------
    def coords(self, node: int) -> Tuple[int, int]:
        """(row, col) of ``node`` in the row-major layout."""
        if not (0 <= node < self.n_nodes):
            raise ConfigurationError(f"node {node} outside mesh of {self.n_nodes}")
        return divmod(node, self.cols)

    def node_at(self, row: int, col: int) -> int:
        """Inverse of :meth:`coords`."""
        node = row * self.cols + col
        if not (0 <= row < self.rows and 0 <= col < self.cols and node < self.n_nodes):
            raise ConfigurationError(f"({row}, {col}) outside mesh")
        return node

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Directed links of the XY route from ``src`` to ``dst``.

        X (column) movement first, then Y (row) movement; each hop is one
        directed link ``(a, b)`` between grid-adjacent positions.  Hops
        through positions beyond ``n_nodes`` on a ragged last row are
        still valid link segments (the physical mesh is full).
        """
        cached = self._routes.get((src, dst))
        if cached is None:
            (sr, sc), (dr, dc) = self.coords(src), self.coords(dst)
            hops: List[Tuple[int, int]] = []
            r, c = sr, sc
            step = 1 if dc > c else -1
            while c != dc:
                a, b = r * self.cols + c, r * self.cols + (c + step)
                hops.append((a, b))
                c += step
            step = 1 if dr > r else -1
            while r != dr:
                a, b = r * self.cols + c, (r + step) * self.cols + c
                hops.append((a, b))
                r += step
            cached = self._routes[(src, dst)] = hops
        # Callers get a copy: the memoized list must stay pristine.
        return list(cached)

    def _link(self, a: int, b: int) -> Resource:
        key = (a, b)
        res = self._links.get(key)
        if res is None:
            res = Resource(self.kernel, capacity=1, name=f"link{a}->{b}")
            self._links[key] = res
        return res

    # -- transfer ---------------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: int):
        """Wormhole transfer: hold the whole XY path for the wire time."""
        self._validate(src, dst, nbytes, self.n_nodes)
        if src == dst:
            yield Timeout(self.kernel, self.latency * 0.5)
            return
        links = self._link_runs.get((src, dst))
        if links is None:
            links = [self._link(a, b) for a, b in self.route(src, dst)]
            self._link_runs[(src, dst)] = links
        # Acquire in path order (deadlock-free under XY routing).  Links
        # are capacity-1, so the idle test and grant are inlined here
        # (equivalent to link.request(), minus the call per hop — this
        # loop runs once per hop of every message in the simulation).
        kernel = self.kernel
        for link in links:
            if link._in_use:
                yield link.request()
            elif kernel._lane or kernel._due:
                link._in_use = 1
                yield link._granted
            else:
                # Kernel quiescent: a yield on this born-fired grant would
                # chain straight back here with nothing able to interleave,
                # so taking the free link synchronously is order-identical
                # and skips one full dispatch round for this hop.  Checked
                # per hop — a wait on a busy link earlier in the path often
                # resumes into a quiescent kernel again.
                link._in_use = 1
        try:
            # Wormhole: pipelined flits => duration ~ startup + size/bw,
            # essentially independent of hop count once the worm is set up.
            yield Timeout(self.kernel, self.latency + nbytes / self.bandwidth)
        finally:
            # Inline of link.release() for held capacity-1 links.
            for link in reversed(links):
                if link._waiters:
                    link._waiters.popleft().succeed(link)
                else:
                    link._in_use = 0

    def deliver(self, src: int, dst: int, nbytes: int, mailbox, msg):
        """Wormhole transfer fused with the mailbox deposit.

        Body kept in lockstep with :meth:`transfer` — inlined rather than
        delegated because every ``yield`` in a ``yield from`` chain also
        resumes the delegating frame, and deliveries account for most of
        the yields in a message-heavy simulation.  The endpoints are not
        re-validated: the communicator checked every rank's node when it
        was built, and message sizes are never negative.
        """
        if src == dst:
            yield Timeout(self.kernel, self.latency * 0.5)
            mailbox.put_nowait(msg)
            return
        links = self._link_runs.get((src, dst))
        if links is None:
            links = [self._link(a, b) for a, b in self.route(src, dst)]
            self._link_runs[(src, dst)] = links
        kernel = self.kernel
        for link in links:
            if link._in_use:
                yield link.request()
            elif kernel._lane or kernel._due:
                link._in_use = 1
                yield link._granted
            else:
                link._in_use = 1
        try:
            yield Timeout(self.kernel, self.latency + nbytes / self.bandwidth)
        finally:
            for link in reversed(links):
                if link._waiters:
                    link._waiters.popleft().succeed(link)
                else:
                    link._in_use = 0
        mailbox.put_nowait(msg)

    # -- introspection -----------------------------------------------------
    @property
    def allocated_links(self) -> int:
        """Number of links that have carried at least one message."""
        return len(self._links)
