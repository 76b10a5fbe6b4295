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
from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.machine.network import Network
from repro.sim.kernel import Kernel
from repro.sim.resources import Resource

__all__ = ["MeshNetwork"]


class MeshNetwork(Network):
    """2-D mesh with per-link contention and XY wormhole routing.

    A message's path is its XY route's directed links (``link{a}->{b}``),
    each a capacity-1 port held by :meth:`Network.deliver`.

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

    kind = "mesh"
    _PORT_NAME = "link{}->{}"

    def __init__(
        self,
        kernel: Kernel,
        n_nodes: int,
        latency: float,
        bandwidth: float,
        cols: int | None = None,
    ) -> None:
        super().__init__(kernel, n_nodes, latency, bandwidth)
        if cols is None:  # most square: rows = ceil(n / cols) <= cols
            cols = math.ceil(math.sqrt(n_nodes))
        if cols < 1:
            raise ConfigurationError(f"cols must be >= 1, got {cols}")
        self.cols = cols
        self.rows = math.ceil(n_nodes / cols)

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
        (r, c), (dr, dc) = self.coords(src), self.coords(dst)
        hops: List[Tuple[int, int]] = []
        step = 1 if dc > c else -1
        while c != dc:
            hops.append((r * self.cols + c, r * self.cols + (c + step)))
            c += step
        step = 1 if dr > r else -1
        while r != dr:
            hops.append((r * self.cols + c, (r + step) * self.cols + c))
            r += step
        return hops

    def _path(self, src: int, dst: int) -> List[Resource]:
        """The XY route's links; acquiring them in path order is
        deadlock-free under dimension-ordered routing.  Resolved once per
        (src, dst) by :meth:`Network.deliver`."""
        return [self._port(hop) for hop in self.route(src, dst)]

    # -- introspection -----------------------------------------------------
    @property
    def allocated_links(self) -> int:
        """Number of links that have carried at least one message."""
        return len(self._ports)
