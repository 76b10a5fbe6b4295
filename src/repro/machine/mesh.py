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
    each a capacity-1 port held by :meth:`Network.deliver`.  The links
    sit in four tables, filled as messages first cross them: eastbound
    and westbound per row, southbound and northbound per column, each in
    travel order, so a route is one slice of its source row's table plus
    one slice of its destination column's.

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
        self.rows = rows = math.ceil(n_nodes / cols)
        # Directed links in travel order, None until first crossed:
        # ``_east[r][c]`` leaves column c of row r, ``_west[r][i]``
        # leaves column cols-1-i; ``_south[c][r]`` leaves row r of column
        # c, ``_north[c][i]`` leaves row rows-1-i.  The physical mesh is
        # full, so a ragged last row has its links too.
        self._east: List[List[Resource | None]] = [[None] * (cols - 1) for _ in range(rows)]
        self._west: List[List[Resource | None]] = [[None] * (cols - 1) for _ in range(rows)]
        self._south: List[List[Resource | None]] = [[None] * (rows - 1) for _ in range(cols)]
        self._north: List[List[Resource | None]] = [[None] * (rows - 1) for _ in range(cols)]

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
        deadlock-free under dimension-ordered routing.  A route with a
        link not yet made falls back to :meth:`route`, making the link."""
        cols = self.cols
        r, c = divmod(src, cols)
        dr, dc = divmod(dst, cols)
        if dc > c:
            path = self._east[r][c:dc]
        elif dc < c:
            path = self._west[r][cols - 1 - c:cols - 1 - dc]
        else:
            path = []
        if dr > r:
            path += self._south[dc][r:dr]
        elif dr < r:
            rows = self.rows
            path += self._north[dc][rows - 1 - r:rows - 1 - dr]
        if None in path:
            path = [self._link(a, b) for a, b in self.route(src, dst)]
        return path

    def _link(self, a: int, b: int) -> Resource:
        """The port of directed link ``a -> b``, entered in its table."""
        port = self._port((a, b))
        (ar, ac), (br, bc) = divmod(a, self.cols), divmod(b, self.cols)
        if bc > ac:
            self._east[ar][ac] = port
        elif bc < ac:
            self._west[ar][self.cols - 1 - ac] = port
        elif br > ar:
            self._south[ac][ar] = port
        else:
            self._north[ac][self.rows - 1 - ar] = port
        return port

    # -- introspection -----------------------------------------------------
    @property
    def allocated_links(self) -> int:
        """Number of links that have carried at least one message."""
        return len(self._ports)
