"""Multistage switch interconnect (IBM SP style).

The SP's High-Performance Switch is a multistage network built from 8-way
crossbars; to first order every node sees a dedicated injection port and
a dedicated ejection port of fixed bandwidth, and the switch core has
enough bisection that port contention — not internal links — is the
dominant queueing effect for the traffic patterns here (many senders to
one receiver, or one reader draining many I/O servers).

One capacity-1 port per node for injection and one for ejection
reproduce the essential contrast with the mesh: no path-dependent
interference, but strict per-port serialisation.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.machine.network import Network
from repro.sim.kernel import Kernel
from repro.sim.resources import Resource

__all__ = ["MultistageNetwork"]


class MultistageNetwork(Network):
    """Port-contention switch model: per-node in/out ports, full bisection.

    A message's path is the source's injection port (``inj{src}``), then
    the destination's ejection port (``ej{dst}``).  The fixed acquisition
    order cannot deadlock: every holder of an ejection port already owns
    its injection port and releases both after a finite timeout.
    """

    kind = "multistage"
    _PORT_NAME = "{}{}"

    def __init__(self, kernel: Kernel, n_nodes: int, latency: float,
                 bandwidth: float) -> None:
        super().__init__(kernel, n_nodes, latency, bandwidth)
        # Each node's injection and ejection port, None until first used.
        self._inj: List[Resource | None] = [None] * n_nodes
        self._ej: List[Resource | None] = [None] * n_nodes

    def _path(self, src: int, dst: int) -> Tuple[Resource, Resource]:
        inj = self._inj[src]
        if inj is None:
            inj = self._inj[src] = self._port(("inj", src))
        ej = self._ej[dst]
        if ej is None:
            ej = self._ej[dst] = self._port(("ej", dst))
        return inj, ej
