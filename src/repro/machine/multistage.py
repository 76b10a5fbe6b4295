"""Multistage switch interconnect (IBM SP style).

The SP's High-Performance Switch is a multistage network built from 8-way
crossbars; to first order every node sees a dedicated injection port and
a dedicated ejection port of fixed bandwidth, and the switch core has
enough bisection that port contention — not internal links — is the
dominant queueing effect for the traffic patterns here (many senders to
one receiver, or one reader draining many I/O servers).

We therefore model one capacity-1 resource per node *injection* port and
one per node *ejection* port; a transfer holds both (injection first) for
the wire time.  That reproduces the essential contrast with the mesh: no
path-dependent interference, but strict per-port serialisation.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError
from repro.machine.network import Network
from repro.sim.events import Timeout
from repro.sim.kernel import Kernel
from repro.sim.resources import Resource

__all__ = ["MultistageNetwork"]


class MultistageNetwork(Network):
    """Port-contention switch model: per-node in/out ports, full bisection."""

    def __init__(
        self, kernel: Kernel, n_nodes: int, latency: float, bandwidth: float
    ) -> None:
        super().__init__(kernel, latency, bandwidth)
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = n_nodes
        self._in_ports: Dict[int, Resource] = {}
        self._out_ports: Dict[int, Resource] = {}

    def _port(self, table: Dict[int, Resource], node: int, kind: str) -> Resource:
        res = table.get(node)
        if res is None:
            res = Resource(self.kernel, capacity=1, name=f"{kind}{node}")
            table[node] = res
        return res

    def transfer(self, src: int, dst: int, nbytes: int):
        """Hold src injection port then dst ejection port for the wire time.

        The fixed acquisition order (injection before ejection) cannot
        deadlock because every holder of an ejection port already owns its
        injection port and will release both after a finite timeout.

        Ports are capacity-1, so the grant is inlined as in
        :meth:`MeshNetwork.transfer`: a busy port queues FIFO through
        ``request()``; a free one is taken directly, and when the kernel
        is quiescent (nothing else due now) without the yield on the
        born-fired grant, which would resume straight back here with
        nothing able to interleave.
        """
        self._validate(src, dst, nbytes, self.n_nodes)
        kernel = self.kernel
        if src == dst:
            yield Timeout(kernel, self.latency * 0.5)
            return
        inj = self._in_ports.get(src) or self._port(self._in_ports, src, "inj")
        ej = self._out_ports.get(dst) or self._port(self._out_ports, dst, "ej")
        if inj._in_use:
            yield inj.request()
        elif kernel._lane or kernel._due:
            inj._in_use = 1
            yield inj._granted
        else:
            inj._in_use = 1
        try:
            if ej._in_use:
                yield ej.request()
            elif kernel._lane or kernel._due:
                ej._in_use = 1
                yield ej._granted
            else:
                ej._in_use = 1
            try:
                yield Timeout(kernel, self.latency + nbytes / self.bandwidth)
            finally:
                # Inline of release(): hand off to a waiter, else go idle.
                if ej._waiters:
                    ej.release()
                else:
                    ej._in_use = 0
        finally:
            if inj._waiters:
                inj.release()
            else:
                inj._in_use = 0

    def deliver(self, src: int, dst: int, nbytes: int, mailbox, msg):
        """Port-contended transfer fused with the mailbox deposit.

        Body kept in lockstep with :meth:`transfer` (see
        :meth:`MeshNetwork.deliver` for why it is inlined).  The endpoints
        are not re-validated: the communicator checked every rank's node
        when it was built, and message sizes are never negative.
        """
        kernel = self.kernel
        if src == dst:
            yield Timeout(kernel, self.latency * 0.5)
            mailbox.put_nowait(msg)
            return
        inj = self._in_ports.get(src) or self._port(self._in_ports, src, "inj")
        ej = self._out_ports.get(dst) or self._port(self._out_ports, dst, "ej")
        if inj._in_use:
            yield inj.request()
        elif kernel._lane or kernel._due:
            inj._in_use = 1
            yield inj._granted
        else:
            inj._in_use = 1
        try:
            if ej._in_use:
                yield ej.request()
            elif kernel._lane or kernel._due:
                ej._in_use = 1
                yield ej._granted
            else:
                ej._in_use = 1
            try:
                yield Timeout(kernel, self.latency + nbytes / self.bandwidth)
            finally:
                if ej._waiters:
                    ej.release()
                else:
                    ej._in_use = 0
        finally:
            if inj._waiters:
                inj.release()
            else:
                inj._in_use = 0
        mailbox.put_nowait(msg)
