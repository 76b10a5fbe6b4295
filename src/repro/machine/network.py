"""Interconnect base classes.

A network models the time a message of ``nbytes`` takes from node
``src`` to node ``dst``, including contention with concurrent traffic.
A topology is data: :meth:`Network._path` names the capacity-1 ports
(links, switch ports) a message holds, in acquisition order, and one
process-generator body, :meth:`Network.deliver`, holds them for the wire
time.  :class:`ContentionFreeNetwork`, the empty path, is the analytic
baseline (``latency + nbytes / bandwidth``) for tests and ablations.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.errors import ConfigurationError
from repro.sim.events import _PENDING, Timeout
from repro.sim.kernel import Kernel
from repro.sim.resources import Resource

__all__ = ["Network", "ContentionFreeNetwork"]


class Network:
    """Interconnect attached to a DES kernel.

    Attributes
    ----------
    kernel:
        The owning simulation kernel.
    n_nodes:
        Number of valid endpoints.
    latency:
        Fixed per-message software + hardware startup cost in seconds
        (the alpha of the alpha-beta model).
    bandwidth:
        Per-link (or per-port) bandwidth in bytes/s (1/beta).
    kind:
        Topology name as ``MachinePreset.network_kind`` spells it.
    """

    kind = "ideal"
    #: ``str.format`` template naming a port from its key.
    _PORT_NAME = ""

    def __init__(
        self, kernel: Kernel, n_nodes: int, latency: float, bandwidth: float
    ) -> None:
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        if latency < 0:
            raise ConfigurationError(f"latency must be >= 0, got {latency}")
        if bandwidth <= 0:
            raise ConfigurationError(f"bandwidth must be > 0, got {bandwidth}")
        self.kernel = kernel
        self.n_nodes = n_nodes
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        # Capacity-1 ports by endpoints (``(3, 4)`` for a mesh link,
        # ``("inj", 5)`` for a switch port), made on use; a port's name
        # (``link3->4``, ``inj5``) is formatted only when it is made.
        # Topologies index the same ports by link, never by node pair.
        self._ports: Dict[tuple, Resource] = {}

    def _path(self, src: int, dst: int) -> Sequence[Resource]:
        """Ports a ``src -> dst`` message holds, in acquisition order;
        none on the base (ideal) network.  Called once per message."""
        return ()

    def _port(self, key: tuple) -> Resource:
        port = self._ports.get(key)
        if port is None:
            port = self._ports[key] = Resource(
                self.kernel, 1, self._PORT_NAME.format(*key))
        return port

    def transfer(self, src: int, dst: int, nbytes: int):
        """Validate the endpoints and size, then :meth:`deliver` with no
        mailbox.  ``src == dst`` costs half a latency (a local copy)."""
        if not (0 <= src < self.n_nodes) or not (0 <= dst < self.n_nodes):
            raise ConfigurationError(
                f"transfer endpoints ({src}, {dst}) outside machine of "
                f"{self.n_nodes} nodes"
            )
        if nbytes < 0:
            raise ConfigurationError(f"message size must be >= 0, got {nbytes}")
        return self.deliver(src, dst, nbytes, None, None)

    def deliver(self, src: int, dst: int, nbytes: int, mailbox, msg):
        """Process generator: hold the path for the wire time, then
        ``mailbox.put_nowait(msg)`` unless ``mailbox`` is None.

        Endpoints are not validated (callers checked them up front).
        Ports are capacity-1, so the grant is inlined: a busy port queues
        FIFO through ``request()``; a free one is taken directly, without
        the yield on the born-fired grant when the kernel is quiescent
        (nothing could interleave).  Release is in reverse; a port with
        waiters is handed on through ``Resource.release()``, which skips
        waiters an interrupt abandoned.  An interrupted delivery releases
        every port it holds and deposits nothing.
        """
        kernel = self.kernel
        if src == dst:
            yield Timeout(kernel, self.latency * 0.5)
        else:
            path = self._path(src, dst)
            try:
                for port in path:
                    if port._in_use:
                        grant = port.request()
                    elif kernel._lane or kernel._due:
                        port._in_use = 1
                        grant = port._granted
                    else:  # quiescent (checked per port): nothing interleaves
                        port._in_use = 1
                        continue
                    yield grant
                port = None
                # Wormhole: startup + size/bw, whatever the hop count.
                yield Timeout(kernel, self.latency + nbytes / self.bandwidth)
            finally:
                if port is not None:
                    # Interrupted at ``port``'s grant: the ports before it
                    # are held, and ``port`` too if its grant has fired
                    # (a grant handed over in the interrupt's instant is
                    # ours although its resume was dropped); a pending
                    # request is abandoned so no release hands the port
                    # to this dead waiter.
                    held = path.index(port)
                    if grant._value is _PENDING:
                        grant._abandoned = True
                    else:
                        held += 1
                    path = path[:held]
                for port in reversed(path):
                    if port._waiters:
                        port.release()
                    else:
                        port._in_use = 0
        if mailbox is not None:
            mailbox.put_nowait(msg)

    def pure_transfer_time(self, nbytes: int) -> float:
        """Uncontended alpha-beta time for a message of ``nbytes``."""
        return self.latency + nbytes / self.bandwidth


class ContentionFreeNetwork(Network):
    """Ideal network: the empty path.  Every transfer takes ``latency +
    nbytes/bandwidth``, concurrently with any other."""
