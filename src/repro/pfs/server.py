"""I/O server: one stripe directory's disk on an I/O node.

Each stripe directory is hosted by an I/O node of the machine (several
directories may share one node if the machine has fewer I/O nodes than
the file system has directories).  A server owns a capacity-1 FIFO disk
resource; client requests queue on it — this queue is where the paper's
I/O bottleneck physically forms when many compute nodes read through few
stripe directories.

After disk service the data is shipped over the interconnect from the
I/O node to the requesting compute node, so drain traffic also contends
on the network like it did on the real machines.

Fault model
-----------
A server is an up/down state machine.  While down it rejects new
requests and drops in-flight ones with :class:`ServerDownError`;
:meth:`schedule_outage` scripts a deterministic crash (optionally
followed by recovery) in simulated time.  Independently,
:meth:`set_flaky` makes the disk fail a deterministic pseudo-random
fraction of requests with :class:`FlakyDiskError` — transient errors a
retrying client can absorb.  Failures are counted in
``requests_failed``; up→down transitions in ``outages``.

Accounting: ``requests_served``/``bytes_served`` are credited at *disk
completion* (the data left the platter), while ``bytes_shipped`` counts
only payloads that finished the network leg to the client — under
faults the two legitimately diverge, and conflating them skews
per-server utilisation reports.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import FlakyDiskError, ServerDownError
from repro.machine.machine import Machine
from repro.pfs.blockdev import DiskSpec
from repro.sim.resources import Resource

__all__ = ["IOServer"]


class IOServer:
    """A stripe directory's service point."""

    def __init__(self, machine: Machine, node_id: int, disk: DiskSpec, name: str = "") -> None:
        self.machine = machine
        self.kernel = machine.kernel
        self.node_id = node_id
        self.disk = disk
        self.name = name or f"ioserver@{node_id}"
        self._disk_res = Resource(self.kernel, capacity=1, name=f"{self.name}.disk")
        # Counters for reports/tests.
        self.requests_served = 0
        self.bytes_served = 0
        self.bytes_shipped = 0
        self.requests_failed = 0
        self.outages = 0
        self.duplicate_ships = 0
        self.duplicate_bytes = 0
        self.busy_time = 0.0
        # Fault state.
        self._up = True
        self._error_rate = 0.0
        self._rng: Optional[random.Random] = None
        self._outage_scheduled = False

    @property
    def queue_length(self) -> int:
        """Requests currently waiting for the disk."""
        return self._disk_res.queue_length

    # -- fault state machine ---------------------------------------------------
    @property
    def fault_armed(self) -> bool:
        """True once a fault was injected: a crash (taken down or
        scheduled) or a flaky disk with a positive error rate."""
        return self.outages > 0 or self._outage_scheduled or self._error_rate > 0.0

    @property
    def up(self) -> bool:
        """True while the server accepts and completes requests."""
        return self._up

    def set_down(self) -> None:
        """Take the server down; in-flight requests fail at their next step."""
        if self._up:
            self._up = False
            self.outages += 1

    def set_up(self) -> None:
        """Bring the server back up (recovered outage)."""
        self._up = True

    def schedule_outage(self, at_time: float, down_for: Optional[float] = None) -> None:
        """Script a deterministic outage at simulated ``at_time``.

        ``down_for=None`` means the server never recovers (permanent
        crash); otherwise it comes back after ``down_for`` simulated
        seconds.  ``at_time`` is absolute simulated time: arming an
        outage from a process already past ``at_time`` (e.g. re-armed
        mid-run via the service tier) crashes immediately rather than
        ``at_time`` seconds later.
        """
        def body():
            delay = at_time - self.kernel.now
            if delay > 0:
                yield self.kernel.timeout(delay)
            self.set_down()
            if down_for is not None:
                yield self.kernel.timeout(down_for)
                self.set_up()

        self._outage_scheduled = True
        self.kernel.process(body(), name=f"outage:{self.name}")

    def set_flaky(self, error_rate: float, seed: int = 0) -> None:
        """Fail a pseudo-random ``error_rate`` fraction of requests.

        Draws come from a private :class:`random.Random` seeded with
        ``seed``, consumed in disk-service completion order (which the
        capacity-1 FIFO disk makes deterministic), so the same spec
        always fails the same requests.
        """
        self._error_rate = float(error_rate)
        self._rng = random.Random(seed)

    def _check_up(self) -> None:
        if not self._up:
            self.requests_failed += 1
            raise ServerDownError(f"{self.name} is down")

    def record_duplicate(self, nbytes: int) -> None:
        """Count a ship the client had already abandoned (timed-out
        attempt that later succeeded) — see ``docs/fault_model.md``."""
        self.duplicate_ships += 1
        self.duplicate_bytes += nbytes

    # -- service ---------------------------------------------------------------
    def service(self, nbytes: int, n_units: int, dest_node: int, ship: bool = True):
        """Process generator: queue on the disk, read, ship to ``dest_node``.

        Parameters
        ----------
        nbytes:
            Bytes of this (coalesced) request.
        n_units:
            Stripe units the request touches (extra seek cost).
        dest_node:
            Machine node id of the requesting client.
        ship:
            If False, skip the network shipping leg (used for writes,
            where the payload travelled client -> server beforehand).
        """
        self._check_up()
        t_service = self.disk.service_time(nbytes, n_units)
        disk_res = self._disk_res
        kernel = self.kernel
        if disk_res._in_use < disk_res.capacity and not kernel._lane and not kernel._due:
            # Disk idle and kernel quiescent: a yield on the born-fired
            # grant would chain straight back with nothing able to
            # interleave, so acquiring synchronously is order-identical
            # (see Network.deliver for the same fast path).
            disk_res._in_use += 1
        else:
            yield disk_res.request()
        try:
            self._check_up()  # went down while we queued
            start = self.kernel.now
            yield self.kernel.timeout(t_service)
            self.busy_time += self.kernel.now - start
            self._check_up()  # went down mid-service: request dropped
            if self._error_rate > 0.0 and self._rng.random() < self._error_rate:
                self.requests_failed += 1
                raise FlakyDiskError(f"{self.name}: transient I/O error")
        finally:
            self._disk_res.release()
        # Disk work is done: credit the request now, whether or not the
        # network leg below survives (satellite fix — counting after the
        # ship leg lost every request interrupted in transit).
        self.requests_served += 1
        self.bytes_served += nbytes
        if ship:
            if dest_node != self.node_id:
                # Endpoints were validated when the file was opened.
                yield from self.machine.network.deliver(
                    self.node_id, dest_node, nbytes, None, None
                )
            self.bytes_shipped += nbytes
