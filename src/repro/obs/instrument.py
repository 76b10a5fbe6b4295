"""Wiring: register pull gauges over a live pipeline's hot seams.

Two entry points register pull gauges over state the simulation
maintains anyway.  :func:`instrument_substrate` covers the shared
fabric of a :class:`~repro.core.executor.Substrate`:

* per-stripe-server disk queue depth, cumulative busy seconds, and
  per-directory bytes served (:class:`~repro.pfs.server.IOServer`);
* fault-layer counters (failed requests, outages, client retries and
  replica failovers) when replicas or an injected fault are present;
* per-link occupancy of the interconnect (mesh links or multistage
  injection/ejection ports), with per-link busy fractions folded into a
  summary at finalize.

:func:`instrument_pipeline` covers one tenant
:class:`~repro.core.executor.PipelineExecutor`:

* cumulative MPI message/byte totals (``Communicator.traffic``);
* reader-side state — cancelled asynchronous reads, and (registered by
  the readers themselves via ``ctx.metrics``) outstanding prefetch
  depth — plus dropped-CPI counts when a read deadline is set.

Everything here is a *read*: no callback mutates simulation state, so
event order is unchanged whether metrics are on or off.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.machine.mesh import MeshNetwork
from repro.machine.multistage import MultistageNetwork
from repro.obs.instruments import MetricsRegistry

__all__ = ["instrument_pipeline", "instrument_substrate"]


class _BusyTally:
    """Pull gauge over lazily-allocated capacity-1 resources.

    Returns the number currently held; as a side effect of each read it
    tallies per-key busy counts, so at finalize the busy *fraction* of
    every link is ``busy_reads / total_reads`` — a per-link utilization
    summary without one timeseries per link (a Paragon mesh allocates
    hundreds).
    """

    def __init__(self, groups: List[Tuple[str, Dict]]) -> None:
        self._groups = groups  # (key prefix, live {key: Resource}) pairs
        self._busy: Dict[str, int] = {}
        self._reads = 0

    def __call__(self) -> int:
        self._reads += 1
        n = 0
        for prefix, resources in self._groups:
            for key, res in resources.items():
                if res._in_use:
                    n += 1
                    label = (
                        f"{prefix}{key[0]}->{key[1]}"
                        if isinstance(key, tuple)
                        else f"{prefix}{key}"
                    )
                    self._busy[label] = self._busy.get(label, 0) + 1
        return n

    def fractions(self) -> Dict[str, float]:
        if not self._reads:
            return {}
        return {k: v / self._reads for k, v in sorted(self._busy.items())}


def _instrument_servers(registry: MetricsRegistry, fs) -> None:
    for i, server in enumerate(fs.servers):
        label = str(i)
        registry.gauge(
            "pfs_server_queue_depth",
            help="requests waiting on or holding the stripe directory's disk",
            fn=lambda s=server: s.queue_length,
            server=label,
        )
        registry.gauge(
            "pfs_server_busy_seconds_total",
            help="cumulative simulated seconds the disk spent servicing",
            fn=lambda s=server: s.busy_time,
            server=label,
        )
        registry.gauge(
            "pfs_server_bytes_served_total",
            help="cumulative bytes read off this stripe directory's disk",
            fn=lambda s=server: s.bytes_served,
            server=label,
        )
    if fs.fault_tolerant:
        servers = fs.servers
        registry.gauge(
            "pfs_requests_failed_total",
            help="server-side request failures (outages + flaky disks)",
            fn=lambda: sum(s.requests_failed for s in servers),
        )
        registry.gauge(
            "pfs_server_outages_total",
            help="server outages entered so far",
            fn=lambda: sum(s.outages for s in servers),
        )
        registry.gauge(
            "pfs_client_retries_total",
            help="client-side read/write attempts that failed and were retried",
            fn=lambda: fs.client_retries,
        )
        registry.gauge(
            "pfs_client_failovers_total",
            help="reads served by a non-primary replica",
            fn=lambda: fs.client_failovers,
        )
        registry.gauge(
            "pfs_duplicate_ships_total",
            help="timed-out attempts whose late success still shipped bytes",
            fn=lambda: sum(s.duplicate_ships for s in servers),
        )


def _instrument_network(registry: MetricsRegistry, network) -> None:
    if isinstance(network, MeshNetwork):
        tally = _BusyTally([("link", network._links)])
        kind = "mesh"
    elif isinstance(network, MultistageNetwork):
        tally = _BusyTally(
            [("inj", network._in_ports), ("ej", network._out_ports)]
        )
        kind = "multistage"
    else:  # contention-free: no shared state to watch
        return
    registry.gauge(
        "net_links_busy",
        help=f"{kind} links/ports currently held by a transfer",
        fn=tally,
    )
    registry.on_finalize(
        lambda: registry.summary("net_link_busy_fraction", tally.fractions())
    )


def instrument_pipeline(
    registry: MetricsRegistry, executor, tenant: str = ""
) -> None:
    """Register one pipeline's gauges over ``executor``'s components.

    Called by :class:`~repro.core.executor.PipelineExecutor` on a
    metered substrate, after its communicator is built and before any
    process is spawned.  A non-empty ``tenant`` adds a ``tenant`` label
    to every instrument (MPI traffic, reader state, drops) so N
    tenants' series split cleanly in one shared registry; standalone
    runs (``tenant=""``) carry no label.
    """
    labels = {"tenant": tenant} if tenant else {}
    traffic = executor.comm.traffic
    registry.gauge(
        "mpi_messages_total",
        help="messages delivered over the interconnect",
        fn=lambda: sum(m for m, _ in traffic.values()),
        **labels,
    )
    registry.gauge(
        "mpi_bytes_total",
        help="payload bytes delivered over the interconnect",
        fn=lambda: sum(b for _, b in traffic.values()),
        **labels,
    )

    results = executor.results
    registry.gauge(
        "reader_cancelled_reads_total",
        help="asynchronous slab reads drained unconsumed at teardown",
        fn=lambda: len(results.get("cancelled_reads", ())),
        **labels,
    )
    if executor.cfg.read_deadline is not None:
        registry.gauge(
            "pipeline_dropped_cpis_total",
            help="CPIs skipped at the graceful-degradation read deadline",
            fn=lambda: len(results.get("dropped_cpis", ())),
            **labels,
        )


def instrument_substrate(registry: MetricsRegistry, substrate) -> None:
    """Register the *shared* server and network gauges of a substrate.

    Called once by :meth:`~repro.core.executor.Substrate.run` as the
    sampler attaches, after any fault injection has armed the servers.
    The stripe servers and the interconnect belong to every tenant at
    once; per-tenant attribution of disk traffic comes from the file
    system's per-path byte accounting instead
    (``pfs_tenant_bytes_total``, registered by the scenario executor).
    """
    _instrument_servers(registry, substrate.fs)
    _instrument_network(registry, substrate.machine.network)
