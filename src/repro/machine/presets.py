"""Machine presets calibrated to the paper's platforms.

Calibration targets (DESIGN.md §4): CPI-scale pipeline throughput of a
few CPIs/s and sub-second latency on the 25/50/100-node cases — the same
order of magnitude the paper reports.  Absolute 1999 microseconds are not
reproducible (nor required); the *ratios* that drive the paper's
conclusions are what the presets encode:

* SP compute nodes are ~7-8x faster than Paragon nodes (P2SC vs i860 XP),
  which is why the paper remarks the SP "has faster CPUs" yet scales
  worse once synchronous I/O is in the loop.
* disk service (5.5 MB/s media + 20 ms effective per-request overhead
  — positioning plus server software on 1999-class storage) is slow vs
  the network, so the number of stripe directories controls aggregate
  read bandwidth — the paper's central knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.machine.node import NodeSpec

if TYPE_CHECKING:
    from repro.machine.machine import Machine
    from repro.sim.kernel import Kernel

__all__ = ["MachinePreset", "paragon", "ibm_sp", "generic_cluster"]

#: Sustained i860 XP rate on STAP kernels (peak 75 MFLOP/s; hand-tuned
#: FFT/solve kernels sustained roughly a third of peak).
_PARAGON_FLOPS = 25e6
#: Paragon mesh: 175 MB/s physical links; NX software latency ~60 us.
_PARAGON_LINK_BW = 175e6
_PARAGON_LATENCY = 60e-6
_PARAGON_MEM_BW = 300e6

#: Sustained P2SC rate (peak 480 MFLOP/s; strong FFT performance).
_SP_FLOPS = 150e6
#: SP switch: ~110 MB/s per port, MPL latency ~40 us.
_SP_PORT_BW = 110e6
_SP_LATENCY = 40e-6
_SP_MEM_BW = 1.2e9

#: Disk behind each stripe directory: sustained media rate + per-request
#: positioning/software overhead.
DISK_BW = 5.5e6
DISK_OVERHEAD = 20e-3

@dataclass(frozen=True)
class MachinePreset:
    """A reusable recipe for building :class:`Machine` instances.

    ``build(kernel, n_compute, n_io)`` instantiates the machine; presets
    are immutable so benchmark sweeps can share them safely.
    """

    name: str
    node_spec: NodeSpec
    network_kind: str  # "mesh" | "multistage" | "ideal"
    latency: float
    bandwidth: float
    disk_bw: float = DISK_BW
    disk_overhead: float = DISK_OVERHEAD
    extras: dict = field(default_factory=dict)

    def build(self, kernel: Kernel, n_compute: int, n_io: int = 0) -> Machine:
        """Instantiate a machine with this preset's characteristics."""
        from repro.machine.machine import Machine
        from repro.machine.mesh import MeshNetwork
        from repro.machine.multistage import MultistageNetwork
        from repro.machine.network import ContentionFreeNetwork

        networks = {
            net.kind: net
            for net in (MeshNetwork, MultistageNetwork, ContentionFreeNetwork)
        }
        network = networks.get(self.network_kind)
        if network is None:
            raise ConfigurationError(f"unknown network kind {self.network_kind!r}")
        return Machine(
            kernel,
            n_compute=n_compute,
            node_spec=self.node_spec,
            network=network(kernel, n_compute + n_io, self.latency, self.bandwidth),
            n_io=n_io,
            name=self.name,
        )


def paragon() -> MachinePreset:
    """Intel Paragon XP/S-class preset (Caltech machine of the paper)."""
    return MachinePreset(
        name="Intel Paragon",
        node_spec=NodeSpec(flops=_PARAGON_FLOPS, mem_bw=_PARAGON_MEM_BW, name="i860XP"),
        network_kind="mesh",
        latency=_PARAGON_LATENCY,
        bandwidth=_PARAGON_LINK_BW,
    )


def ibm_sp() -> MachinePreset:
    """IBM SP-class preset (ANL machine of the paper)."""
    return MachinePreset(
        name="IBM SP",
        node_spec=NodeSpec(flops=_SP_FLOPS, mem_bw=_SP_MEM_BW, name="P2SC"),
        network_kind="multistage",
        latency=_SP_LATENCY,
        bandwidth=_SP_PORT_BW,
    )


def generic_cluster(
    flops: float = 50e6,
    latency: float = 50e-6,
    bandwidth: float = 125e6,
) -> MachinePreset:
    """Contention-free preset for unit tests and analytic comparisons."""
    return MachinePreset(
        name="generic cluster",
        node_spec=NodeSpec(flops=flops, mem_bw=10 * bandwidth, name="generic"),
        network_kind="ideal",
        latency=latency,
        bandwidth=bandwidth,
    )
