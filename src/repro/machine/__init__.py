"""Simulated multicomputer models.

A :class:`~repro.machine.machine.Machine` bundles compute nodes, I/O
server nodes, and an interconnect model on top of one DES kernel.  Two
machine presets reproduce the paper's platforms:

* :func:`~repro.machine.presets.paragon` — Intel Paragon XP/S-class:
  i860 compute nodes on a 2-D mesh with XY wormhole routing and per-link
  contention (:class:`~repro.machine.mesh.MeshNetwork`).
* :func:`~repro.machine.presets.ibm_sp` — IBM SP-class: faster P2SC
  compute nodes on a multistage switch
  (:class:`~repro.machine.multistage.MultistageNetwork`).

A network is a path of capacity-1 ports held by one process-generator
body, ``deliver(src, dst, nbytes, mailbox, msg)``, which the MPI layer
and the file system drive; ``transfer(src, dst, nbytes)`` validates the
endpoints and runs it with no mailbox.
"""

from importlib import import_module

from repro.machine.node import NodeSpec, Node
from repro.machine.presets import paragon, ibm_sp, generic_cluster, MachinePreset

#: The machine and interconnect classes, each loaded from its module
#: (and the simulation kernel with it) on first use.
_LAZY = {
    "Network": "network",
    "ContentionFreeNetwork": "network",
    "MeshNetwork": "mesh",
    "MultistageNetwork": "multistage",
    "Machine": "machine",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "NodeSpec",
    "Node",
    "Network",
    "ContentionFreeNetwork",
    "MeshNetwork",
    "MultistageNetwork",
    "Machine",
    "paragon",
    "ibm_sp",
    "generic_cluster",
    "MachinePreset",
]
