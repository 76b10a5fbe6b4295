"""Simulated parallel file systems.

Two file systems reproduce the paper's platforms:

* :class:`~repro.pfs.pfs.PFS` — Intel Paragon's Parallel File System:
  files striped over ``stripe_factor`` stripe directories in
  ``stripe_unit``-byte units; supports *asynchronous* reads
  (``iread``/``ireadoff``) so I/O overlaps computation, and ``gopen``
  with the ``M_ASYNC`` I/O mode the paper used.
* :class:`~repro.pfs.piofs.PIOFS` — IBM's Parallel I/O File System:
  same striping substrate but **synchronous read/write only** (the
  paper's explanation for the SP's inferior scaling).

Both sit on shared substrates:

* :class:`~repro.pfs.stripe.StripeLayout` — pure striping arithmetic
  (byte range -> per-stripe-directory unit runs);
* :class:`~repro.pfs.blockdev.DiskSpec` — per-request service model;
* :class:`~repro.pfs.server.IOServer` — a stripe directory's disk with a
  FIFO request queue on an I/O node;
* :class:`~repro.pfs.backing.BackingStore` — real bytes (compute mode)
  or size-only phantom files (timing mode).
"""

from repro.pfs.stripe import StripeLayout, UnitRun
from repro.pfs.blockdev import DiskSpec
from repro.pfs.backing import BackingStore
from repro.pfs.server import IOServer
from repro.pfs.base import FileHandle, ParallelFileSystem, OpenMode, RetryPolicy
from repro.pfs.pfs import PFS
from repro.pfs.piofs import PIOFS

#: ``FSConfig.kind`` -> file-system class.  The classes' capability flags
#: (``supports_async``, ``supports_list_io``) are the one answer to "can
#: this strategy run here" (:meth:`repro.strategies.IOStrategy.missing_capability`).
FS_CLASSES = {"pfs": PFS, "piofs": PIOFS}

__all__ = [
    "StripeLayout",
    "UnitRun",
    "DiskSpec",
    "BackingStore",
    "IOServer",
    "FileHandle",
    "ParallelFileSystem",
    "OpenMode",
    "RetryPolicy",
    "PFS",
    "PIOFS",
    "FS_CLASSES",
]
