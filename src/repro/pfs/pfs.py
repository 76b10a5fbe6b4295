"""Intel Paragon PFS model: striped files with asynchronous reads.

Adds the NX-style asynchronous API on top of
:class:`~repro.pfs.base.ParallelFileSystem`:

* :meth:`PFS.iread` — post an asynchronous read, get a
  :class:`~repro.mpi.request.Request` back immediately;
* :meth:`PFS.iowait` — wait for a posted request (the paper's
  ``ireadoff`` completion call);
* ``iodone``-style polling via ``Request.complete``.

This is the mechanism that lets the embedded-I/O Doppler task overlap
reading CPI *k+1* with computing CPI *k* on the Paragon — the overlap
PIOFS cannot provide.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro.mpi.datatypes import Phantom
from repro.mpi.request import Request
from repro.pfs.base import FileHandle, ParallelFileSystem

if TYPE_CHECKING:
    import numpy as np

__all__ = ["PFS"]


class PFS(ParallelFileSystem):
    """Paragon Parallel File System (async-capable)."""

    supports_async = True
    supports_list_io = True

    def iread(self, handle: FileHandle, offset: int, nbytes: int) -> Request:
        """Post an asynchronous read; returns a request immediately.

        The striped read proceeds as a background process; the request's
        value on completion is the assembled content.
        """
        proc = self.kernel.process(
            self.read(handle, offset, nbytes),
            name=f"iread:{handle.path}@{offset}",
        )
        return Request(proc, kind="iread")

    def iread_list(self, accesses) -> Request:
        """Post an asynchronous list-I/O read; returns a request.

        ``accesses`` is a list of ``(handle, offset, nbytes)`` triples —
        see :meth:`~repro.pfs.base.ParallelFileSystem.read_list`.  The
        request's value on completion is the list of per-access contents
        in input order.
        """
        label = accesses[0][0].path if accesses else "<empty>"
        proc = self.kernel.process(
            self.read_list(accesses),
            name=f"iread_list:{label}+{len(accesses)}",
        )
        return Request(proc, kind="iread")

    def iwrite(
        self, handle: FileHandle, offset: int, data: Union[bytes, np.ndarray, Phantom]
    ) -> Request:
        """Post an asynchronous write; returns a request immediately."""
        proc = self.kernel.process(
            self.write(handle, offset, data),
            name=f"iwrite:{handle.path}@{offset}",
        )
        return Request(proc, kind="iwrite")

    @staticmethod
    def iowait(request: Request):
        """Process generator: block until an async request completes.

        Mirrors the paper's ``ireadoff`` completion subroutine; returns
        the read content (or bytes-written for iwrite).
        """
        result = yield from request.wait()
        return result
