"""File content storage behind the simulated file systems.

The simulation layers (striping, disk queues, network shipping) never
look at content — but the STAP numerics do, so compute-mode runs need
real bytes to flow through the file system.  :class:`BackingStore` keeps
each file as a growable ``bytearray``; *phantom* files store only a size
and serve :class:`~repro.mpi.datatypes.Phantom` reads, so 100-node
timing-mode sweeps don't allocate gigabytes.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Dict, Union

from repro.errors import NoSuchFileError
from repro.mpi.datatypes import Phantom

if TYPE_CHECKING:
    import numpy as np

__all__ = ["BackingStore"]


class BackingStore:
    """Path-addressed content store shared by a file system instance."""

    def __init__(self) -> None:
        self._data: Dict[str, bytearray] = {}
        self._phantom_sizes: Dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------
    def create(self, path: str, phantom: bool = False, size: int = 0) -> None:
        """Create an empty file (or a phantom of ``size`` bytes)."""
        if phantom:
            self._phantom_sizes[path] = int(size)
            self._data.pop(path, None)
        else:
            self._data[path] = bytearray(int(size))
            self._phantom_sizes.pop(path, None)

    def exists(self, path: str) -> bool:
        """True if ``path`` holds real or phantom content."""
        return path in self._data or path in self._phantom_sizes

    def is_phantom(self, path: str) -> bool:
        """True if ``path`` is a size-only phantom file."""
        return path in self._phantom_sizes

    def remove(self, path: str) -> None:
        """Delete a file; missing paths raise :class:`NoSuchFileError`."""
        if path in self._data:
            del self._data[path]
        elif path in self._phantom_sizes:
            del self._phantom_sizes[path]
        else:
            raise NoSuchFileError(path)

    def size(self, path: str) -> int:
        """Current length of the file in bytes."""
        if path in self._data:
            return len(self._data[path])
        if path in self._phantom_sizes:
            return self._phantom_sizes[path]
        raise NoSuchFileError(path)

    # -- content I/O -----------------------------------------------------
    def write(self, path: str, offset: int, data: Union[bytes, np.ndarray, Phantom]) -> int:
        """Store ``data`` at ``offset``, growing the file as needed.

        Returns the number of bytes written.  Writing to a phantom file
        (or writing Phantom data) only extends the recorded size.
        """
        if not self.exists(path):
            raise NoSuchFileError(path)
        if isinstance(data, Phantom):
            nbytes = data.nbytes
            if path in self._phantom_sizes:
                self._phantom_sizes[path] = max(self._phantom_sizes[path], offset + nbytes)
            else:  # phantom write into a real file just zero-extends it
                buf = self._data[path]
                if offset + nbytes > len(buf):
                    buf.extend(b"\0" * (offset + nbytes - len(buf)))
            return nbytes
        np = sys.modules.get("numpy")  # an ndarray implies numpy is loaded
        raw = (data.tobytes() if np is not None and isinstance(data, np.ndarray)
               else bytes(data))
        if path in self._phantom_sizes:
            self._phantom_sizes[path] = max(self._phantom_sizes[path], offset + len(raw))
            return len(raw)
        buf = self._data[path]
        end = offset + len(raw)
        if end > len(buf):
            buf.extend(b"\0" * (end - len(buf)))
        buf[offset:end] = raw
        return len(raw)

    def read(self, path: str, offset: int, nbytes: int) -> Union[bytes, Phantom]:
        """Fetch ``nbytes`` from ``offset``.

        Phantom files return a :class:`Phantom` of the requested size.
        Reads past end-of-file are short, like POSIX reads.
        """
        if path in self._phantom_sizes:
            avail = max(0, self._phantom_sizes[path] - offset)
            return Phantom(min(nbytes, avail), {"path": path, "offset": offset})
        if path not in self._data:
            raise NoSuchFileError(path)
        buf = self._data[path]
        return bytes(buf[offset : offset + nbytes])
