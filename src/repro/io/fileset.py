"""The round-robin CPI data files.

A :class:`CubeFileSet` owns ``n_files`` (default 4, the paper's count)
files in a parallel file system; CPI ``k`` lives in file ``k % n_files``
and always occupies the whole file (one CPI per file at a time — the
radar overwrites the oldest file).  Readers never need metadata: the
cube shape is fixed, so each reader node's ``(path, offset, length)``
for its range slab is computed once at initialisation, as in §4.

Content:

* **timing mode** — files are phantoms of ``cube_nbytes``; reads cost
  real simulated time but return :class:`~repro.mpi.datatypes.Phantom`;
* **compute mode** — a :class:`CubeSource` synthesises (and caches) the
  cube for any CPI; :meth:`CubeFileSet.ensure_cpi` deposits its bytes in
  the backing store before the pipeline's read is posted, standing in
  for the radar having written it earlier.  (Use
  :class:`~repro.io.writer.RadarWriter` to simulate the writes with real
  timing and FS contention instead.)
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.pfs.base import ParallelFileSystem
from repro.stap.params import STAPParams

if TYPE_CHECKING:
    from repro.stap.datacube import DataCube
    from repro.stap.scenario import Scenario

__all__ = ["CubeSource", "CubeFileSet"]


class CubeSource:
    """Deterministic, cached supplier of scenario cubes by CPI index."""

    def __init__(self, params: STAPParams, scenario: Scenario, cache_size: int = 8) -> None:
        if cache_size < 1:
            raise ConfigurationError("cache_size must be >= 1")
        self.params = params
        self.scenario = scenario
        self._cache: "OrderedDict[int, DataCube]" = OrderedDict()
        self._cache_size = cache_size

    def cube(self, cpi: int) -> DataCube:
        """The cube for CPI ``cpi`` (LRU-cached)."""
        if cpi in self._cache:
            self._cache.move_to_end(cpi)
            return self._cache[cpi]
        from repro.stap.scenario import make_cube

        cube = make_cube(self.params, self.scenario, cpi)
        self._cache[cpi] = cube
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return cube


class CubeFileSet:
    """The paper's four round-robin CPI files in a parallel FS."""

    def __init__(
        self,
        fs: ParallelFileSystem,
        params: STAPParams,
        source: Optional[CubeSource] = None,
        n_files: int = 4,
        prefix: str = "cpi",
    ) -> None:
        if n_files < 1:
            raise ConfigurationError("need >= 1 data file")
        self.fs = fs
        self.params = params
        self.source = source
        self.n_files = n_files
        self.prefix = prefix
        self._populated: dict = {}  # file index -> cpi currently stored

    @property
    def phantom(self) -> bool:
        """True when running without real cube content (timing mode)."""
        return self.source is None

    def path(self, cpi: int) -> str:
        """File path holding CPI ``cpi``."""
        if cpi < 0:
            raise ConfigurationError(f"cpi must be >= 0, got {cpi}")
        return f"{self.prefix}{cpi % self.n_files}.dat"

    def initialize(self) -> None:
        """Create all files (phantom-sized or with the first cubes)."""
        for f in range(self.n_files):
            path = f"{self.prefix}{f}.dat"
            if self.phantom:
                self.fs.create(path, phantom_size=self.params.cube_nbytes, exist_ok=True)
            else:
                cube = self.source.cube(f)
                self.fs.create(path, data=cube.to_file_bytes(), exist_ok=True)
                self._populated[f] = f

    def ensure_cpi(self, cpi: int) -> None:
        """Make sure file ``cpi % n_files`` holds CPI ``cpi``'s bytes.

        Host-side (no simulated time): models the radar having written
        the file before the pipeline turns to it.  No-op in timing mode.
        """
        if self.phantom:
            return
        f = cpi % self.n_files
        if self._populated.get(f) == cpi:
            return
        cube = self.source.cube(cpi)
        self.fs.backing.write(self.path(cpi), 0, cube.to_file_bytes())
        self._populated[f] = cpi

    def slab_extent(self, lo: int, hi: int):
        """(offset, nbytes) of range gates [lo, hi) in any CPI file."""
        return self.params.file_slab_extent(lo, hi)
