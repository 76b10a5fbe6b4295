"""The CPI data cube: the unit of data flowing through the pipeline.

A :class:`DataCube` wraps the 3-D complex array collected over one
Coherent Processing Interval — shape ``(channels, pulses, ranges)`` —
plus its CPI sequence number.  Cubes serialise to/from raw bytes for the
simulated file systems (C-order, fixed dtype, no header: the reader knows
the shape, exactly as the paper's fixed-offset reads assume).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.mpi.datatypes import Phantom
from repro.stap.params import STAPParams

__all__ = ["DataCube"]


@dataclass
class DataCube:
    """One CPI of phased-array data.

    Attributes
    ----------
    data:
        Complex array shaped ``(n_channels, n_pulses, n_ranges)``.
    cpi_index:
        Sequence number of this CPI in the radar stream.
    """

    data: np.ndarray
    cpi_index: int = 0

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise ConfigurationError(
                f"cube must be 3-D (channels, pulses, ranges), got {self.data.shape}"
            )
        if self.data.dtype.kind != "c":
            raise ConfigurationError(f"cube must be complex, got {self.data.dtype}")

    # -- shape sugar -----------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int, int]:
        """(channels, pulses, ranges)."""
        return self.data.shape  # type: ignore[return-value]

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_pulses(self) -> int:
        return self.data.shape[1]

    @property
    def n_ranges(self) -> int:
        return self.data.shape[2]

    @property
    def nbytes(self) -> int:
        """Bytes of the payload array."""
        return int(self.data.nbytes)

    # -- (de)serialisation ----------------------------------------------
    def to_bytes(self) -> bytes:
        """C-order raw bytes, the format stored in the simulated files."""
        return np.ascontiguousarray(self.data).tobytes()

    @classmethod
    def from_bytes(
        cls,
        raw: Union[bytes, Phantom],
        params: STAPParams,
        cpi_index: int = 0,
    ) -> "Union[DataCube, Phantom]":
        """Rebuild a cube from file bytes (phantoms pass through).

        Raises
        ------
        ConfigurationError
            If the byte count does not match ``params.cube_nbytes``.
        """
        if isinstance(raw, Phantom):
            return raw
        expected = params.cube_nbytes
        if len(raw) != expected:
            raise ConfigurationError(
                f"cube byte count {len(raw)} != expected {expected}"
            )
        arr = np.frombuffer(raw, dtype=params.dtype).reshape(params.cube_shape).copy()
        return cls(arr, cpi_index=cpi_index)

    # -- range-major file layout ------------------------------------------
    # The radar writes cubes range-major — shape (ranges, channels,
    # pulses) in C order — so that a Doppler node's range slab is ONE
    # contiguous byte extent and its read is a single call with a fixed
    # offset, exactly the access pattern the paper describes (§4).

    def to_file_bytes(self) -> bytes:
        """Serialise range-major for the simulated data files."""
        return np.ascontiguousarray(self.data.transpose(2, 0, 1)).tobytes()

    #: ``file_slab_extent(params, lo, hi)``: (byte offset, byte length)
    #: of range gates ``[lo, hi)`` in a range-major cube file.
    file_slab_extent = staticmethod(STAPParams.file_slab_extent)

    @staticmethod
    def slab_from_file_bytes(
        raw: Union[bytes, Phantom], params: STAPParams, lo: int, hi: int
    ) -> Union[np.ndarray, Phantom]:
        """Rebuild the ``(channels, pulses, hi-lo)`` slab from file bytes."""
        if isinstance(raw, Phantom):
            return raw
        n = hi - lo
        expected = n * params.n_channels * params.n_pulses * params.itemsize
        if len(raw) != expected:
            raise ConfigurationError(
                f"slab byte count {len(raw)} != expected {expected}"
            )
        arr = np.frombuffer(raw, dtype=params.dtype).reshape(
            n, params.n_channels, params.n_pulses
        )
        return np.ascontiguousarray(arr.transpose(1, 2, 0))

    def range_slab(self, lo: int, hi: int) -> np.ndarray:
        """View of range gates ``[lo, hi)`` — the Doppler-task partition."""
        if not (0 <= lo <= hi <= self.n_ranges):
            raise ConfigurationError(f"bad range slab [{lo}, {hi})")
        return self.data[:, :, lo:hi]
