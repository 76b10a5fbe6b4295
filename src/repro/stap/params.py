"""STAP problem dimensions and algorithm parameters.

The defaults reproduce the paper's data scale: a 16 x 128 x 1024
complex64 CPI cube is exactly 16 MiB — the per-file size reconstructed in
DESIGN.md §4 (256 stripe units of 64 KiB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.core.serialize import Codec
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["STAPParams", "CFAR_METHODS", "WINDOW_KINDS", "training_gate_indices"]

#: CFAR estimator variants supported by :func:`repro.stap.cfar.ca_cfar`.
CFAR_METHODS = ("ca", "goca", "soca", "os")

#: Doppler taper kinds supported by :func:`repro.stap.doppler.doppler_window`.
WINDOW_KINDS = ("hann", "hamming", "blackman", "rect")

#: Complex dtype names accepted without importing numpy.
_COMPLEX_NAMES = ("complex64", "complex128")


def training_gate_indices(n_ranges: int, n_training: int) -> Tuple[int, ...]:
    """``n_training`` range gates spread evenly over ``[0, n_ranges)``.

    Equal, element for element, to
    ``np.linspace(0, n_ranges - 1, n_training).astype(np.intp)``: the
    same float64 products truncated toward zero, with the last gate
    pinned to ``n_ranges - 1``.
    """
    if not (1 <= n_training <= n_ranges):
        raise ConfigurationError(
            f"n_training must be in [1, {n_ranges}], got {n_training}"
        )
    if n_training == 1:
        return (0,)
    step = (n_ranges - 1) / (n_training - 1)
    gates = [int(i * step) for i in range(n_training - 1)]
    gates.append(n_ranges - 1)
    return tuple(gates)


@dataclass(frozen=True)
class STAPParams(Codec):
    """Dimensions and knobs of the PRI-staggered post-Doppler algorithm.

    Attributes
    ----------
    n_channels:
        Array channels J (ULA elements).
    n_pulses:
        Pulses per CPI, N.  The two staggered sub-CPIs each use N-1
        pulses (pulses ``0..N-2`` and ``1..N-1``).
    n_ranges:
        Range gates per pulse, R.
    n_beams:
        Receive beams formed per Doppler bin.
    n_hard_bins:
        Doppler bins treated as *hard* (space-time adaptive, 2J DoF);
        these are the bins nearest the mainlobe clutter ridge.  The
        remaining ``n_pulses - n_hard_bins`` bins are *easy* (spatial
        adaptivity only, J DoF).
    n_training:
        Range samples used to estimate each bin's sample covariance.
    diagonal_load:
        Loading factor (times the mean diagonal) stabilising the
        covariance inversion.
    covariance_memory:
        Forgetting factor for cross-CPI covariance smoothing
        (``R_k = m R_{k-1} + (1-m) R_hat_k``); 0 (default) is the
        paper's single-CPI training.
    pulse_len:
        LFM waveform length in range samples (pulse-compression gain).
    cfar_window:
        Training cells per side for cell-averaging CFAR.
    cfar_guard:
        Guard cells per side.
    pfa:
        CFAR design false-alarm probability.
    cfar_method:
        CFAR estimator: ``"ca"`` (default), ``"goca"``, ``"soca"``, or
        ``"os"`` — see :func:`repro.stap.cfar.ca_cfar`.
    window_kind:
        Doppler filter-bank taper — see
        :func:`repro.stap.doppler.doppler_window`.
    dtype:
        Name of the cube element type; complex64 matches the 16 MiB
        file size.  Anything numpy accepts as a complex dtype is
        normalised to its name.
    """

    n_channels: int = 16
    n_pulses: int = 128
    n_ranges: int = 1024
    n_beams: int = 8
    n_hard_bins: int = 32
    n_training: int = 96
    diagonal_load: float = 0.05
    covariance_memory: float = 0.0
    pulse_len: int = 32
    cfar_window: int = 16
    cfar_guard: int = 2
    pfa: float = 1e-6
    cfar_method: str = "ca"
    window_kind: str = "hann"
    dtype: str = "complex64"

    def __post_init__(self) -> None:
        if self.n_channels < 2:
            raise ConfigurationError("need >= 2 channels")
        if self.n_pulses < 4:
            raise ConfigurationError("need >= 4 pulses")
        if self.n_ranges < 8:
            raise ConfigurationError("need >= 8 range gates")
        if not (0 < self.n_hard_bins < self.n_pulses):
            raise ConfigurationError(
                f"n_hard_bins must be in (0, n_pulses), got {self.n_hard_bins}"
            )
        if self.n_beams < 1:
            raise ConfigurationError("need >= 1 beam")
        if self.n_training < 2 * self.n_channels:
            raise ConfigurationError(
                "n_training should be >= 2*n_channels for a usable covariance "
                f"(got {self.n_training} < {2 * self.n_channels})"
            )
        if self.n_training > self.n_ranges:
            raise ConfigurationError("n_training cannot exceed n_ranges")
        if not (0.0 <= self.covariance_memory < 1.0):
            raise ConfigurationError(
                f"covariance_memory must be in [0, 1), got {self.covariance_memory}"
            )
        if not (1 <= self.pulse_len <= self.n_ranges):
            raise ConfigurationError("pulse_len must be in [1, n_ranges]")
        if self.cfar_window < 1 or self.cfar_guard < 0:
            raise ConfigurationError("bad CFAR window/guard")
        if not (0.0 < self.pfa < 1.0):
            raise ConfigurationError("pfa must be in (0, 1)")
        if self.cfar_method not in CFAR_METHODS:
            raise ConfigurationError(
                f"cfar_method must be one of {CFAR_METHODS}, got {self.cfar_method!r}"
            )
        if self.window_kind not in WINDOW_KINDS:
            raise ConfigurationError(
                f"window_kind must be one of {WINDOW_KINDS}, got {self.window_kind!r}"
            )
        if not (isinstance(self.dtype, str) and self.dtype in _COMPLEX_NAMES):
            import numpy as np

            try:
                dt = np.dtype(self.dtype)
            except TypeError as exc:
                raise ConfigurationError(f"bad dtype {self.dtype!r}: {exc}") from None
            if dt.kind != "c":
                raise ConfigurationError("dtype must be complex")
            object.__setattr__(self, "dtype", dt.name)

    # -- derived dimensions ------------------------------------------------
    @property
    def n_doppler_bins(self) -> int:
        """Doppler bins produced by the filter bank (= n_pulses)."""
        return self.n_pulses

    @property
    def n_easy_bins(self) -> int:
        """Number of easy (spatial-only) Doppler bins."""
        return self.n_pulses - self.n_hard_bins

    @property
    def hard_bins(self) -> Tuple[int, ...]:
        """Indices of hard bins: centred on zero Doppler (the mainlobe
        clutter ridge for a sidelooking array), wrapping around DC."""
        half = self.n_hard_bins // 2
        idx = [(b - half) % self.n_pulses for b in range(self.n_hard_bins)]
        return tuple(sorted(idx))

    @property
    def easy_bins(self) -> Tuple[int, ...]:
        """Indices of easy bins (complement of :attr:`hard_bins`)."""
        hard = set(self.hard_bins)
        return tuple(b for b in range(self.n_pulses) if b not in hard)

    @property
    def easy_dof(self) -> int:
        """Adaptive degrees of freedom for easy bins (spatial only)."""
        return self.n_channels

    @property
    def hard_dof(self) -> int:
        """Adaptive DoF for hard bins (two staggered sub-apertures)."""
        return 2 * self.n_channels

    @property
    def cube_shape(self) -> Tuple[int, int, int]:
        """(channels, pulses, ranges)."""
        return (self.n_channels, self.n_pulses, self.n_ranges)

    @property
    def itemsize(self) -> int:
        """Bytes of one cube element: a complex dtype's name is
        ``complex<bits>``."""
        return int(self.dtype[len("complex"):]) // 8

    @property
    def cube_nbytes(self) -> int:
        """Bytes of one CPI cube."""
        return math.prod(self.cube_shape) * self.itemsize

    def file_slab_extent(self, lo: int, hi: int) -> Tuple[int, int]:
        """(byte offset, byte length) of range gates ``[lo, hi)`` in a
        range-major cube file (see :class:`~repro.stap.datacube.DataCube`)."""
        if not (0 <= lo <= hi <= self.n_ranges):
            raise ConfigurationError(f"bad range slab [{lo}, {hi})")
        row = self.n_channels * self.n_pulses * self.itemsize
        return lo * row, (hi - lo) * row

    @property
    def beam_angles(self) -> np.ndarray:
        """Beam steering angles (radians), uniform in sin-space."""
        import numpy as np

        sines = np.linspace(-0.6, 0.6, self.n_beams)
        return np.arcsin(sines)

    def scaled(self, factor: float) -> "STAPParams":
        """A smaller/larger copy for tests: scales ranges and training."""
        n_ranges = max(8, 2 * self.n_channels, int(self.n_ranges * factor))
        n_training = min(max(2 * self.n_channels, int(self.n_training * factor)), n_ranges)
        return STAPParams(
            n_channels=self.n_channels,
            n_pulses=self.n_pulses,
            n_ranges=n_ranges,
            n_beams=self.n_beams,
            n_hard_bins=self.n_hard_bins,
            n_training=n_training,
            diagonal_load=self.diagonal_load,
            covariance_memory=self.covariance_memory,
            pulse_len=min(self.pulse_len, n_ranges),
            cfar_window=self.cfar_window,
            cfar_guard=self.cfar_guard,
            pfa=self.pfa,
            cfar_method=self.cfar_method,
            window_kind=self.window_kind,
            dtype=self.dtype,
        )


def tiny_params() -> STAPParams:
    """A very small parameter set for fast unit tests."""
    return STAPParams(
        n_channels=4,
        n_pulses=16,
        n_ranges=128,
        n_beams=4,
        n_hard_bins=4,
        n_training=32,
        pulse_len=8,
        cfar_window=8,
        cfar_guard=2,
    )
