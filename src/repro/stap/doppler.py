"""Doppler filter processing with PRI stagger (pipeline task 0).

The modified PRI-staggered post-Doppler algorithm forms **two staggered
sub-CPIs** from the N pulses — pulses ``0..N-2`` and ``1..N-1`` — and
runs an identical windowed Doppler filter bank (zero-padded to N bins)
over each.  Per Doppler bin the two sub-CPI outputs differ by the phase
advance of one PRI, which is what gives the *hard* bins their second set
of J adaptive degrees of freedom:

* **easy** bins keep only the first sub-CPI: a ``(J, R)`` snapshot per
  bin, adapted spatially;
* **hard** bins stack both sub-CPIs: a ``(2J, R)`` space-time snapshot
  per bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.stap.datacube import DataCube
from repro.stap.params import WINDOW_KINDS, STAPParams

__all__ = ["DopplerOutput", "doppler_process", "doppler_filter_arrays", "doppler_window", "bin_frequency", "WINDOW_KINDS"]


def doppler_window(n: int, kind: str = "hann") -> np.ndarray:
    """Filter-bank taper of length ``n`` (float32).

    ``kind`` trades mainlobe width against Doppler sidelobe level:
    ``rect`` (-13 dB sidelobes), ``hamming`` (-43 dB), ``hann``
    (-31 dB, the default — the conventional STAP choice), ``blackman``
    (-58 dB).  Low sidelobes keep strong clutter from leaking into
    *easy* Doppler bins, where only spatial adaptivity is available.
    """
    if n < 1:
        raise ConfigurationError(f"window length must be >= 1, got {n}")
    if kind not in WINDOW_KINDS:
        raise ConfigurationError(
            f"unknown window kind {kind!r}; choose from {WINDOW_KINDS}"
        )
    if n == 1 or kind == "rect":
        return np.ones(n, dtype=np.float32)
    x = 2.0 * np.pi * np.arange(n) / (n - 1)
    if kind == "hann":
        w = 0.5 - 0.5 * np.cos(x)
    elif kind == "hamming":
        w = 0.54 - 0.46 * np.cos(x)
    else:  # blackman
        w = 0.42 - 0.5 * np.cos(x) + 0.08 * np.cos(2.0 * x)
    # Cosine sums can dip a hair below zero at the endpoints in float32.
    return np.maximum(w, 0.0).astype(np.float32)


def bin_frequency(bin_index: int, n_bins: int) -> float:
    """Normalised Doppler frequency (cycles/PRI) of a filter-bank bin,
    wrapped to ``[-0.5, 0.5)``."""
    f = bin_index / n_bins
    return ((f + 0.5) % 1.0) - 0.5


@dataclass
class DopplerOutput:
    """Filter-bank output split into easy/hard bin groups.

    Attributes
    ----------
    easy:
        ``(n_easy_bins, J, R)`` — first sub-CPI only.
    hard:
        ``(n_hard_bins, 2J, R)`` — both sub-CPIs stacked channel-wise.
    easy_bins / hard_bins:
        The Doppler bin index each row corresponds to.
    cpi_index:
        CPI this output came from (drives the temporal dependency).
    """

    easy: np.ndarray
    hard: np.ndarray
    easy_bins: Tuple[int, ...]
    hard_bins: Tuple[int, ...]
    cpi_index: int

    @property
    def n_ranges(self) -> int:
        return self.easy.shape[-1]

    @property
    def nbytes(self) -> int:
        """Payload bytes (drives simulated transfer costs)."""
        return int(self.easy.nbytes + self.hard.nbytes)


def doppler_filter_arrays(data: np.ndarray, params: STAPParams):
    """Filter-bank core on a (J, N, R') slab; returns ``(easy, hard)``.

    ``R'`` may be any positive width — pipeline Doppler nodes call this
    on their range slab; the full-cube :func:`doppler_process` wraps it.
    Columns are independent, so slab results equal the corresponding
    columns of the full-cube result.
    """
    J, N = params.n_channels, params.n_pulses
    if data.ndim != 3 or data.shape[0] != J or data.shape[1] != N:
        raise ConfigurationError(
            f"slab shape {data.shape} does not match (J={J}, N={N}, *)"
        )
    win = doppler_window(N - 1, getattr(params, "window_kind", "hann"))
    sub_a = data[:, : N - 1, :] * win[None, :, None]
    sub_b = data[:, 1:, :] * win[None, :, None]
    fa = np.transpose(np.fft.fft(sub_a, n=N, axis=1).astype(params.dtype), (1, 0, 2))
    fb = np.transpose(np.fft.fft(sub_b, n=N, axis=1).astype(params.dtype), (1, 0, 2))
    easy = np.ascontiguousarray(fa[list(params.easy_bins)])
    hard = np.ascontiguousarray(
        np.concatenate([fa[list(params.hard_bins)], fb[list(params.hard_bins)]], axis=1)
    )
    return easy, hard


def doppler_process(cube: DataCube, params: STAPParams) -> DopplerOutput:
    """Run the staggered Doppler filter bank over one CPI cube."""
    J, N, R = params.cube_shape
    if cube.shape != (J, N, R):
        raise ConfigurationError(
            f"cube shape {cube.shape} does not match params {params.cube_shape}"
        )
    easy, hard = doppler_filter_arrays(cube.data, params)
    return DopplerOutput(
        easy=easy,
        hard=hard,
        easy_bins=params.easy_bins,
        hard_bins=params.hard_bins,
        cpi_index=cube.cpi_index,
    )
