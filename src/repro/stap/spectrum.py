"""Angle-Doppler spectrum diagnostics.

The classic STAP picture: clutter from a sidelooking array traces a
diagonal *ridge* through the angle-Doppler plane (Doppler proportional
to sin(angle)), a jammer paints a vertical *line* at its angle, and a
moving target sits at an isolated point off the ridge.  These estimators
make that picture computable from a CPI cube — for scene debugging, for
sanity-checking the synthetic scenario generator, and for the clutter-
spectrum example.

Two estimators:

* :func:`fourier_spectrum` — conventional (Bartlett) beam/Doppler scan:
  fast, sidelobe-limited;
* :func:`mvdr_spectrum` — Capon's minimum-variance estimator from the
  space-time covariance: sharper, at the cost of a (small) matrix solve
  per look direction.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.stap.datacube import DataCube

__all__ = ["space_time_snapshots", "fourier_spectrum", "mvdr_spectrum"]


def space_time_snapshots(
    cube: DataCube, n_pulses_sub: int = 8
) -> np.ndarray:
    """Slide a ``(J, n_pulses_sub)`` space-time aperture over the cube.

    Returns ``(J * n_pulses_sub, n_snapshots)`` snapshots: one per
    (range gate, pulse offset), vectorised channel-major.  This is the
    standard sub-CPI smoothing that makes a full space-time covariance
    estimable from one cube.
    """
    J, N, R = cube.shape
    if not (1 <= n_pulses_sub <= N):
        raise ConfigurationError(
            f"n_pulses_sub must be in [1, {N}], got {n_pulses_sub}"
        )
    n_offsets = N - n_pulses_sub + 1
    # snapshots[j, p, o, r] = data[j, o + p, r]
    out = np.empty((J, n_pulses_sub, n_offsets, R), dtype=cube.data.dtype)
    for p in range(n_pulses_sub):
        out[:, p, :, :] = cube.data[:, p : p + n_offsets, :]
    return out.reshape(J * n_pulses_sub, n_offsets * R)


def _steering_grid(
    n_channels: int,
    n_pulses_sub: int,
    sin_angles: np.ndarray,
    dopplers: np.ndarray,
) -> np.ndarray:
    """Space-time steering vectors for a grid: ``(JP, n_ang, n_dop)``."""
    j = np.arange(n_channels)
    p = np.arange(n_pulses_sub)
    a = np.exp(1j * np.pi * np.outer(j, sin_angles))          # (J, A)
    b = np.exp(2j * np.pi * np.outer(p, dopplers))            # (P, D)
    # v[jp, angle, doppler] = a[j, angle] * b[p, doppler]
    v = a[:, None, :, None] * b[None, :, None, :]
    JP = n_channels * n_pulses_sub
    return v.reshape(JP, len(sin_angles), len(dopplers))


def fourier_spectrum(
    cube: DataCube,
    n_angles: int = 33,
    n_dopplers: int = 33,
    n_pulses_sub: int = 8,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conventional angle-Doppler power spectrum.

    Returns ``(power, sin_angles, dopplers)`` with ``power`` shaped
    ``(n_angles, n_dopplers)`` in linear units (normalised steering).
    """
    snaps = space_time_snapshots(cube, n_pulses_sub)
    JP = snaps.shape[0]
    R = (snaps @ snaps.conj().T) / snaps.shape[1]
    sin_angles = np.linspace(-1.0, 1.0, n_angles)
    dopplers = np.linspace(-0.5, 0.5, n_dopplers)
    V = _steering_grid(cube.n_channels, n_pulses_sub, sin_angles, dopplers)
    Vf = V.reshape(JP, -1) / np.sqrt(JP)
    power = np.real(np.sum(Vf.conj() * (R @ Vf), axis=0))
    return power.reshape(n_angles, n_dopplers), sin_angles, dopplers


def mvdr_spectrum(
    cube: DataCube,
    n_angles: int = 33,
    n_dopplers: int = 33,
    n_pulses_sub: int = 8,
    diagonal_load: float = 0.01,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Capon (MVDR) angle-Doppler spectrum: ``1 / (v^H R^-1 v)``."""
    import scipy.linalg as sla  # only solves load scipy

    snaps = space_time_snapshots(cube, n_pulses_sub)
    JP = snaps.shape[0]
    R = (snaps @ snaps.conj().T) / snaps.shape[1]
    load = diagonal_load * (np.real(np.trace(R)) / JP + 1e-12)
    R = R + load * np.eye(JP, dtype=R.dtype)
    cho = sla.cho_factor(R, lower=True, check_finite=False)
    sin_angles = np.linspace(-1.0, 1.0, n_angles)
    dopplers = np.linspace(-0.5, 0.5, n_dopplers)
    V = _steering_grid(cube.n_channels, n_pulses_sub, sin_angles, dopplers)
    Vf = V.reshape(JP, -1)
    RinvV = sla.cho_solve(cho, Vf, check_finite=False)
    denom = np.real(np.sum(Vf.conj() * RinvV, axis=0))
    power = JP / np.maximum(denom, 1e-300)
    return power.reshape(n_angles, n_dopplers), sin_angles, dopplers
