"""Pulse compression (matched filtering against the LFM waveform).

In the paper's pipeline this runs *after* beamforming — valid because
pulse compression is linear in fast time and commutes with the spatial/
Doppler linear operations.  Compression is implemented as FFT-based
correlation along the range axis and returns the same number of range
gates as the input (a target whose echo starts at gate ``r0`` focuses to
a peak *at* ``r0``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError
from repro.stap.costs import segment_length

__all__ = ["lfm_replica", "pulse_compress", "pulse_compress_direct", "segment_length"]


@lru_cache(maxsize=32)
def lfm_replica(pulse_len: int) -> np.ndarray:
    """Unit-energy linear-FM (chirp) waveform of ``pulse_len`` samples.

    Phase ``pi * k^2 / L`` sweeps half the sampling band — a conventional
    discrete LFM with ~L:1 compression ratio.
    """
    if pulse_len < 1:
        raise ConfigurationError(f"pulse_len must be >= 1, got {pulse_len}")
    k = np.arange(pulse_len)
    c = np.exp(1j * np.pi * k * k / pulse_len)
    return (c / np.sqrt(pulse_len)).astype(np.complex64)


def pulse_compress(data: np.ndarray, pulse_len: int) -> np.ndarray:
    """Matched-filter ``data`` along its last axis (overlap-save).

    Parameters
    ----------
    data:
        Complex array ``(..., n_ranges)`` of beamformed fast-time samples.
    pulse_len:
        LFM length; the replica is regenerated (cached) from it.

    Returns
    -------
    np.ndarray
        Same shape as ``data``; gate ``r`` holds the correlation
        ``y[r] = sum_k conj(c[k]) x[r + k]`` — a matched echo starting at
        gate ``r0`` focuses to a peak at ``r0`` with amplitude gain
        ``sqrt(pulse_len)`` over a single echo sample (SNR gain
        ``pulse_len`` for the unit-energy replica).

    The filter runs in overlap-save segments of
    :func:`segment_length` points (step ``L - pulse_len + 1``), the
    production streaming formulation: O(R log pulse_len) instead of the
    O(R log R) of one monolithic FFT, and numerically identical to
    direct correlation.
    """
    if data.ndim < 1:
        raise ConfigurationError("data must have a range axis")
    n_ranges = data.shape[-1]
    if pulse_len > n_ranges:
        raise ConfigurationError(
            f"pulse_len {pulse_len} exceeds range extent {n_ranges}"
        )
    replica = lfm_replica(pulse_len)
    L = segment_length(pulse_len)
    step = L - pulse_len + 1
    C = np.conj(np.fft.fft(replica, n=L))
    # Zero-pad the tail so echoes near the end correlate against silence
    # (a "valid" correlation, not a circular one).
    pad = np.zeros(data.shape[:-1] + (pulse_len - 1,), dtype=data.dtype)
    x = np.concatenate([data, pad], axis=-1)
    out = np.empty(data.shape[:-1] + (n_ranges,), dtype=np.complex64)
    for s in range(0, n_ranges, step):
        seg = x[..., s : s + L]
        if seg.shape[-1] < L:
            zpad = np.zeros(data.shape[:-1] + (L - seg.shape[-1],), dtype=data.dtype)
            seg = np.concatenate([seg, zpad], axis=-1)
        y = np.fft.ifft(np.fft.fft(seg, axis=-1) * C, axis=-1)
        take = min(step, n_ranges - s)
        out[..., s : s + take] = y[..., :take]
    return out


def pulse_compress_direct(data: np.ndarray, pulse_len: int) -> np.ndarray:
    """Reference O(R * pulse_len) time-domain correlation.

    Used by tests to validate the overlap-save implementation; identical
    output (to float tolerance) to :func:`pulse_compress`.
    """
    if data.ndim < 1:
        raise ConfigurationError("data must have a range axis")
    n_ranges = data.shape[-1]
    if pulse_len > n_ranges:
        raise ConfigurationError(
            f"pulse_len {pulse_len} exceeds range extent {n_ranges}"
        )
    replica = lfm_replica(pulse_len)
    pad = np.zeros(data.shape[:-1] + (pulse_len - 1,), dtype=data.dtype)
    x = np.concatenate([data, pad], axis=-1)
    out = np.zeros(data.shape[:-1] + (n_ranges,), dtype=np.complex64)
    for k in range(pulse_len):
        out += np.conj(replica[k]) * x[..., k : k + n_ranges]
    return out
