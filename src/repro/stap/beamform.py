"""Adaptive beamforming (pipeline tasks 3 and 4).

Applies a :class:`~repro.stap.weights.WeightSet` to the matching Doppler
bin group: ``y[bin, beam, range] = w[bin, :, beam]^H  x[bin, :, range]``.
The same function serves the easy task (J-channel snapshots) and the
hard task (2J space-time snapshots) — only the array widths differ.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

    from repro.stap.weights import WeightSet

__all__ = ["beamform"]


def beamform(data: np.ndarray, weights: WeightSet) -> np.ndarray:
    """Form beams for a group of Doppler bins.

    Parameters
    ----------
    data:
        ``(n_bins, dof, n_ranges)`` Doppler-filtered snapshots.
    weights:
        Matching weight set, ``(n_bins, dof, n_beams)``; rows must
        correspond one-to-one with ``data`` rows.

    Returns
    -------
    np.ndarray
        ``(n_bins, n_beams, n_ranges)`` beamformed output.
    """
    w = weights.weights
    if data.ndim != 3 or w.ndim != 3:
        raise ConfigurationError("data and weights must be 3-D")
    if data.shape[0] != w.shape[0]:
        raise ConfigurationError(
            f"bin count mismatch: data {data.shape[0]} vs weights {w.shape[0]}"
        )
    if data.shape[1] != w.shape[1]:
        raise ConfigurationError(
            f"DoF mismatch: data {data.shape[1]} vs weights {w.shape[1]}"
        )
    import numpy as np

    # y[b, k, r] = sum_j conj(w[b, j, k]) x[b, j, r]
    return np.einsum("bjk,bjr->bkr", w.conj(), data).astype(np.complex64)
