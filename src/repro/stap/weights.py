"""Adaptive weight computation (pipeline tasks 1 and 2).

Per Doppler bin, MVDR weights are computed from a diagonally loaded
sample covariance estimated over training range gates:

.. math::

    \\hat R = \\frac{1}{L} X X^H + \\delta\\,\\overline{\\mathrm{diag}}\\,I,
    \\qquad
    w_k = \\frac{\\hat R^{-1} v_k}{v_k^H \\hat R^{-1} v_k}

for each beam steering vector :math:`v_k`.  *Easy* bins adapt over the J
spatial channels; *hard* bins adapt over the 2J stacked space-time
channels, with the second sub-aperture's steering advanced by the bin's
Doppler phase (one PRI of stagger).

In the pipeline these tasks consume the **previous** CPI's Doppler
output (temporal dependency TD): interference statistics are stationary
across CPIs, so last CPI's training data yields valid weights for the
current one — and the latency path never waits for weight computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.stap.doppler import DopplerOutput, bin_frequency
from repro.stap.params import STAPParams
from repro.stap.scenario import spatial_steering

__all__ = [
    "WeightSet",
    "training_gates",
    "steering_matrix_easy",
    "steering_matrix_hard",
    "solve_mvdr",
    "sample_covariance",
    "mvdr_from_covariance",
    "CovarianceTracker",
    "initial_weights",
    "compute_weights_easy",
    "compute_weights_hard",
]


@dataclass
class WeightSet:
    """Adaptive weights for a group of Doppler bins.

    Attributes
    ----------
    weights:
        ``(n_bins, dof, n_beams)`` complex weights.
    bins:
        Doppler bin index per row.
    from_cpi:
        CPI index of the training data (the *previous* CPI in steady
        state).
    """

    weights: np.ndarray
    bins: Tuple[int, ...]
    from_cpi: int

    @property
    def nbytes(self) -> int:
        return int(self.weights.nbytes)


def training_gates(n_ranges: int, n_training: int) -> np.ndarray:
    """Evenly spread training gate indices across the range extent.

    Spreading (rather than taking a leading block) dilutes any single
    target's contamination of the covariance estimate.
    """
    if not (1 <= n_training <= n_ranges):
        raise ConfigurationError(
            f"n_training must be in [1, {n_ranges}], got {n_training}"
        )
    return np.linspace(0, n_ranges - 1, n_training).astype(np.intp)


def steering_matrix_easy(params: STAPParams) -> np.ndarray:
    """Spatial steering vectors for all beams: ``(J, n_beams)``."""
    cols = [spatial_steering(a, params.n_channels) for a in params.beam_angles]
    return np.stack(cols, axis=1)


def steering_matrix_hard(params: STAPParams, bin_index: int) -> np.ndarray:
    """Space-time steering for a hard bin: ``(2J, n_beams)``.

    The second sub-aperture (pulses shifted by one PRI) sees the target
    advanced by ``exp(2j pi f_bin)``.
    """
    v = steering_matrix_easy(params)
    phase = np.exp(2j * np.pi * bin_frequency(bin_index, params.n_doppler_bins))
    return np.concatenate([v, phase * v], axis=0).astype(np.complex64)


def sample_covariance(snapshots: np.ndarray) -> np.ndarray:
    """Unbiased-normalised sample covariance ``X X^H / L``."""
    if snapshots.ndim != 2:
        raise ConfigurationError("snapshots must be (dof, n_training)")
    return (snapshots @ snapshots.conj().T) / snapshots.shape[1]


def mvdr_from_covariance(
    R: np.ndarray,
    steering: np.ndarray,
    diagonal_load: float,
) -> np.ndarray:
    """MVDR weights from a given covariance (diagonal loading applied).

    Returns ``(dof, n_beams)`` distortionless weights per beam.
    """
    # Imported here, not at module level: timing mode never solves, so
    # simulator, service and analyzer processes never load scipy.
    import scipy.linalg as sla

    dof = R.shape[0]
    if steering.shape[0] != dof:
        raise ConfigurationError(
            f"steering dof {steering.shape[0]} != covariance dof {dof}"
        )
    load = diagonal_load * (np.real(np.trace(R)) / dof + 1e-12)
    R = R + load * np.eye(dof, dtype=R.dtype)
    cho = sla.cho_factor(R, lower=True, check_finite=False)
    Rinv_v = sla.cho_solve(cho, steering, check_finite=False)
    denom = np.sum(steering.conj() * Rinv_v, axis=0)  # v^H R^-1 v, per beam
    return (Rinv_v / denom[None, :]).astype(np.complex64)


def solve_mvdr(
    snapshots: np.ndarray,
    steering: np.ndarray,
    diagonal_load: float,
) -> np.ndarray:
    """MVDR weights for one bin.

    Parameters
    ----------
    snapshots:
        ``(dof, n_training)`` training snapshots.
    steering:
        ``(dof, n_beams)`` steering matrix.
    diagonal_load:
        Loading as a fraction of the mean diagonal power.

    Returns
    -------
    np.ndarray
        ``(dof, n_beams)`` weights, distortionless per beam
        (``v^H w = 1``).
    """
    return mvdr_from_covariance(
        sample_covariance(snapshots), steering, diagonal_load
    )


class CovarianceTracker:
    """Exponentially smoothed covariance across CPIs (forgetting factor).

    With memory :math:`\\lambda \\in [0, 1)`, the covariance used at CPI
    *k* is

    .. math:: R_k = \\lambda R_{k-1} + (1 - \\lambda)\\,\\hat R_k,

    an exponentially weighted average over past CPIs.  Interference
    statistics are stationary across CPIs (the premise of the pipeline's
    temporal dependency), so smoothing raises the *effective* training
    count beyond one CPI's gates — sharper weights when ``n_training``
    is tight, the standard recursive estimator in operational systems.
    ``memory = 0`` reproduces the paper's single-CPI training exactly.

    State is keyed by Doppler-bin label, so a tracker can serve any
    subset of bins (each pipeline weight node tracks only its rows).
    """

    def __init__(self, memory: float) -> None:
        if not (0.0 <= memory < 1.0):
            raise ConfigurationError(
                f"covariance memory must be in [0, 1), got {memory}"
            )
        self.memory = memory
        self._state: dict = {}

    def smooth(self, bin_label: int, r_hat: np.ndarray) -> np.ndarray:
        """Blend the new estimate into the running one and return it."""
        if self.memory == 0.0:
            return r_hat
        prev = self._state.get(bin_label)
        if prev is None:
            blended = r_hat
        else:
            blended = self.memory * prev + (1.0 - self.memory) * r_hat
        self._state[bin_label] = blended
        return blended


def initial_weights(
    params: STAPParams,
    hard: bool,
    bins: Sequence[int],
) -> np.ndarray:
    """Non-adaptive bootstrap weights for the first CPI.

    Before any training data exists (CPI 0), the pipeline beamforms with
    quiescent weights ``w = v / (v^H v)`` — MVDR with an identity
    covariance.  Returns ``(len(bins), dof, n_beams)``.
    """
    out = []
    v_easy = steering_matrix_easy(params)
    for b in bins:
        v = steering_matrix_hard(params, b) if hard else v_easy
        norm = np.sum(np.abs(v) ** 2, axis=0)
        out.append((v / norm[None, :]).astype(np.complex64))
    if not out:
        dof = params.hard_dof if hard else params.easy_dof
        return np.zeros((0, dof, params.n_beams), np.complex64)
    return np.stack(out, axis=0)


def _compute_group(
    data: np.ndarray,
    bins: Sequence[int],
    params: STAPParams,
    hard: bool,
    from_cpi: int,
    bin_subset: Optional[Sequence[int]] = None,
    tracker: Optional[CovarianceTracker] = None,
) -> WeightSet:
    gates = training_gates(data.shape[-1], min(params.n_training, data.shape[-1]))
    rows = range(len(bins)) if bin_subset is None else bin_subset
    out = []
    sel_bins = []
    v_easy = steering_matrix_easy(params)
    for row in rows:
        snapshots = data[row][:, gates]
        v = steering_matrix_hard(params, bins[row]) if hard else v_easy
        r_hat = sample_covariance(snapshots)
        if tracker is not None:
            r_hat = tracker.smooth(bins[row], r_hat)
        out.append(mvdr_from_covariance(r_hat, v, params.diagonal_load))
        sel_bins.append(bins[row])
    return WeightSet(
        weights=np.stack(out, axis=0) if out else np.zeros((0, 0, 0), np.complex64),
        bins=tuple(sel_bins),
        from_cpi=from_cpi,
    )


def compute_weights_easy(
    dop: DopplerOutput,
    params: STAPParams,
    bin_subset: Optional[Sequence[int]] = None,
    tracker: Optional[CovarianceTracker] = None,
) -> WeightSet:
    """Weights for (a subset of the rows of) the easy bins.

    ``bin_subset`` selects *row indices into* ``dop.easy`` — this is how
    a pipeline node computes just its partition.  ``tracker`` enables
    cross-CPI covariance smoothing (see :class:`CovarianceTracker`).
    """
    return _compute_group(
        dop.easy, dop.easy_bins, params, hard=False, from_cpi=dop.cpi_index,
        bin_subset=bin_subset, tracker=tracker,
    )


def compute_weights_hard(
    dop: DopplerOutput,
    params: STAPParams,
    bin_subset: Optional[Sequence[int]] = None,
    tracker: Optional[CovarianceTracker] = None,
) -> WeightSet:
    """Weights for (a subset of the rows of) the hard bins."""
    return _compute_group(
        dop.hard, dop.hard_bins, params, hard=True, from_cpi=dop.cpi_index,
        bin_subset=bin_subset, tracker=tracker,
    )
