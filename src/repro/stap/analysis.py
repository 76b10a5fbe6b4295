"""Clairvoyant interference analysis: exact covariances and SINR loss.

The scenario generator draws random realisations; this module computes
the **exact** post-Doppler interference covariance those realisations
are drawn from — clutter patches, jammer, and noise propagated
analytically through the staggered, windowed filter bank.  Two uses:

* **validation** — the sample covariance of many Monte-Carlo cubes must
  converge to the clairvoyant one (tested), which pins down both the
  generator and this analysis;
* **performance analysis** — optimal (clairvoyant) weights and the
  classic *SINR-loss vs Doppler* curve: how much of the matched-filter
  SNR the environment costs at each Doppler bin.  The deep notch at the
  mainlobe-clutter Doppler is the picture behind the paper's easy/hard
  bin split.

Conventions match :mod:`repro.stap.doppler`: sub-CPI A = pulses
``0..N-2``, sub-CPI B = pulses ``1..N-1``, both windowed with the
params' taper and evaluated at bin frequency ``b/N``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.stap.doppler import doppler_window
from repro.stap.params import STAPParams
from repro.stap.scenario import Scenario, spatial_steering
from repro.stap.weights import steering_matrix_easy, steering_matrix_hard

__all__ = [
    "filter_response",
    "clairvoyant_covariance",
    "optimal_weights",
    "output_sinr",
    "sinr_loss_curve",
]


def filter_response(params: STAPParams, bin_index: int, doppler: float) -> complex:
    """Sub-CPI A's filter-bank response at ``doppler`` for ``bin_index``.

    ``H_b(f) = sum_n win[n] exp(2j pi f n) exp(-2j pi b n / N)`` over the
    N-1 windowed pulses.  Sub-CPI B's response is ``exp(2j pi f) H_b(f)``
    (one PRI of advance), which is how the stagger encodes Doppler.
    """
    N = params.n_pulses
    if not (0 <= bin_index < N):
        raise ConfigurationError(f"bin {bin_index} outside [0, {N})")
    win = doppler_window(N - 1, params.window_kind).astype(np.float64)
    n = np.arange(N - 1)
    return complex(
        np.sum(win * np.exp(2j * np.pi * doppler * n - 2j * np.pi * bin_index * n / N))
    )


def _temporal_blocks(params: STAPParams, bin_index: int) -> Tuple[float, complex]:
    """Noise statistics of the two staggered filter outputs per channel.

    Returns ``(e0, c)``: ``e0 = sum win^2`` (each output's noise power
    for unit input noise) and ``c = E[xA conj(xB)] =
    exp(-2j pi b / N) * sum_n win[n] win[n-1]`` — the sub-CPIs share
    N-2 pulses, so their noise is strongly correlated.
    """
    N = params.n_pulses
    win = doppler_window(N - 1, params.window_kind).astype(np.float64)
    e0 = float(np.sum(win**2))
    overlap = float(np.sum(win[1:] * win[:-1]))
    # xA uses x[n], xB uses x[n+1]: the shared sample x[m] appears in xA
    # at index m and in xB at index m-1.
    c = np.exp(-2j * np.pi * bin_index / N) * overlap
    return e0, complex(c)


def clairvoyant_covariance(
    params: STAPParams,
    scenario: Scenario,
    bin_index: int,
    hard: bool,
) -> np.ndarray:
    """Exact interference-plus-noise covariance of one Doppler bin.

    ``(J, J)`` for easy bins (sub-CPI A only) or ``(2J, 2J)`` for hard
    bins (both staggered sub-CPIs stacked channel-wise) — the same
    snapshot convention the pipeline's weight tasks train on.
    Targets are excluded (they are the signal, not the interference).
    """
    J = params.n_channels
    e0, c = _temporal_blocks(params, bin_index)
    dof = 2 * J if hard else J
    R = np.zeros((dof, dof), dtype=np.complex128)

    def add_rank1(spatial: np.ndarray, ha: complex, phase: complex, power: float) -> None:
        """Add a coherent contributor: spatial steering x stagger pair.

        ``phase`` is the one-PRI advance ``exp(2j pi f)`` relating the
        second sub-CPI's response to the first's.
        """
        if hard:
            s = np.concatenate([ha * spatial, ha * phase * spatial])
        else:
            s = ha * spatial
        R[...] += power * np.outer(s, s.conj())

    def add_white_temporal(spatial_cov: np.ndarray, power: float) -> None:
        """Add a pulse-white contributor (jammer/noise): block structure
        [[e0, c], [conj(c), e0]] in the stagger dimension."""
        if hard:
            blk = np.array([[e0, c], [np.conj(c), e0]])
            R[...] += power * np.kron(blk, spatial_cov)
        else:
            R[...] += power * e0 * spatial_cov

    # -- clutter patches (deterministic geometry, random amplitudes) ------
    if scenario.cnr_db is not None and np.isfinite(scenario.cnr_db):
        P = scenario.n_clutter_patches
        sin_angles = np.linspace(-0.95, 0.95, P)
        patch_power = 10.0 ** (scenario.cnr_db / 10.0) / P
        for sa in sin_angles:
            f = 0.5 * scenario.clutter_beta * sa
            a = np.exp(1j * np.pi * np.arange(J) * sa)
            ha = filter_response(params, bin_index, f)
            add_rank1(a, ha, np.exp(2j * np.pi * f), patch_power)

    # -- jammers (spatially coherent, pulse-white) -------------------------
    for jam in scenario.jammers:
        a = spatial_steering(jam.angle, J).astype(np.complex128)
        add_white_temporal(np.outer(a, a.conj()), 10.0 ** (jam.jnr_db / 10.0))

    # -- thermal noise -------------------------------------------------------
    add_white_temporal(np.eye(J, dtype=np.complex128), 1.0)
    return R


def optimal_weights(R: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Clairvoyant MVDR weights ``R^-1 v / (v^H R^-1 v)`` (no loading)."""
    import scipy.linalg as sla  # only solves load scipy

    if R.shape[0] != v.shape[0]:
        raise ConfigurationError("steering/covariance dimension mismatch")
    sol = sla.solve(R, v, assume_a="pos")
    return sol / np.vdot(v, sol)


def output_sinr(w: np.ndarray, R: np.ndarray, v: np.ndarray, signal_power: float = 1.0) -> float:
    """Output SINR of weights ``w`` against interference ``R`` for a
    target along ``v`` with element-level power ``signal_power``."""
    gain = abs(np.vdot(w, v)) ** 2
    denom = float(np.real(np.vdot(w, R @ w)))
    return signal_power * gain / max(denom, 1e-300)


def sinr_loss_curve(
    params: STAPParams,
    scenario: Scenario,
    beam: int = 0,
) -> np.ndarray:
    """SINR loss (linear, <= 1) per Doppler bin for one beam.

    Loss = optimal SINR in the interference environment over the SINR of
    the same space-time aperture in noise alone.  Easy bins use the
    J-DoF aperture, hard bins the 2J-DoF staggered aperture — exactly
    the pipeline's processing.  The curve dips where clutter Doppler
    aligns with the beam (the mainlobe-clutter notch).
    """
    if not (0 <= beam < params.n_beams):
        raise ConfigurationError(f"beam {beam} outside [0, {params.n_beams})")
    noise_only = Scenario(
        targets=(), jammers=(), cnr_db=float("-inf"),
        n_clutter_patches=scenario.n_clutter_patches, seed=scenario.seed,
    )
    hard_set = set(params.hard_bins)
    out = np.empty(params.n_doppler_bins)
    v_easy = steering_matrix_easy(params)[:, beam].astype(np.complex128)
    for b in range(params.n_doppler_bins):
        hard = b in hard_set
        v = (
            steering_matrix_hard(params, b)[:, beam].astype(np.complex128)
            if hard
            else v_easy
        )
        R = clairvoyant_covariance(params, scenario, b, hard)
        Rn = clairvoyant_covariance(params, noise_only, b, hard)
        w = optimal_weights(R, v)
        wn = optimal_weights(Rn, v)
        out[b] = output_sinr(w, R, v) / max(output_sinr(wn, Rn, v), 1e-300)
    return out
