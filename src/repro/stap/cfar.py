"""Cell-averaging CFAR detection (pipeline task 6).

Square-law detection along range per (Doppler bin, beam): each cell is
compared against ``alpha`` times the mean power of ``2*window`` training
cells (``window`` per side, separated from the cell under test by
``guard`` cells).  ``alpha`` is the exact CA-CFAR threshold multiplier
for exponentially distributed noise power,

.. math:: \\alpha = L\\,(P_{fa}^{-1/L} - 1), \\qquad L = 2\\,\\mathrm{window},

so the design false-alarm rate holds per cell in homogeneous noise.
Edge cells fall back to the one-sided window (with the correspondingly
recomputed ``alpha``).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.stap.cluster import Detection
from repro.stap.params import CFAR_METHODS

__all__ = ["Detection", "CFAR_METHODS", "cfar_threshold_factor", "go_so_false_alarm", "go_so_threshold_factor", "os_false_alarm", "os_threshold_factor", "ca_cfar"]


def cfar_threshold_factor(n_train: int, pfa: float) -> float:
    """Exact CA-CFAR multiplier for ``n_train`` training cells."""
    if n_train < 1:
        raise ConfigurationError(f"n_train must be >= 1, got {n_train}")
    if not (0.0 < pfa < 1.0):
        raise ConfigurationError(f"pfa must be in (0, 1), got {pfa}")
    return n_train * (pfa ** (-1.0 / n_train) - 1.0)


def _half_window_tail(t: float, n: int) -> float:
    """``sum_{k=0}^{n-1} C(n-1+k, k) (2 + t)^-(n+k)`` — the shared term
    of the exact GO/SO false-alarm expressions (Gandhi & Kassam 1988)
    for two exponential half-window sums of ``n`` cells, threshold ``t``
    per unit of the selected *sum*."""
    base = 1.0 / (2.0 + t)
    term = base**n  # k = 0: C(n-1, 0) * base^n
    total = term
    for k in range(1, n):
        term *= base * (n - 1 + k) / k  # binomial grows by (n-1+k)/k
        total += term
    return total


def go_so_false_alarm(t: float, n_half: int, greatest: bool) -> float:
    """Exact P_fa of GO/SO-CFAR with ``n_half`` cells per side.

    Square-law (exponential) noise; the detector compares the test cell
    against ``t * max(Y1, Y2)`` (GO) or ``t * min(Y1, Y2)`` (SO), where
    ``Y`` are the half-window **sums**:

    * GO: ``P_fa = 2 (1 + t)^{-n} - 2 S(t)``
    * SO: ``P_fa = 2 S(t)``

    with ``S`` the :func:`_half_window_tail` series.
    """
    if n_half < 1:
        raise ConfigurationError(f"n_half must be >= 1, got {n_half}")
    if t < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {t}")
    so = 2.0 * _half_window_tail(t, n_half)
    if not greatest:
        return min(1.0, so)
    return max(0.0, 2.0 * (1.0 + t) ** (-n_half) - so)


def go_so_threshold_factor(n_half: int, pfa: float, greatest: bool) -> float:
    """Invert :func:`go_so_false_alarm` for the per-sum threshold ``t``
    by bisection (the expression is monotone decreasing in ``t``)."""
    if not (0.0 < pfa < 1.0):
        raise ConfigurationError(f"pfa must be in (0, 1), got {pfa}")
    lo, hi = 0.0, 4.0
    while go_so_false_alarm(hi, n_half, greatest) > pfa:
        hi *= 2.0
        if hi > 1e9:  # pragma: no cover - unreachable for sane pfa
            raise ConfigurationError("threshold search diverged")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if go_so_false_alarm(mid, n_half, greatest) > pfa:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def os_false_alarm(t: float, n: int, k: int) -> float:
    """Exact P_fa of OS-CFAR using the ``k``-th smallest of ``n`` cells.

    Rohling (1983), exponential noise:
    ``P_fa = prod_{i=0}^{k-1} (n - i) / (n - i + t)`` for threshold
    ``X > t * x_(k)``.
    """
    if not (1 <= k <= n):
        raise ConfigurationError(f"rank k must be in [1, n], got k={k}, n={n}")
    if t < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {t}")
    out = 1.0
    for i in range(k):
        out *= (n - i) / (n - i + t)
    return out


def os_threshold_factor(n: int, k: int, pfa: float) -> float:
    """Invert :func:`os_false_alarm` for ``t`` by bisection."""
    if not (0.0 < pfa < 1.0):
        raise ConfigurationError(f"pfa must be in (0, 1), got {pfa}")
    lo, hi = 0.0, 4.0
    while os_false_alarm(hi, n, k) > pfa:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - unreachable for sane pfa
            raise ConfigurationError("threshold search diverged")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if os_false_alarm(mid, n, k) > pfa:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: OS-CFAR rank as a fraction of the training count — the conventional
#: 3/4 quantile balances masking robustness against CFAR loss.
OS_RANK_FRACTION = 0.75


def ca_cfar(
    beams: np.ndarray,
    bins: Sequence[int],
    window: int,
    guard: int,
    pfa: float,
    cpi_index: int = 0,
    method: str = "ca",
) -> List[Detection]:
    """Run cell-averaging-family CFAR over beamformed data.

    Parameters
    ----------
    beams:
        ``(n_bins, n_beams, n_ranges)`` complex beamformer output.
    bins:
        Doppler bin index of each row (for labelling detections).
    window / guard / pfa:
        CFAR geometry and design false-alarm probability.
    method:
        ``"ca"`` — classic cell averaging over both half-windows;
        ``"goca"`` — greatest-of: thresholds on the *larger* half-window
        sum, robust against clutter edges (a power step in one half no
        longer floods the boundary with false alarms);
        ``"soca"`` — smallest-of: thresholds on the *smaller* half,
        preserving detection of closely spaced targets at the price of
        edge robustness;
        ``"os"`` — order statistic (Rohling): thresholds on the
        ``OS_RANK_FRACTION`` quantile of the training cells, immune to a
        few interfering targets contaminating the window (target
        masking).  GO/SO/OS thresholds use their exact expressions;
        cells whose window is truncated by an array edge fall back to
        one-sided cell averaging in every method.

    Returns
    -------
    list[Detection]
        Sorted by (doppler_bin, beam, range_gate).
    """
    if beams.ndim != 3:
        raise ConfigurationError("beams must be (n_bins, n_beams, n_ranges)")
    if method not in CFAR_METHODS:
        raise ConfigurationError(
            f"unknown CFAR method {method!r}; choose from {CFAR_METHODS}"
        )
    if len(bins) != beams.shape[0]:
        raise ConfigurationError(
            f"{len(bins)} bin labels for {beams.shape[0]} rows"
        )
    n_ranges = beams.shape[-1]
    if n_ranges < 2 * (window + guard) + 1:
        raise ConfigurationError(
            f"range extent {n_ranges} too small for window={window}, guard={guard}"
        )
    power = (beams.real.astype(np.float64) ** 2 + beams.imag.astype(np.float64) ** 2)

    # Sliding sums via a zero-padded cumulative sum along range.
    csum = np.concatenate(
        [np.zeros(power.shape[:-1] + (1,)), np.cumsum(power, axis=-1)], axis=-1
    )

    def window_sum(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Sum of power over gates [lo, hi) per cell (clipped)."""
        lo = np.clip(lo, 0, n_ranges)
        hi = np.clip(hi, 0, n_ranges)
        return np.take(csum, hi, axis=-1) - np.take(csum, lo, axis=-1)

    r = np.arange(n_ranges)
    lead_lo, lead_hi = r - guard - window, r - guard          # leading cells
    lag_lo, lag_hi = r + guard + 1, r + guard + 1 + window    # lagging cells
    lead_sum = window_sum(lead_lo, lead_hi)
    lag_sum = window_sum(lag_lo, lag_hi)
    lead_n = (np.clip(lead_hi, 0, n_ranges) - np.clip(lead_lo, 0, n_ranges))
    lag_n = (np.clip(lag_hi, 0, n_ranges) - np.clip(lag_lo, 0, n_ranges))
    n_train = lead_n + lag_n  # (n_ranges,) per-cell training count

    interior = (lead_n == window) & (lag_n == window)
    if method in ("ca", "os") or not interior.any():
        selected = None
    elif method == "goca":
        selected = np.maximum(lead_sum, lag_sum)
    else:  # soca
        selected = np.minimum(lead_sum, lag_sum)

    # CA statistic and per-cell threshold (edges: fewer training cells).
    ca_noise = (lead_sum + lag_sum) / np.maximum(n_train, 1)
    alpha = np.empty(n_ranges)
    for n in np.unique(n_train):
        alpha[n_train == n] = cfar_threshold_factor(int(n), pfa) if n > 0 else np.inf
    threshold = alpha[None, None, :] * ca_noise
    noise = ca_noise

    if selected is not None:
        # Interior cells use the GO/SO statistic with its exact factor;
        # truncated edge cells keep the one-sided CA fallback above.
        t_half = go_so_threshold_factor(window, pfa, greatest=(method == "goca"))
        threshold = np.where(
            interior[None, None, :], t_half * selected, threshold
        )
        noise = np.where(
            interior[None, None, :], selected / window, ca_noise
        )

    if method == "os" and interior.any():
        # Order statistic of the 2*window training cells (Rohling's
        # OS-CFAR) for interior cells; edges keep the CA fallback.
        n_tot = 2 * window
        k_rank = max(1, int(round(OS_RANK_FRACTION * n_tot)))
        t_os = os_threshold_factor(n_tot, k_rank, pfa)
        offsets = np.concatenate(
            [np.arange(-guard - window, -guard), np.arange(guard + 1, guard + 1 + window)]
        )
        r_int = np.nonzero(interior)[0]
        gather = r_int[:, None] + offsets[None, :]  # (R_int, 2w)
        # Unbias the noise estimate: E[x_(k)] = mu * sum_{i<k} 1/(n-i).
        unbias = sum(1.0 / (n_tot - i) for i in range(k_rank))
        for row in range(power.shape[0]):  # chunk by bin to bound memory
            samples = power[row][:, gather]            # (n_beams, R_int, 2w)
            xk = np.partition(samples, k_rank - 1, axis=-1)[..., k_rank - 1]
            threshold[row][:, r_int] = t_os * xk
            noise[row][:, r_int] = xk / unbias

    mask = power > threshold
    hits = np.argwhere(mask)
    out: List[Detection] = []
    for row, beam, gate in hits:
        snr = power[row, beam, gate] / max(noise[row, beam, gate], 1e-300)
        out.append(
            Detection(
                doppler_bin=int(bins[row]),
                beam=int(beam),
                range_gate=int(gate),
                snr_db=float(10.0 * np.log10(snr)),
                cpi_index=cpi_index,
            )
        )
    out.sort()
    return out
