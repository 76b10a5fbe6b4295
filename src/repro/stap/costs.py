"""Analytic work and data-volume models for every pipeline task.

Timing mode runs the pipeline without touching numpy data; each task
advances simulated time by ``node.compute_time(flops, bytes)`` using the
models here.  The counts follow standard conventions — complex MAC = 8
real flops, complex FFT of length M = ``5 M log2 M`` real flops,
complex Cholesky of a d x d matrix = ``(4/3) d^3`` — applied to the
actual kernels in :mod:`repro.stap` (same shapes, same algorithms), so
compute mode and timing mode charge identical simulated time.

All ``*_flops`` methods return work for the **whole CPI**; the executor
divides by the task's node count (the paper's :math:`W_i / P_i`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.stap.params import STAPParams

__all__ = ["STAPCosts", "segment_length"]

_CMAC = 8.0  # real flops per complex multiply-accumulate


def _fft_flops(length: int) -> float:
    """Real flops of one complex FFT of ``length`` points."""
    if length <= 1:
        return 0.0
    return 5.0 * length * math.log2(length)


def segment_length(pulse_len: int) -> int:
    """Overlap-save FFT segment length: the power of two >= 4 * pulse_len.

    A 4x ratio keeps >=75% of each segment's outputs valid while the
    FFTs stay short — the standard efficiency sweet spot for streaming
    matched filters.
    """
    if pulse_len < 1:
        raise ConfigurationError(f"pulse_len must be >= 1, got {pulse_len}")
    return int(2 ** math.ceil(math.log2(4 * pulse_len)))


@dataclass(frozen=True)
class STAPCosts:
    """Per-task cost model bound to one parameter set."""

    params: STAPParams

    # -- task work (full CPI, real flops) ---------------------------------
    def doppler_flops(self) -> float:
        """Task 0: two staggered windowed filter banks over all
        (channel, range) columns."""
        p = self.params
        n_cols = p.n_channels * p.n_ranges
        window = 2.0 * 6.0 * n_cols * (p.n_pulses - 1)  # two staggers, cmul each
        ffts = 2.0 * n_cols * _fft_flops(p.n_pulses)
        return window + ffts

    def _weight_flops(self, dof: int, n_bins: int) -> float:
        p = self.params
        L, K = p.n_training, p.n_beams
        cov = _CMAC * dof * dof * L
        chol = (4.0 / 3.0) * dof**3
        solve = _CMAC * dof * dof * K          # two triangular solves per beam
        normalise = _CMAC * dof * K
        return n_bins * (cov + chol + solve + normalise)

    def easy_weight_flops(self) -> float:
        """Task 1: MVDR over J DoF for every easy bin."""
        p = self.params
        return self._weight_flops(p.easy_dof, p.n_easy_bins)

    def hard_weight_flops(self) -> float:
        """Task 2: MVDR over 2J DoF for every hard bin."""
        p = self.params
        return self._weight_flops(p.hard_dof, p.n_hard_bins)

    def easy_beamform_flops(self) -> float:
        """Task 3: apply J-channel weights over all easy bins/ranges."""
        p = self.params
        return _CMAC * p.n_easy_bins * p.n_beams * p.easy_dof * p.n_ranges

    def hard_beamform_flops(self) -> float:
        """Task 4: apply 2J-channel weights over all hard bins/ranges."""
        p = self.params
        return _CMAC * p.n_hard_bins * p.n_beams * p.hard_dof * p.n_ranges

    def pulse_compression_flops(self) -> float:
        """Task 5: overlap-save matched filter on every (bin, beam)
        range profile (segment FFTs of :func:`segment_length` points)."""
        p = self.params
        L = segment_length(p.pulse_len)
        step = L - p.pulse_len + 1
        n_seg = math.ceil(p.n_ranges / step)
        per_profile = n_seg * (2.0 * _fft_flops(L) + _CMAC * L)
        return p.n_doppler_bins * p.n_beams * per_profile

    def cfar_flops(self) -> float:
        """Task 6: square-law power, sliding sums and compares."""
        p = self.params
        per_cell = 12.0
        return p.n_doppler_bins * p.n_beams * p.n_ranges * per_cell

    def task_flops(self, task_index: int) -> float:
        """Work of canonical task ``0..6`` (Figure 2 numbering)."""
        table = (
            self.doppler_flops,
            self.easy_weight_flops,
            self.hard_weight_flops,
            self.easy_beamform_flops,
            self.hard_beamform_flops,
            self.pulse_compression_flops,
            self.cfar_flops,
        )
        return table[task_index]()

    # -- data volumes (bytes, full CPI) ------------------------------------
    @property
    def itemsize(self) -> int:
        return self.params.itemsize

    def cube_bytes(self) -> int:
        """Input CPI cube (what the I/O reads)."""
        return self.params.cube_nbytes

    def doppler_easy_bytes(self) -> int:
        """Easy half of the Doppler output."""
        p = self.params
        return p.n_easy_bins * p.easy_dof * p.n_ranges * self.itemsize

    def doppler_hard_bytes(self) -> int:
        """Hard half of the Doppler output."""
        p = self.params
        return p.n_hard_bins * p.hard_dof * p.n_ranges * self.itemsize

    def weights_easy_bytes(self) -> int:
        p = self.params
        return p.n_easy_bins * p.easy_dof * p.n_beams * self.itemsize

    def weights_hard_bytes(self) -> int:
        p = self.params
        return p.n_hard_bins * p.hard_dof * p.n_beams * self.itemsize

    def beams_easy_bytes(self) -> int:
        p = self.params
        return p.n_easy_bins * p.n_beams * p.n_ranges * self.itemsize

    def beams_hard_bytes(self) -> int:
        p = self.params
        return p.n_hard_bins * p.n_beams * p.n_ranges * self.itemsize

    def beams_all_bytes(self) -> int:
        return self.beams_easy_bytes() + self.beams_hard_bytes()

    def detections_bytes(self, n_detections: int = 16) -> int:
        """Nominal detection-report payload (tiny control traffic)."""
        return 32 * max(n_detections, 1)
