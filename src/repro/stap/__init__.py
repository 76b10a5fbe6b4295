"""PRI-staggered post-Doppler STAP signal processing.

A complete, numerically real implementation of the radar processing
chain the paper parallelises (its Figure 2):

1. :mod:`~repro.stap.doppler` — Doppler filter processing with PRI
   stagger (two staggered sub-CPIs);
2. :mod:`~repro.stap.weights` — adaptive weight computation: *easy*
   (spatial-only, J degrees of freedom) and *hard* (space-time, 2J DoF)
   Doppler bins, MVDR weights from diagonally loaded sample covariance;
3. :mod:`~repro.stap.beamform` — apply weights to form beams;
4. :mod:`~repro.stap.pulse` — LFM pulse compression (matched filter);
5. :mod:`~repro.stap.cfar` — cell-averaging CFAR detection.

:mod:`~repro.stap.scenario` synthesises phased-array CPI data cubes
(targets + clutter ridge + jammer + noise) so the chain can be validated
end-to-end: injected targets must be detected at the right range/Doppler/
beam cells.  :mod:`~repro.stap.chain` is the serial golden reference the
parallel pipeline is checked against, and :mod:`~repro.stap.costs` holds
the per-task flop/byte models that drive the timing simulation.
"""

from importlib import import_module

from repro.stap.beamform import beamform
from repro.stap.cluster import ClusteredReport, Detection, cluster_detections
from repro.stap.costs import STAPCosts, segment_length
from repro.stap.params import CFAR_METHODS, STAPParams

#: Numerics names, each loaded from its module (and numpy with it) on
#: first use, so timing mode never imports numpy.
_LAZY = {
    name: module
    for module, names in (
        ("datacube", ("DataCube",)),
        ("scenario", ("Scenario", "Target", "Jammer", "make_cube")),
        ("doppler", ("DopplerOutput", "bin_frequency", "doppler_filter_arrays",
                     "doppler_process", "doppler_window")),
        ("weights", ("WeightSet", "compute_weights_easy", "compute_weights_hard",
                     "initial_weights", "solve_mvdr", "steering_matrix_easy",
                     "steering_matrix_hard", "training_gates")),
        ("pulse", ("lfm_replica", "pulse_compress", "pulse_compress_direct")),
        ("cfar", ("ca_cfar", "cfar_threshold_factor", "go_so_threshold_factor",
                  "os_threshold_factor")),
        ("chain", ("ChainResult", "run_cpi_stream", "stap_chain")),
        ("spectrum", ("fourier_spectrum", "mvdr_spectrum", "space_time_snapshots")),
        ("analysis", ("clairvoyant_covariance", "optimal_weights", "output_sinr",
                      "sinr_loss_curve")),
    )
    for name in names
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "STAPParams",
    "DataCube",
    "Scenario",
    "Target",
    "Jammer",
    "make_cube",
    "doppler_process",
    "doppler_filter_arrays",
    "doppler_window",
    "bin_frequency",
    "DopplerOutput",
    "compute_weights_easy",
    "compute_weights_hard",
    "solve_mvdr",
    "initial_weights",
    "training_gates",
    "steering_matrix_easy",
    "steering_matrix_hard",
    "WeightSet",
    "beamform",
    "lfm_replica",
    "pulse_compress",
    "pulse_compress_direct",
    "segment_length",
    "ca_cfar",
    "Detection",
    "CFAR_METHODS",
    "cfar_threshold_factor",
    "go_so_threshold_factor",
    "os_threshold_factor",
    "ClusteredReport",
    "cluster_detections",
    "stap_chain",
    "run_cpi_stream",
    "ChainResult",
    "STAPCosts",
    "fourier_spectrum",
    "mvdr_spectrum",
    "space_time_snapshots",
    "clairvoyant_covariance",
    "optimal_weights",
    "output_sinr",
    "sinr_loss_curve",
]
