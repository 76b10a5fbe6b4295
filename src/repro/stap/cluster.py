"""CFAR detections and their clustering into object reports.

:class:`Detection` is one CFAR exceedance, the pipeline's final product
(numpy-free, so timing-mode results decode without the numerics).

A single target produces a *cluster* of CFAR exceedances — its energy
straddles neighbouring Doppler bins (filter-bank scalloping), beams
(beam-pattern overlap), and range gates (pulse sidelobes).  Operational
systems merge those cells into one report per object before tracking;
this module does the same with connected-component clustering over the
(Doppler bin, beam, range gate) lattice, Doppler wrap-around included.

``cluster_detections`` is deliberately independent of the pipeline (it
consumes plain :class:`Detection` lists), so it can be applied to the
output of the serial chain, the parallel executor, or recorded data
alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.serialize import Codec
from repro.errors import ConfigurationError

__all__ = ["Detection", "ClusteredReport", "cluster_detections"]


@dataclass(frozen=True, order=True)
class Detection(Codec):
    """One CFAR exceedance — the pipeline's final product.

    Attributes
    ----------
    doppler_bin:
        Doppler filter-bank bin of the detection.
    beam:
        Beam index.
    range_gate:
        Range gate.
    snr_db:
        Estimated SNR: cell power over local noise estimate, in dB.
    cpi_index:
        CPI the detection came from.
    """

    doppler_bin: int
    beam: int
    range_gate: int
    snr_db: float
    cpi_index: int = 0


@dataclass(frozen=True)
class ClusteredReport:
    """One object-level report merged from a cluster of detections.

    Attributes
    ----------
    doppler_bin / beam / range_gate:
        The cluster's strongest cell (the object's best estimate).
    snr_db:
        SNR of the strongest cell.
    n_cells:
        Cluster size (number of merged CFAR exceedances).
    cpi_index:
        CPI the cluster came from.
    extent:
        ``(d_bins, d_beams, d_gates)`` bounding-box spans — a sanity
        signal: point targets are compact, clutter breakthrough smears.
    """

    doppler_bin: int
    beam: int
    range_gate: int
    snr_db: float
    n_cells: int
    cpi_index: int
    extent: Tuple[int, int, int]


class _DisjointSet:
    """Union-find over dense integer ids."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def cluster_detections(
    detections: Sequence[Detection],
    n_doppler_bins: int,
    max_gap: Tuple[int, int, int] = (1, 1, 2),
) -> List[ClusteredReport]:
    """Merge detections into object reports via connected components.

    Two detections of the same CPI join a cluster when their distance is
    within ``max_gap`` along every axis simultaneously — Doppler
    distance measured with wrap-around (bin ``N-1`` neighbours bin 0).

    Parameters
    ----------
    detections:
        CFAR output (any order, any mix of CPIs).
    n_doppler_bins:
        Filter-bank size, for Doppler wrap-around.
    max_gap:
        Maximum (Doppler, beam, range) separation that still merges.

    Returns
    -------
    list[ClusteredReport]
        One report per cluster, sorted like detections.
    """
    if n_doppler_bins < 1:
        raise ConfigurationError("n_doppler_bins must be >= 1")
    if any(g < 0 for g in max_gap):
        raise ConfigurationError("max_gap entries must be >= 0")
    dets = list(detections)
    if not dets:
        return []

    dsu = _DisjointSet(len(dets))
    # Bucket by (cpi, coarse range cell) so the pairwise pass is local.
    gd, gb, gr = max_gap
    bucket: Dict[Tuple[int, int], List[int]] = {}
    stride = max(1, gr + 1)
    for i, d in enumerate(dets):
        bucket.setdefault((d.cpi_index, d.range_gate // stride), []).append(i)

    def neighbours(i: int):
        d = dets[i]
        base = d.range_gate // stride
        for cell in range(base - 1, base + 2):
            yield from bucket.get((d.cpi_index, cell), [])

    def close(a: Detection, b: Detection) -> bool:
        dd = abs(a.doppler_bin - b.doppler_bin)
        dd = min(dd, n_doppler_bins - dd)  # Doppler wraps
        return (
            dd <= gd
            and abs(a.beam - b.beam) <= gb
            and abs(a.range_gate - b.range_gate) <= gr
        )

    for i in range(len(dets)):
        for j in neighbours(i):
            if j > i and close(dets[i], dets[j]):
                dsu.union(i, j)

    groups: Dict[int, List[Detection]] = {}
    for i, d in enumerate(dets):
        groups.setdefault(dsu.find(i), []).append(d)

    out: List[ClusteredReport] = []
    for members in groups.values():
        best = max(members, key=lambda d: d.snr_db)
        bins = [m.doppler_bin for m in members]
        beams = [m.beam for m in members]
        gates = [m.range_gate for m in members]
        # Doppler extent with wrap: smallest arc covering all bins.
        span = _wrapped_span(bins, n_doppler_bins)
        out.append(
            ClusteredReport(
                doppler_bin=best.doppler_bin,
                beam=best.beam,
                range_gate=best.range_gate,
                snr_db=best.snr_db,
                n_cells=len(members),
                cpi_index=best.cpi_index,
                extent=(span, max(beams) - min(beams), max(gates) - min(gates)),
            )
        )
    out.sort(key=lambda r: (r.cpi_index, r.doppler_bin, r.beam, r.range_gate))
    return out


def _wrapped_span(bins: List[int], n: int) -> int:
    """Smallest arc length (in bins) covering all of ``bins`` modulo n."""
    uniq = sorted(set(bins))
    if len(uniq) == 1:
        return 0
    gaps = [
        (uniq[(i + 1) % len(uniq)] - uniq[i]) % n for i in range(len(uniq))
    ]
    return n - max(gaps)
