"""The execution plan: who owns what, who talks to whom.

A :class:`PipelinePlan` binds a :class:`~repro.core.pipeline.PipelineSpec`
to concrete partitions:

* the read and Doppler tasks partition **range gates**;
* the weight and beamforming tasks partition **rows** of the easy/hard
  Doppler streams (rows carry sorted global bin labels);
* pulse compression, CFAR, and the combined task partition **global
  Doppler bins**.

All inter-task message routing (who sends which slice to whom, and how
many messages each node must expect) is derived here from pure partition
arithmetic, so the compute-mode and timing-mode executors follow exactly
the same communication pattern.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import PipelineError
from repro.core.partition import BlockPartition, label_block_rows
from repro.core.pipeline import PipelineSpec
from repro.core.task import TaskInstance
from repro.stap.params import STAPParams, training_gate_indices

__all__ = ["PipelinePlan"]


@dataclass
class PipelinePlan:
    """Partitions and routing for one pipeline on one parameter set."""

    spec: PipelineSpec
    params: STAPParams

    def __post_init__(self) -> None:
        p, spec = self.params, self.spec
        self.instances: Dict[str, TaskInstance] = spec.instances()
        inst = self.instances
        self.ranges_doppler = BlockPartition(p.n_ranges, inst["doppler"].n_nodes)
        self.ranges_read: Optional[BlockPartition] = (
            BlockPartition(p.n_ranges, inst["read"].n_nodes)
            if "read" in inst
            else None
        )
        self.rows_easy_w = BlockPartition(p.n_easy_bins, inst["easy_weight"].n_nodes)
        self.rows_hard_w = BlockPartition(p.n_hard_bins, inst["hard_weight"].n_nodes)
        self.rows_easy_bf = BlockPartition(p.n_easy_bins, inst["easy_bf"].n_nodes)
        self.rows_hard_bf = BlockPartition(p.n_hard_bins, inst["hard_bf"].n_nodes)
        self.combined = "pc_cfar" in inst
        if self.combined:
            self.bins_pc = BlockPartition(p.n_doppler_bins, inst["pc_cfar"].n_nodes)
            self.bins_cfar: Optional[BlockPartition] = None
        else:
            self.bins_pc = BlockPartition(p.n_doppler_bins, inst["pulse_compr"].n_nodes)
            self.bins_cfar = BlockPartition(p.n_doppler_bins, inst["cfar"].n_nodes)
        self.easy_labels: Tuple[int, ...] = p.easy_bins
        self.hard_labels: Tuple[int, ...] = p.hard_bins
        self.train_gates: Tuple[int, ...] = training_gate_indices(
            p.n_ranges, p.n_training
        )
        self.itemsize = p.itemsize

    # -- names of key tasks (combination-aware) ------------------------------
    @property
    def pc_task(self) -> str:
        """Name of the task performing pulse compression."""
        return "pc_cfar" if self.combined else "pulse_compr"

    @property
    def sink_task(self) -> str:
        """Name of the final (detection-producing) task."""
        return "pc_cfar" if self.combined else "cfar"

    @property
    def first_task(self) -> str:
        """Name of the pipeline's entry task."""
        return "read" if "read" in self.instances else "doppler"

    def ranks(self, task: str) -> Tuple[int, ...]:
        """Global ranks of a task's nodes."""
        return self.instances[task].ranks

    # -- training-gate routing ------------------------------------------------
    def train_gate_cols(self, rlo: int, rhi: int) -> List[int]:
        """Which training-gate *columns* (indices into the gate list)
        fall inside range slab ``[rlo, rhi)``; the gates are sorted."""
        gates = self.train_gates
        return list(range(bisect_left(gates, rlo), bisect_left(gates, rhi)))

    # -- routing tables ----------------------------------------------------------
    # Each entry: (consumer_local_index, slice description, nbytes).

    def doppler_to_bf(
        self, dop_local: int, easy: bool
    ) -> List[Tuple[int, Tuple[int, int], int]]:
        """What Doppler node ``dop_local`` sends each easy/hard BF node.

        Returns (bf_local, (row_lo, row_hi), nbytes); the range extent is
        the Doppler node's own slab, the rows are the consumer's.
        """
        p = self.params
        rlo, rhi = self.ranges_doppler.bounds(dop_local)
        rows_bf = self.rows_easy_bf if easy else self.rows_hard_bf
        dof = p.easy_dof if easy else p.hard_dof
        out = []
        for c in range(rows_bf.parts):
            blo, bhi = rows_bf.bounds(c)
            if bhi <= blo:
                continue
            nbytes = (bhi - blo) * dof * (rhi - rlo) * self.itemsize
            out.append((c, (blo, bhi), nbytes))
        return out

    def doppler_to_weights(
        self, dop_local: int, easy: bool
    ) -> List[Tuple[int, Tuple[int, int], List[int], int]]:
        """What Doppler node ``dop_local`` sends each weight node.

        Only training-gate columns travel (weight training never needs
        the full range extent).  Returns
        (w_local, (row_lo, row_hi), gate_cols, nbytes); empty-gate
        entries are skipped — the consumer knows which producers to
        expect via :meth:`weight_expected_producers`.
        """
        p = self.params
        rlo, rhi = self.ranges_doppler.bounds(dop_local)
        cols = self.train_gate_cols(rlo, rhi)
        rows_w = self.rows_easy_w if easy else self.rows_hard_w
        dof = p.easy_dof if easy else p.hard_dof
        out = []
        if len(cols) == 0:
            return out
        for c in range(rows_w.parts):
            blo, bhi = rows_w.bounds(c)
            if bhi <= blo:
                continue
            nbytes = (bhi - blo) * dof * len(cols) * self.itemsize
            out.append((c, (blo, bhi), cols, nbytes))
        return out

    def weight_expected_producers(self) -> List[int]:
        """Doppler-local indices that hold at least one training gate."""
        out = []
        for i in range(self.ranges_doppler.parts):
            rlo, rhi = self.ranges_doppler.bounds(i)
            if len(self.train_gate_cols(rlo, rhi)) > 0:
                out.append(i)
        return out

    def weights_to_bf(
        self, w_local: int, easy: bool
    ) -> List[Tuple[int, Tuple[int, int], int]]:
        """Weight rows each weight node sends each BF node (overlaps)."""
        p = self.params
        rows_w = self.rows_easy_w if easy else self.rows_hard_w
        rows_bf = self.rows_easy_bf if easy else self.rows_hard_bf
        dof = p.easy_dof if easy else p.hard_dof
        out = []
        for c in rows_w.peers_overlapping(w_local, rows_bf):
            lo, hi = rows_w.overlap(w_local, rows_bf, c)
            if hi <= lo:
                continue
            nbytes = (hi - lo) * dof * p.n_beams * self.itemsize
            out.append((c, (lo, hi), nbytes))
        return out

    def bf_expected_weight_producers(self, bf_local: int, easy: bool) -> List[int]:
        """Weight-task locals a BF node receives weights from."""
        rows_w = self.rows_easy_w if easy else self.rows_hard_w
        rows_bf = self.rows_easy_bf if easy else self.rows_hard_bf
        return [
            j
            for j in rows_bf.peers_overlapping(bf_local, rows_w)
            if rows_bf.overlap(bf_local, rows_w, j)[1]
            > rows_bf.overlap(bf_local, rows_w, j)[0]
        ]

    def bf_to_pc(
        self, bf_local: int, easy: bool
    ) -> List[Tuple[int, Tuple[int, int], int]]:
        """Beam rows each BF node sends each pulse-compression node.

        Rows are in the easy/hard *row* space; the PC node re-labels
        them to global bins via the stream's label list.
        """
        p = self.params
        rows_bf = self.rows_easy_bf if easy else self.rows_hard_bf
        labels = self.easy_labels if easy else self.hard_labels
        mylo, myhi = rows_bf.bounds(bf_local)
        out = []
        for c in range(self.bins_pc.parts):
            glo, ghi = self.bins_pc.bounds(c)
            # The plan built these label lists sorted; skip the re-scan.
            row_lo, row_hi = label_block_rows(labels, glo, ghi, assume_sorted=True)
            lo, hi = max(row_lo, mylo), min(row_hi, myhi)
            if hi <= lo:
                continue
            nbytes = (hi - lo) * p.n_beams * p.n_ranges * self.itemsize
            out.append((c, (lo, hi), nbytes))
        return out

    def pc_expected_bf_producers(self, pc_local: int) -> List[Tuple[str, int]]:
        """(bf task name, bf local) pairs a PC node receives from."""
        out: List[Tuple[str, int]] = []
        glo, ghi = self.bins_pc.bounds(pc_local)
        for easy, task, rows_bf, labels in (
            (True, "easy_bf", self.rows_easy_bf, self.easy_labels),
            (False, "hard_bf", self.rows_hard_bf, self.hard_labels),
        ):
            row_lo, row_hi = label_block_rows(labels, glo, ghi, assume_sorted=True)
            if row_hi <= row_lo:
                continue
            for j in range(rows_bf.parts):
                blo, bhi = rows_bf.bounds(j)
                if max(blo, row_lo) < min(bhi, row_hi):
                    out.append((task, j))
        return out

    def pc_to_cfar(self, pc_local: int) -> List[Tuple[int, Tuple[int, int], int]]:
        """Global-bin rows each PC node sends each CFAR node."""
        if self.bins_cfar is None:
            raise PipelineError("combined pipeline has no pc->cfar edge")
        p = self.params
        out = []
        for c in self.bins_pc.peers_overlapping(pc_local, self.bins_cfar):
            lo, hi = self.bins_pc.overlap(pc_local, self.bins_cfar, c)
            if hi <= lo:
                continue
            nbytes = (hi - lo) * p.n_beams * p.n_ranges * self.itemsize
            out.append((c, (lo, hi), nbytes))
        return out

    def cfar_expected_pc_producers(self, cfar_local: int) -> List[int]:
        """PC locals a CFAR node receives from."""
        if self.bins_cfar is None:
            raise PipelineError("combined pipeline has no pc->cfar edge")
        return [
            j
            for j in self.bins_cfar.peers_overlapping(cfar_local, self.bins_pc)
            if self.bins_cfar.overlap(cfar_local, self.bins_pc, j)[1]
            > self.bins_cfar.overlap(cfar_local, self.bins_pc, j)[0]
        ]

    def read_to_doppler(self, read_local: int) -> List[Tuple[int, Tuple[int, int], int]]:
        """Range sub-slabs a read node sends each Doppler node."""
        if self.ranges_read is None:
            raise PipelineError("embedded pipeline has no read task")
        p = self.params
        row = p.n_channels * p.n_pulses * self.itemsize
        out = []
        for c in self.ranges_read.peers_overlapping(read_local, self.ranges_doppler):
            lo, hi = self.ranges_read.overlap(read_local, self.ranges_doppler, c)
            if hi <= lo:
                continue
            out.append((c, (lo, hi), (hi - lo) * row))
        return out

    def doppler_expected_read_producers(self, dop_local: int) -> List[int]:
        """Read locals a Doppler node receives its slab from."""
        if self.ranges_read is None:
            raise PipelineError("embedded pipeline has no read task")
        return [
            j
            for j in self.ranges_doppler.peers_overlapping(dop_local, self.ranges_read)
            if self.ranges_doppler.overlap(dop_local, self.ranges_read, j)[1]
            > self.ranges_doppler.overlap(dop_local, self.ranges_read, j)[0]
        ]
