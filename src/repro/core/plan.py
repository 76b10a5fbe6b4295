"""The execution plan: who owns what, who talks to whom.

A :class:`PipelinePlan` binds a :class:`~repro.core.pipeline.PipelineSpec`
to concrete partitions:

* the read and Doppler tasks partition **range gates**;
* the weight and beamforming tasks partition **rows** of the easy/hard
  Doppler streams (rows carry sorted global bin labels);
* pulse compression, CFAR, and the combined task partition **global
  Doppler bins**.

Every inter-task redistribution is one :class:`Route`: the list of its
:class:`Message` s, derived here once from pure partition arithmetic.
Senders, receivers, credit windows and the validator all read that one
list, so the compute-mode and timing-mode executors follow exactly the
same communication pattern, and no consumer can expect a message that
no producer sends.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.errors import PipelineError
from repro.core.partition import BlockPartition, label_block_rows
from repro.core.pipeline import PipelineSpec
from repro.core.task import TaskInstance
from repro.stap.params import STAPParams, training_gate_indices

__all__ = ["PipelinePlan", "Route", "Message", "Link"]

#: A numpy index kept as plain slices and lists, so that timing mode,
#: which moves only byte counts, never needs numpy.
Index = Union[slice, List[int], Tuple[Union[slice, List[int]], ...]]

_ALL = slice(None)


def _gates(lo: int, hi: int) -> Index:
    """Range gates ``[lo, hi)`` of a (channel|dof, pulse|row, gate) array."""
    return (_ALL, _ALL, slice(lo, hi))


class Message(NamedTuple):
    """One inter-task message, sent once per CPI.

    Producer node ``src`` sends the ``take`` slice of its output to
    consumer node ``dst``, which stores it at ``put`` in its input
    buffer; both nodes are task-local indices.
    """

    src: int
    dst: int
    take: Index
    put: Index
    nbytes: int


class Route(NamedTuple):
    """One inter-task edge: all messages from task ``src`` to task
    ``dst``, ordered by (producer, consumer)."""

    src: str
    dst: str
    messages: Tuple[Message, ...]


class Link(NamedTuple):
    """One of a node's messages, seen from that node: ``peer`` is the
    task at the other end and ``rank`` its node's global rank."""

    peer: str
    rank: int
    message: Message


#: Task name -> the plan attribute holding its partition.
_PARTITION = {
    "read": "ranges_read",
    "doppler": "ranges_doppler",
    "easy_weight": "rows_easy_w",
    "hard_weight": "rows_hard_w",
    "easy_bf": "rows_easy_bf",
    "hard_bf": "rows_hard_bf",
    "pulse_compr": "bins_pc",
    "pc_cfar": "bins_pc",
    "cfar": "bins_cfar",
}


def _overlaps(
    src: BlockPartition, dst: BlockPartition, unit_bytes: int, index=slice
) -> Tuple[Message, ...]:
    """Redistribute one unit axis from ``src``'s blocks to ``dst``'s:
    each producer sends each consumer their overlap, ``index``-ed in
    both nodes' local coordinates."""
    out = []
    for i in range(src.parts):
        ilo = src.bounds(i)[0]
        for j in src.peers_overlapping(i, dst):
            lo, hi = src.overlap(i, dst, j)
            jlo = dst.bounds(j)[0]
            out.append(
                Message(
                    i, j, index(lo - ilo, hi - ilo), index(lo - jlo, hi - jlo),
                    (hi - lo) * unit_bytes,
                )
            )
    return tuple(out)


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

    def partition(self, task: str) -> BlockPartition:
        """The block partition of ``task``'s work over its nodes."""
        return getattr(self, _PARTITION[task])

    # -- training-gate routing ------------------------------------------------
    def train_gate_cols(self, rlo: int, rhi: int) -> List[int]:
        """Which training-gate *columns* (indices into the gate list)
        fall inside range slab ``[rlo, rhi)``; the gates are sorted."""
        gates = self.train_gates
        return list(range(bisect_left(gates, rlo), bisect_left(gates, rhi)))

    # -- routing ------------------------------------------------------------------
    @cached_property
    def routes(self) -> Tuple[Route, ...]:
        """One :class:`Route` per inter-task edge, built on first use.

        The list order is the order nodes process their edges: a node
        sends its out-routes and receives its in-routes in list order,
        one message per peer in ascending peer order.  So Doppler sends
        easy beamforming, hard beamforming, easy weights, then hard
        weights; beamforming receives its weights before its data; and
        pulse compression receives the easy stream before the hard one.
        """
        p = self.params
        routes = []
        if self.ranges_read is not None:
            row = p.n_channels * p.n_pulses * self.itemsize
            routes.append(
                Route("read", "doppler", _overlaps(
                    self.ranges_read, self.ranges_doppler, row, _gates))
            )
        streams = (
            ("easy", self.rows_easy_w, self.rows_easy_bf, p.easy_dof, self.easy_labels),
            ("hard", self.rows_hard_w, self.rows_hard_bf, p.hard_dof, self.hard_labels),
        )
        for s, rows_w, rows_bf, dof, _ in streams:
            unit = dof * p.n_beams * self.itemsize
            routes.append(
                Route(f"{s}_weight", f"{s}_bf", _overlaps(rows_w, rows_bf, unit))
            )
        for s, _, rows_bf, dof, _ in streams:
            routes.append(Route("doppler", f"{s}_bf", self._doppler_to_bf(rows_bf, dof)))
        for s, rows_w, _, dof, _ in streams:
            routes.append(
                Route("doppler", f"{s}_weight", self._doppler_to_weights(rows_w, dof))
            )
        for s, _, rows_bf, _, labels in streams:
            routes.append(Route(f"{s}_bf", self.pc_task, self._bf_to_pc(rows_bf, labels)))
        if self.bins_cfar is not None:
            unit = p.n_beams * p.n_ranges * self.itemsize
            routes.append(
                Route("pulse_compr", "cfar", _overlaps(self.bins_pc, self.bins_cfar, unit))
            )
        return tuple(routes)

    def _doppler_to_bf(self, rows_bf: BlockPartition, dof: int) -> Tuple[Message, ...]:
        """Each Doppler node's range slab of each beamforming node's rows."""
        out = []
        consumers = [(c, b) for c, b in enumerate(rows_bf.all_bounds()) if b[1] > b[0]]
        for d, (rlo, rhi) in enumerate(self.ranges_doppler.all_bounds()):
            if rhi <= rlo:
                continue
            for c, (blo, bhi) in consumers:
                nbytes = (bhi - blo) * dof * (rhi - rlo) * self.itemsize
                out.append(Message(d, c, slice(blo, bhi), _gates(rlo, rhi), nbytes))
        return tuple(out)

    def _doppler_to_weights(
        self, rows_w: BlockPartition, dof: int
    ) -> Tuple[Message, ...]:
        """Each Doppler node's training-gate columns of each weight
        node's rows: weight training never needs the full range extent,
        and a Doppler node that holds no training gate sends nothing."""
        out = []
        consumers = [(c, b) for c, b in enumerate(rows_w.all_bounds()) if b[1] > b[0]]
        for d, (rlo, rhi) in enumerate(self.ranges_doppler.all_bounds()):
            cols = self.train_gate_cols(rlo, rhi)
            if not cols:
                continue
            gates = [self.train_gates[c] - rlo for c in cols]
            for c, (blo, bhi) in consumers:
                nbytes = (bhi - blo) * dof * len(cols) * self.itemsize
                out.append(
                    Message(d, c, (slice(blo, bhi), _ALL, gates), (_ALL, _ALL, cols), nbytes)
                )
        return tuple(out)

    def _bf_to_pc(
        self, rows_bf: BlockPartition, labels: Tuple[int, ...]
    ) -> Tuple[Message, ...]:
        """Beam rows each beamforming node sends each pulse-compression
        node: the rows whose global bin labels the PC node owns, placed
        at those bins."""
        p = self.params
        # The plan built these label lists sorted; skip the re-scan.
        pc = [
            (glo, *label_block_rows(labels, glo, ghi, assume_sorted=True))
            for glo, ghi in self.bins_pc.all_bounds()
        ]
        unit = p.n_beams * p.n_ranges * self.itemsize
        out = []
        for b in range(rows_bf.parts):
            mylo, myhi = rows_bf.bounds(b)
            for c, (glo, row_lo, row_hi) in enumerate(pc):
                lo, hi = max(row_lo, mylo), min(row_hi, myhi)
                if hi <= lo:
                    continue
                put = [labels[r] - glo for r in range(lo, hi)]
                out.append(Message(b, c, slice(lo - mylo, hi - mylo), put, (hi - lo) * unit))
        return tuple(out)

    def messages(self, src: str, dst: str) -> Tuple[Message, ...]:
        """The messages of the ``src -> dst`` edge."""
        for route in self.routes:
            if route.src == src and route.dst == dst:
                return route.messages
        raise PipelineError(f"pipeline {self.spec.name!r} has no {src}->{dst} edge")

    @cached_property
    def _links(self) -> Tuple[Dict, Dict]:
        """(task, local) -> its outgoing and its incoming :class:`Link` s."""
        out: Dict[Tuple[str, int], List[Link]] = {}
        into: Dict[Tuple[str, int], List[Link]] = {}
        for src, dst, messages in self.routes:
            src_ranks, dst_ranks = self.ranks(src), self.ranks(dst)
            for m in messages:
                out.setdefault((src, m.src), []).append(Link(dst, dst_ranks[m.dst], m))
                into.setdefault((dst, m.dst), []).append(Link(src, src_ranks[m.src], m))
        return out, into

    def out_messages(self, task: str, local: int) -> List[Link]:
        """Node ``task[local]``'s messages, in send order."""
        return self._links[0].get((task, local), [])

    def in_messages(self, task: str, local: int) -> List[Link]:
        """Messages addressed to node ``task[local]``, in receive order."""
        return self._links[1].get((task, local), [])
