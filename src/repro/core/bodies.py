"""Task bodies, expressed as receive/compute/send stages.

One :class:`~repro.core.stages.TaskStages` subclass per
:class:`~repro.core.task.TaskKind`; each implements the canonical
per-CPI cycle the paper describes — **receive (or read) / compute /
send** — with credit-window flow control on the send side and
acknowledgements on the receive side.  The stage structure lets the same
body run single-threaded (this paper's model) or with overlapped phase
threads (the IPPS'99 SMP design) — see :mod:`repro.core.stages`.
Every task sends through one loop (:func:`_send`) and receives through
one loop (:func:`_recv`), over the node's messages in the plan's one
list per inter-task edge (:class:`~repro.core.plan.Route`).

Compute mode and timing mode share every line of control flow: the only
differences are whether payloads carry numpy arrays or
:class:`~repro.mpi.datatypes.Phantom` placeholders, and whether the
numerics actually run.  Simulated time is charged identically (from the
cost models) in both, so performance results agree by construction.
The numerics, and numpy with them, are imported only by compute-mode
branches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.context import TaskContext, data_tag
from repro.core.stages import TaskStages, run_stages
from repro.core.task import TaskKind
from repro.errors import PipelineError
from repro.mpi.request import Request
from repro.pfs.base import OpenMode
from repro.strategies.readers import DROPPED, SlabReader  # noqa: F401  (DROPPED re-exported)
from repro.trace.record import Phase

if TYPE_CHECKING:
    import numpy as np

__all__ = ["body_for", "DROPPED"]


def body_for(kind: TaskKind, ctx: TaskContext):
    """The process generator implementing ``kind`` on ``ctx``'s node."""
    table = {
        TaskKind.PARALLEL_READ: lambda: ReaderStages(ctx),
        TaskKind.DOPPLER: lambda: DopplerStages(ctx, embedded=False),
        TaskKind.DOPPLER_EMBEDDED_IO: lambda: DopplerStages(ctx, embedded=True),
        TaskKind.EASY_WEIGHT: lambda: WeightStages(ctx, easy=True),
        TaskKind.HARD_WEIGHT: lambda: WeightStages(ctx, easy=False),
        TaskKind.EASY_BEAMFORM: lambda: BeamformStages(ctx, easy=True),
        TaskKind.HARD_BEAMFORM: lambda: BeamformStages(ctx, easy=False),
        TaskKind.PULSE_COMPRESSION: lambda: PulseStages(ctx),
        TaskKind.CFAR: lambda: CfarStages(ctx),
        TaskKind.PULSE_CFAR_COMBINED: lambda: PulseCfarStages(ctx),
    }
    try:
        stages = table[kind]()
    except KeyError:  # pragma: no cover - exhaustive by construction
        raise PipelineError(f"no body for task kind {kind}")
    return run_stages(stages)


# ---------------------------------------------------------------------------
# shared I/O helper: the strategy's slab reader (see repro.strategies)


def _make_reader(ctx: TaskContext, rlo: int, rhi: int):
    """The slab reader the run's I/O strategy prescribes.

    Hand-built specs whose names are not in the strategy registry get
    the default :class:`SlabReader` (async 1-deep prefetch on PFS,
    blocking reads on PIOFS) — the pre-registry behaviour, bit-identically.
    """
    if ctx.strategy is not None:
        return ctx.strategy.make_reader(ctx, rlo, rhi)
    return SlabReader(ctx, rlo, rhi)


def _empty(shape, dtype):
    """An uninitialised compute-mode receive buffer."""
    import numpy as np

    return np.empty(shape, dtype=dtype)


def _send(ctx: TaskContext, k: int, cpi: int, outputs):
    """Generator: send the node's out-messages for CPI ``cpi``.

    Waits out the credit window first, then sends each message the
    ``take`` slice of ``outputs[consumer task]`` (None in timing mode)
    and records CPI ``k``'s SEND phase.
    """
    yield from ctx.await_credit(cpi)
    t0 = ctx.now
    tag = data_tag(cpi)
    requests: List[Request] = []
    for peer, rank, m in ctx.out_messages:
        out = outputs[peer]
        sub = out[m.take] if out is not None else None
        requests.append(ctx.rc.isend(ctx.payload(sub, m.nbytes), rank, tag))
    if requests:
        yield from Request.wait_all(ctx.kernel, requests)
    ctx.record(k, Phase.SEND, t0)


def _recv(ctx: TaskContext, k: int, inputs):
    """Generator: receive the node's in-messages for CPI ``k``, in plan
    order, each stored at its ``put`` index of ``inputs[producer task]``
    (None in timing mode) and acknowledged to its producer."""
    tag = data_tag(k)
    for peer, rank, m in ctx.in_messages:
        arr = yield from ctx.rc.recv(rank, tag)
        buf = inputs[peer]
        if buf is not None:
            buf[m.put] = arr
        ctx.send_ack(rank, k)


class _Forwarding(TaskStages):
    """A task whose outputs for CPI ``k`` go downstream as CPI ``k``."""

    def send(self, k: int, outputs):
        return _send(self.ctx, k, k, outputs)


# ---------------------------------------------------------------------------
# task 0': the separate parallel-read task (Figure 4)


class ReaderStages(_Forwarding):
    """Read the CPI slab from the files, forward it to the Doppler task."""

    def setup(self) -> bool:
        ctx = self.ctx
        self.rlo, self.rhi = ctx.plan.ranges_read.bounds(ctx.local)
        if self.rhi <= self.rlo:
            return False
        self.reader = _make_reader(ctx, self.rlo, self.rhi)
        return True

    def recv_prologue(self):
        self.reader.prefetch(0)
        return
        yield

    def recv(self, k: int):
        # Gate on the CPI's arrival (no-op without an arrival process).
        # Prefetch is deliberately not gated: files exist up front; the
        # arrival process models when the *consumer* may start reading.
        yield from self.ctx.await_arrival(k)
        raw = yield from self.reader.read(k)
        self.reader.prefetch(k + 1)
        return raw

    def teardown(self) -> None:
        self.reader.close()

    def compute(self, k: int, raw):
        # The read task performs no computation: it only distributes.
        slab = self.reader.slab_array(raw) if self.ctx.cfg.compute else None
        return {"doppler": slab}
        yield  # pragma: no cover - generator marker


# ---------------------------------------------------------------------------
# task 0: Doppler filter processing (embedded I/O or fed by the read task)


class DopplerStages(_Forwarding):
    """Staggered Doppler filter bank over this node's range slab."""

    def __init__(self, ctx: TaskContext, embedded: bool) -> None:
        super().__init__(ctx)
        self.embedded = embedded

    def setup(self) -> bool:
        ctx, p = self.ctx, self.ctx.params
        self.rlo, self.rhi = ctx.plan.ranges_doppler.bounds(ctx.local)
        if self.rhi <= self.rlo:
            return False
        share = (self.rhi - self.rlo) / p.n_ranges
        self.t_compute = ctx.model_time(ctx.costs.doppler_flops(), share)
        self.reader = _make_reader(ctx, self.rlo, self.rhi) if self.embedded else None
        return True

    def recv_prologue(self):
        if self.embedded:
            self.reader.prefetch(0)
        return
        yield

    def recv(self, k: int):
        ctx, p = self.ctx, self.ctx.params
        if self.embedded:
            yield from ctx.await_arrival(k)
            raw = yield from self.reader.read(k)
            self.reader.prefetch(k + 1)
            return self.reader.slab_array(raw) if ctx.cfg.compute else None
        slab = (
            _empty((p.n_channels, p.n_pulses, self.rhi - self.rlo), dtype=p.dtype)
            if ctx.cfg.compute
            else None
        )
        yield from _recv(ctx, k, {"read": slab})
        return slab

    def teardown(self) -> None:
        if self.reader is not None:
            self.reader.close()

    def compute(self, k: int, slab):
        ctx = self.ctx
        easy = hard = None
        if ctx.cfg.compute:
            from repro.stap.doppler import doppler_filter_arrays

            easy, hard = doppler_filter_arrays(slab, ctx.params)
        yield from ctx.compute_for(self.t_compute)
        return {"easy_bf": easy, "hard_bf": hard, "easy_weight": easy, "hard_weight": hard}


# ---------------------------------------------------------------------------
# tasks 1 and 2: adaptive weight computation (temporal dependency)


class WeightStages(TaskStages):
    """MVDR weights for this node's bin rows, shipped for the NEXT CPI."""

    sends_last_cpi = False  # the final CPI's weights have no consumer

    def __init__(self, ctx: TaskContext, easy: bool) -> None:
        super().__init__(ctx)
        self.easy = easy

    def setup(self) -> bool:
        ctx, plan, p = self.ctx, self.ctx.plan, self.ctx.params
        self.blo, self.bhi = plan.partition(ctx.name).bounds(ctx.local)
        self.nrows = self.bhi - self.blo
        if self.nrows <= 0:
            return False
        labels = plan.easy_labels if self.easy else plan.hard_labels
        self.my_bins = [labels[r] for r in range(self.blo, self.bhi)]
        self.dof = p.easy_dof if self.easy else p.hard_dof
        group_total = p.n_easy_bins if self.easy else p.n_hard_bins
        flops = (
            ctx.costs.easy_weight_flops() if self.easy else ctx.costs.hard_weight_flops()
        )
        self.t_compute = ctx.model_time(flops, self.nrows / group_total)
        self.bf_task = "easy_bf" if self.easy else "hard_bf"
        self.n_train = len(plan.train_gates)
        if ctx.cfg.compute:
            from repro.stap.weights import CovarianceTracker, steering_matrix_easy

            self._v_easy = steering_matrix_easy(p)
            self._tracker = (
                CovarianceTracker(p.covariance_memory)
                if p.covariance_memory > 0.0
                else None
            )
        return True

    def _solve(self, X: np.ndarray) -> np.ndarray:
        from repro.stap.weights import (
            mvdr_from_covariance,
            sample_covariance,
            steering_matrix_hard,
        )

        p = self.ctx.params
        out = _empty((self.nrows, self.dof, p.n_beams), dtype="complex64")
        for r in range(self.nrows):
            v = (
                self._v_easy
                if self.easy
                else steering_matrix_hard(p, self.my_bins[r])
            )
            r_hat = sample_covariance(X[r])
            if self._tracker is not None:
                r_hat = self._tracker.smooth(self.my_bins[r], r_hat)
            out[r] = mvdr_from_covariance(r_hat, v, p.diagonal_load)
        return out

    def send_prologue(self):
        """Bootstrap: quiescent weights for CPI 0 (no training data yet)."""
        ctx = self.ctx
        w0 = None
        if ctx.cfg.compute:
            from repro.stap.weights import initial_weights

            w0 = initial_weights(ctx.params, hard=not self.easy, bins=self.my_bins)
        yield from _send(ctx, -1, 0, {self.bf_task: w0})

    def recv(self, k: int):
        ctx = self.ctx
        X = (
            _empty((self.nrows, self.dof, self.n_train), dtype=ctx.params.dtype)
            if ctx.cfg.compute
            else None
        )
        yield from _recv(ctx, k, {"doppler": X})
        return X

    def compute(self, k: int, X):
        ctx = self.ctx
        weights = self._solve(X) if ctx.cfg.compute else None
        yield from ctx.compute_for(self.t_compute)
        return {self.bf_task: weights}

    def send(self, k: int, outputs):
        """Ship weights trained on CPI k for use at CPI k+1."""
        return _send(self.ctx, k, k + 1, outputs)


# ---------------------------------------------------------------------------
# tasks 3 and 4: beamforming


class BeamformStages(_Forwarding):
    """Apply this node's bin rows' weights to the current CPI's data."""

    def __init__(self, ctx: TaskContext, easy: bool) -> None:
        super().__init__(ctx)
        self.easy = easy

    def setup(self) -> bool:
        ctx, p = self.ctx, self.ctx.params
        self.blo, self.bhi = ctx.plan.partition(ctx.name).bounds(ctx.local)
        self.nrows = self.bhi - self.blo
        if self.nrows <= 0:
            return False
        self.dof = p.easy_dof if self.easy else p.hard_dof
        group_total = p.n_easy_bins if self.easy else p.n_hard_bins
        flops = (
            ctx.costs.easy_beamform_flops()
            if self.easy
            else ctx.costs.hard_beamform_flops()
        )
        self.t_compute = ctx.model_time(flops, self.nrows / group_total)
        self.w_task = "easy_weight" if self.easy else "hard_weight"
        return True

    def recv(self, k: int):
        ctx, p = self.ctx, self.ctx.params
        W = X = None
        if ctx.cfg.compute:
            W = _empty((self.nrows, self.dof, p.n_beams), dtype="complex64")
            X = _empty((self.nrows, self.dof, p.n_ranges), dtype=p.dtype)
        yield from _recv(ctx, k, {self.w_task: W, "doppler": X})
        return W, X

    def compute(self, k: int, inputs):
        ctx = self.ctx
        W, X = inputs
        Y = None
        if ctx.cfg.compute:
            import numpy as np

            Y = np.einsum("bjk,bjr->bkr", W.conj(), X).astype(np.complex64)
        yield from ctx.compute_for(self.t_compute)
        return {ctx.plan.pc_task: Y}


# ---------------------------------------------------------------------------
# shared by the bin-partitioned tail tasks


class _ReportWriterMixin(TaskStages):
    """CFAR detection and optional report write-back for sink tasks."""

    def _setup_report_writer(self) -> None:
        ctx = self.ctx
        self._report_handle = None
        self._report_bytes = ctx.costs.detections_bytes()
        self._n_dets = 0
        if not ctx.cfg.write_reports:
            return
        fs = ctx.fileset.fs
        stem = f"{ctx.tenant}_" if ctx.tenant else ""
        path = f"reports_{stem}{ctx.name}_{ctx.local}.dat"
        fs.create(path, exist_ok=True)
        node_id = ctx.rc.comm.node_of(ctx.rc.rank)
        self._report_handle = fs.open(path, node_id, OpenMode.M_ASYNC)

    def teardown(self) -> None:
        if self._report_handle is not None:
            self._report_handle.close()

    def _write_reports(self, k: int, n_detections: int):
        """Generator: append CPI ``k``'s report block to the output file.

        Timing mode writes a phantom block of the nominal report size;
        compute mode writes that many bytes of real (zero) payload —
        content is irrelevant to the I/O study, size is not.
        """
        if self._report_handle is None:
            return
        ctx = self.ctx
        nbytes = max(self._report_bytes, 32 * max(n_detections, 1))
        payload = ctx.payload(b"\0" * nbytes, nbytes, kind="reports")
        yield from ctx.fileset.fs.write(
            self._report_handle, k * nbytes, payload
        )

    def _run_cfar(self, data: np.ndarray, k: int) -> None:
        """Detect over bins ``[glo, ghi)`` (compute mode only): deposit
        the detections and record their count, which sizes CPI ``k``'s
        report."""
        from repro.stap.cfar import ca_cfar

        p = self.ctx.params
        dets = ca_cfar(
            data,
            bins=list(range(self.glo, self.ghi)),
            window=p.cfar_window,
            guard=p.cfar_guard,
            pfa=p.pfa,
            cpi_index=k,
            method=p.cfar_method,
        )
        self.ctx.results.setdefault("detections", []).extend(dets)
        self._n_dets = len(dets)

    def send(self, k: int, outputs):
        """Reports go to the display (negligible) and — optionally — to
        the parallel file system (`write_reports`)."""
        if self._report_handle is None:
            return
        ctx = self.ctx
        t0 = ctx.now
        yield from self._write_reports(k, self._n_dets)
        ctx.record(k, Phase.SEND, t0)


class _BinRowsMixin(TaskStages):
    """Receive shared by pulse compression / combined: the beamforming
    rows of this node's global bins, from both streams."""

    def _setup_bin_rows(self) -> bool:
        ctx = self.ctx
        self.glo, self.ghi = ctx.plan.bins_pc.bounds(ctx.local)
        if self.ghi <= self.glo:
            return False
        self.share = (self.ghi - self.glo) / ctx.params.n_doppler_bins
        return True

    def recv(self, k: int):
        ctx, p = self.ctx, self.ctx.params
        buf = (
            _empty((self.ghi - self.glo, p.n_beams, p.n_ranges), dtype=p.dtype)
            if ctx.cfg.compute
            else None
        )
        yield from _recv(ctx, k, {"easy_bf": buf, "hard_bf": buf})
        return buf


# ---------------------------------------------------------------------------
# task 5: pulse compression


class PulseStages(_BinRowsMixin, _Forwarding):
    """Overlap-save matched filtering of this node's global bins."""

    def setup(self) -> bool:
        if not self._setup_bin_rows():
            return False
        ctx = self.ctx
        self.t_compute = ctx.model_time(ctx.costs.pulse_compression_flops(), self.share)
        return True

    def compute(self, k: int, buf):
        ctx = self.ctx
        Y = None
        if ctx.cfg.compute:
            from repro.stap.pulse import pulse_compress

            Y = pulse_compress(buf, ctx.params.pulse_len)
        yield from ctx.compute_for(self.t_compute)
        return {"cfar": Y}


# ---------------------------------------------------------------------------
# task 6: CFAR detection (sink)


class CfarStages(_ReportWriterMixin):
    """CA-CFAR over this node's global bins; produces detection reports."""

    def setup(self) -> bool:
        ctx, p = self.ctx, self.ctx.params
        self.glo, self.ghi = ctx.plan.bins_cfar.bounds(ctx.local)
        if self.ghi <= self.glo:
            return False
        share = (self.ghi - self.glo) / p.n_doppler_bins
        self.t_compute = ctx.model_time(ctx.costs.cfar_flops(), share)
        self._setup_report_writer()
        return True

    def recv(self, k: int):
        ctx, p = self.ctx, self.ctx.params
        buf = (
            _empty((self.ghi - self.glo, p.n_beams, p.n_ranges), dtype=p.dtype)
            if ctx.cfg.compute
            else None
        )
        yield from _recv(ctx, k, {"pulse_compr": buf})
        return buf

    def compute(self, k: int, buf):
        ctx = self.ctx
        if ctx.cfg.compute:
            self._run_cfar(buf, k)
        yield from ctx.compute_for(self.t_compute)
        ctx.record(k, Phase.DONE, ctx.now)
        return None


# ---------------------------------------------------------------------------
# the combined task of §6: pulse compression + CFAR on P5 + P6 nodes


class PulseCfarStages(_BinRowsMixin, _ReportWriterMixin):
    """Pulse compression and CFAR back-to-back, no intermediate transfer."""

    def setup(self) -> bool:
        if not self._setup_bin_rows():
            return False
        ctx = self.ctx
        self.t_compute = ctx.model_time(
            ctx.costs.pulse_compression_flops() + ctx.costs.cfar_flops(), self.share
        )
        self._setup_report_writer()
        return True

    def compute(self, k: int, buf):
        ctx = self.ctx
        if ctx.cfg.compute:
            from repro.stap.pulse import pulse_compress

            compressed = pulse_compress(buf, ctx.params.pulse_len)
            self._run_cfar(compressed, k)
        yield from ctx.compute_for(self.t_compute)
        ctx.record(k, Phase.DONE, ctx.now)
        return None
