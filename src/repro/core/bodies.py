"""Task bodies, expressed as receive/compute/send stages.

One :class:`~repro.core.stages.TaskStages` subclass per
:class:`~repro.core.task.TaskKind`; each implements the canonical
per-CPI cycle the paper describes — **receive (or read) / compute /
send** — with credit-window flow control on the send side and
acknowledgements on the receive side.  The stage structure lets the same
body run single-threaded (this paper's model) or with overlapped phase
threads (the IPPS'99 SMP design) — see :mod:`repro.core.stages`.

Compute mode and timing mode share every line of control flow: the only
differences are whether payloads carry numpy arrays or
:class:`~repro.mpi.datatypes.Phantom` placeholders, and whether the
numerics actually run.  Simulated time is charged identically (from the
cost models) in both, so performance results agree by construction.
The numerics, and numpy with them, are imported only by compute-mode
branches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

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


def _send_routed(ctx: TaskContext, k: int, requests: List[Request]):
    """Wait out a batch of routed isends, recording the SEND phase."""
    t0 = ctx.now
    if requests:
        yield from Request.wait_all(ctx.kernel, requests)
    ctx.record(k, Phase.SEND, t0)


# ---------------------------------------------------------------------------
# task 0': the separate parallel-read task (Figure 4)


class ReaderStages(TaskStages):
    """Read the CPI slab from the files, forward it to the Doppler task."""

    def setup(self) -> bool:
        ctx = self.ctx
        self.rlo, self.rhi = ctx.plan.ranges_read.bounds(ctx.local)
        if self.rhi <= self.rlo:
            return False
        self.reader = _make_reader(ctx, self.rlo, self.rhi)
        self.dop_ranks = ctx.ranks("doppler")
        self.route = ctx.plan.read_to_doppler(ctx.local)
        ctx.register_consumers("data", [self.dop_ranks[c] for c, _, _ in self.route])
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
        if self.ctx.cfg.compute:
            return self.reader.slab_array(raw)
        return None
        yield  # pragma: no cover - generator marker

    def send(self, k: int, slab):
        ctx = self.ctx
        yield from ctx.await_credit("data", k)
        reqs = []
        for c, (lo, hi), nb in self.route:
            sub = slab[:, :, lo - self.rlo : hi - self.rlo] if slab is not None else None
            reqs.append(
                ctx.rc.isend(ctx.payload(sub, nb), self.dop_ranks[c], data_tag(k))
            )
        yield from _send_routed(ctx, k, reqs)


# ---------------------------------------------------------------------------
# task 0: Doppler filter processing (embedded I/O or fed by the read task)


class DopplerStages(TaskStages):
    """Staggered Doppler filter bank over this node's range slab."""

    def __init__(self, ctx: TaskContext, embedded: bool) -> None:
        super().__init__(ctx)
        self.embedded = embedded

    def setup(self) -> bool:
        ctx, plan, p = self.ctx, self.ctx.plan, self.ctx.params
        self.rlo, self.rhi = plan.ranges_doppler.bounds(ctx.local)
        if self.rhi <= self.rlo:
            return False
        share = (self.rhi - self.rlo) / p.n_ranges
        self.t_compute = ctx.model_time(ctx.costs.doppler_flops(), share)

        self.route_ebf = plan.doppler_to_bf(ctx.local, easy=True)
        self.route_hbf = plan.doppler_to_bf(ctx.local, easy=False)
        self.route_ew = plan.doppler_to_weights(ctx.local, easy=True)
        self.route_hw = plan.doppler_to_weights(ctx.local, easy=False)
        self.ebf_ranks, self.hbf_ranks = ctx.ranks("easy_bf"), ctx.ranks("hard_bf")
        self.ew_ranks = ctx.ranks("easy_weight")
        self.hw_ranks = ctx.ranks("hard_weight")
        consumers = (
            [self.ebf_ranks[c] for c, _, _ in self.route_ebf]
            + [self.hbf_ranks[c] for c, _, _ in self.route_hbf]
            + [self.ew_ranks[c] for c, _, _, _ in self.route_ew]
            + [self.hw_ranks[c] for c, _, _, _ in self.route_hw]
        )
        ctx.register_consumers("data", consumers)

        if self.embedded:
            self.reader = _make_reader(ctx, self.rlo, self.rhi)
            self.read_producers: List[int] = []
            self.read_ranks = ()
        else:
            self.reader = None
            self.read_producers = plan.doppler_expected_read_producers(ctx.local)
            self.read_ranks = ctx.ranks("read")
        return True

    def recv_prologue(self):
        if self.embedded:
            self.reader.prefetch(0)
        return
        yield

    def recv(self, k: int):
        ctx, plan, p = self.ctx, self.ctx.plan, self.ctx.params
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
        for rp in self.read_producers:
            arr = yield from ctx.rc.recv(self.read_ranks[rp], data_tag(k))
            if slab is not None:
                lo, hi = plan.ranges_doppler.overlap(ctx.local, plan.ranges_read, rp)
                slab[:, :, lo - self.rlo : hi - self.rlo] = arr
            ctx.send_ack(self.read_ranks[rp], k)
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
        return easy, hard

    def send(self, k: int, outputs):
        ctx = self.ctx
        easy, hard = outputs
        yield from ctx.await_credit("data", k)
        reqs: List[Request] = []
        for c, (blo, bhi), nb in self.route_ebf:
            sub = easy[blo:bhi] if easy is not None else None
            reqs.append(ctx.rc.isend(ctx.payload(sub, nb), self.ebf_ranks[c], data_tag(k)))
        for c, (blo, bhi), nb in self.route_hbf:
            sub = hard[blo:bhi] if hard is not None else None
            reqs.append(ctx.rc.isend(ctx.payload(sub, nb), self.hbf_ranks[c], data_tag(k)))
        for c, (blo, bhi), cols, nb in self.route_ew:
            sub = self._gate_columns(easy[blo:bhi], cols) if easy is not None else None
            reqs.append(ctx.rc.isend(ctx.payload(sub, nb), self.ew_ranks[c], data_tag(k)))
        for c, (blo, bhi), cols, nb in self.route_hw:
            sub = self._gate_columns(hard[blo:bhi], cols) if hard is not None else None
            reqs.append(ctx.rc.isend(ctx.payload(sub, nb), self.hw_ranks[c], data_tag(k)))
        yield from _send_routed(ctx, k, reqs)

    def _gate_columns(self, rows: np.ndarray, cols: List[int]) -> np.ndarray:
        """Training-gate columns ``cols`` of this slab's output ``rows``."""
        import numpy as np

        gates = self.ctx.plan.train_gates
        return np.ascontiguousarray(rows[:, :, [gates[c] - self.rlo for c in cols]])


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
        rows = plan.rows_easy_w if self.easy else plan.rows_hard_w
        self.blo, self.bhi = rows.bounds(ctx.local)
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

        self.dop_ranks = ctx.ranks("doppler")
        self.producers = plan.weight_expected_producers()
        self.bf_ranks = ctx.ranks("easy_bf" if self.easy else "hard_bf")
        self.route_bf = plan.weights_to_bf(ctx.local, self.easy)
        ctx.register_consumers("w", [self.bf_ranks[c] for c, _, _ in self.route_bf])
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

    def _ship(self, weights: Optional[np.ndarray], use_cpi: int) -> List[Request]:
        ctx = self.ctx
        reqs: List[Request] = []
        for c, (lo, hi), nb in self.route_bf:
            sub = weights[lo - self.blo : hi - self.blo] if weights is not None else None
            reqs.append(
                ctx.rc.isend(ctx.payload(sub, nb), self.bf_ranks[c], data_tag(use_cpi))
            )
        return reqs

    def send_prologue(self):
        """Bootstrap: quiescent weights for CPI 0 (no training data yet)."""
        ctx = self.ctx
        w0 = None
        if ctx.cfg.compute:
            from repro.stap.weights import initial_weights

            w0 = initial_weights(ctx.params, hard=not self.easy, bins=self.my_bins)
        t0 = ctx.now
        reqs = self._ship(w0, use_cpi=0)
        if reqs:
            yield from Request.wait_all(ctx.kernel, reqs)
        ctx.record(-1, Phase.SEND, t0)

    def recv(self, k: int):
        ctx, plan = self.ctx, self.ctx.plan
        X = (
            _empty((self.nrows, self.dof, self.n_train), dtype=ctx.params.dtype)
            if ctx.cfg.compute
            else None
        )
        for dp in self.producers:
            arr = yield from ctx.rc.recv(self.dop_ranks[dp], data_tag(k))
            if X is not None:
                cols = plan.train_gate_cols(*plan.ranges_doppler.bounds(dp))
                X[:, :, cols] = arr
            ctx.send_ack(self.dop_ranks[dp], k)
        return X

    def compute(self, k: int, X):
        ctx = self.ctx
        weights = self._solve(X) if ctx.cfg.compute else None
        yield from ctx.compute_for(self.t_compute)
        return weights

    def send(self, k: int, weights):
        """Ship weights trained on CPI k for use at CPI k+1."""
        ctx = self.ctx
        yield from ctx.await_credit("w", k + 1)
        t0 = ctx.now
        reqs = self._ship(weights, use_cpi=k + 1)
        if reqs:
            yield from Request.wait_all(ctx.kernel, reqs)
        ctx.record(k, Phase.SEND, t0)


# ---------------------------------------------------------------------------
# tasks 3 and 4: beamforming


class BeamformStages(TaskStages):
    """Apply this node's bin rows' weights to the current CPI's data."""

    def __init__(self, ctx: TaskContext, easy: bool) -> None:
        super().__init__(ctx)
        self.easy = easy

    def setup(self) -> bool:
        ctx, plan, p = self.ctx, self.ctx.plan, self.ctx.params
        self.rows = plan.rows_easy_bf if self.easy else plan.rows_hard_bf
        self.blo, self.bhi = self.rows.bounds(ctx.local)
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

        self.dop_ranks = ctx.ranks("doppler")
        self.data_producers = [
            i
            for i in range(plan.ranges_doppler.parts)
            if plan.ranges_doppler.size(i) > 0
        ]
        self.w_ranks = ctx.ranks("easy_weight" if self.easy else "hard_weight")
        self.rows_w = plan.rows_easy_w if self.easy else plan.rows_hard_w
        self.w_producers = plan.bf_expected_weight_producers(ctx.local, self.easy)
        self.pc_ranks = ctx.ranks(plan.pc_task)
        self.route_pc = plan.bf_to_pc(ctx.local, self.easy)
        ctx.register_consumers("data", [self.pc_ranks[c] for c, _, _ in self.route_pc])
        return True

    def recv(self, k: int):
        ctx, plan, p = self.ctx, self.ctx.plan, self.ctx.params
        W = (
            _empty((self.nrows, self.dof, p.n_beams), dtype="complex64")
            if ctx.cfg.compute
            else None
        )
        for wp in self.w_producers:
            arr = yield from ctx.rc.recv(self.w_ranks[wp], data_tag(k))
            if W is not None:
                lo, hi = self.rows.overlap(ctx.local, self.rows_w, wp)
                W[lo - self.blo : hi - self.blo] = arr
            ctx.send_ack(self.w_ranks[wp], k)
        X = (
            _empty((self.nrows, self.dof, p.n_ranges), dtype=p.dtype)
            if ctx.cfg.compute
            else None
        )
        for dp in self.data_producers:
            arr = yield from ctx.rc.recv(self.dop_ranks[dp], data_tag(k))
            if X is not None:
                rlo, rhi = plan.ranges_doppler.bounds(dp)
                X[:, :, rlo:rhi] = arr
            ctx.send_ack(self.dop_ranks[dp], k)
        return W, X

    def compute(self, k: int, inputs):
        ctx = self.ctx
        W, X = inputs
        Y = None
        if ctx.cfg.compute:
            import numpy as np

            Y = np.einsum("bjk,bjr->bkr", W.conj(), X).astype(np.complex64)
        yield from ctx.compute_for(self.t_compute)
        return Y

    def send(self, k: int, Y):
        ctx = self.ctx
        yield from ctx.await_credit("data", k)
        reqs: List[Request] = []
        for c, (lo, hi), nb in self.route_pc:
            sub = Y[lo - self.blo : hi - self.blo] if Y is not None else None
            reqs.append(ctx.rc.isend(ctx.payload(sub, nb), self.pc_ranks[c], data_tag(k)))
        yield from _send_routed(ctx, k, reqs)


# ---------------------------------------------------------------------------
# shared receive for the bin-partitioned tail tasks


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
    """Receive machinery shared by pulse compression / CFAR / combined."""

    def _setup_bin_rows(self) -> bool:
        ctx, plan = self.ctx, self.ctx.plan
        self.glo, self.ghi = plan.bins_pc.bounds(ctx.local)
        if self.ghi <= self.glo:
            return False
        self.share = (self.ghi - self.glo) / ctx.params.n_doppler_bins
        self.producers = []
        for task, j in plan.pc_expected_bf_producers(ctx.local):
            easy = task == "easy_bf"
            rows_bf = plan.rows_easy_bf if easy else plan.rows_hard_bf
            labels = plan.easy_labels if easy else plan.hard_labels
            plo, phi = rows_bf.bounds(j)
            # Buffer rows (global bin - glo) this producer's rows fill.
            rows = [b - self.glo for b in labels[plo:phi] if self.glo <= b < self.ghi]
            self.producers.append((ctx.ranks(task)[j], rows))
        return True

    def _recv_bin_rows(self, k: int):
        ctx, p = self.ctx, self.ctx.params
        buf = (
            _empty((self.ghi - self.glo, p.n_beams, p.n_ranges), dtype=p.dtype)
            if ctx.cfg.compute
            else None
        )
        for src_rank, rows in self.producers:
            arr = yield from ctx.rc.recv(src_rank, data_tag(k))
            if buf is not None:
                buf[rows] = arr
            ctx.send_ack(src_rank, k)
        return buf


# ---------------------------------------------------------------------------
# task 5: pulse compression


class PulseStages(_BinRowsMixin):
    """Overlap-save matched filtering of this node's global bins."""

    def setup(self) -> bool:
        if not self._setup_bin_rows():
            return False
        ctx, plan = self.ctx, self.ctx.plan
        self.t_compute = ctx.model_time(ctx.costs.pulse_compression_flops(), self.share)
        self.cfar_ranks = ctx.ranks("cfar")
        self.route = plan.pc_to_cfar(ctx.local)
        ctx.register_consumers("data", [self.cfar_ranks[c] for c, _, _ in self.route])
        return True

    def recv(self, k: int):
        buf = yield from self._recv_bin_rows(k)
        return buf

    def compute(self, k: int, buf):
        ctx = self.ctx
        Y = None
        if ctx.cfg.compute:
            from repro.stap.pulse import pulse_compress

            Y = pulse_compress(buf, ctx.params.pulse_len)
        yield from ctx.compute_for(self.t_compute)
        return Y

    def send(self, k: int, Y):
        ctx = self.ctx
        yield from ctx.await_credit("data", k)
        reqs: List[Request] = []
        for c, (lo, hi), nb in self.route:
            sub = Y[lo - self.glo : hi - self.glo] if Y is not None else None
            reqs.append(
                ctx.rc.isend(ctx.payload(sub, nb), self.cfar_ranks[c], data_tag(k))
            )
        yield from _send_routed(ctx, k, reqs)


# ---------------------------------------------------------------------------
# task 6: CFAR detection (sink)


class CfarStages(_ReportWriterMixin):
    """CA-CFAR over this node's global bins; produces detection reports."""

    def setup(self) -> bool:
        ctx, plan, p = self.ctx, self.ctx.plan, self.ctx.params
        self.glo, self.ghi = plan.bins_cfar.bounds(ctx.local)
        if self.ghi <= self.glo:
            return False
        share = (self.ghi - self.glo) / p.n_doppler_bins
        self.t_compute = ctx.model_time(ctx.costs.cfar_flops(), share)
        self.pc_ranks = ctx.ranks("pulse_compr")
        self.producers = plan.cfar_expected_pc_producers(ctx.local)
        self._setup_report_writer()
        return True

    def recv(self, k: int):
        ctx, plan, p = self.ctx, self.ctx.plan, self.ctx.params
        buf = (
            _empty((self.ghi - self.glo, p.n_beams, p.n_ranges), dtype=p.dtype)
            if ctx.cfg.compute
            else None
        )
        for j in self.producers:
            arr = yield from ctx.rc.recv(self.pc_ranks[j], data_tag(k))
            if buf is not None:
                lo, hi = plan.bins_cfar.overlap(ctx.local, plan.bins_pc, j)
                buf[lo - self.glo : hi - self.glo] = arr
            ctx.send_ack(self.pc_ranks[j], k)
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

    def recv(self, k: int):
        buf = yield from self._recv_bin_rows(k)
        return buf

    def compute(self, k: int, buf):
        ctx = self.ctx
        if ctx.cfg.compute:
            from repro.stap.pulse import pulse_compress

            compressed = pulse_compress(buf, ctx.params.pulse_len)
            self._run_cfar(compressed, k)
        yield from ctx.compute_for(self.t_compute)
        ctx.record(k, Phase.DONE, ctx.now)
        return None
