"""Per-node runtime context for task bodies.

A :class:`TaskContext` is everything one task node's process generator
needs: its rank handle, the plan, the file set, the trace collector, the
execution config, and helpers for timed phases, cost-model compute, and
credit-window flow control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from repro.core.arrivals import ArrivalSpec
from repro.core.serialize import Codec, sparse
from repro.stap.costs import STAPCosts
from repro.stap.params import STAPParams
from repro.trace.record import Phase

if TYPE_CHECKING:
    from repro.core.plan import PipelinePlan
    from repro.core.task import TaskInstance
    from repro.io.fileset import CubeFileSet
    from repro.mpi.communicator import RankComm
    from repro.sim.kernel import Kernel
    from repro.trace.collector import TraceCollector

__all__ = ["ExecutionConfig", "TaskContext", "data_tag", "ACK_NBYTES"]

#: Bytes charged for a flow-control acknowledgement message.
ACK_NBYTES = 64


def data_tag(cpi: int) -> int:
    """Message tag for CPI ``cpi`` (offset so the bootstrap CPI -1 is
    representable as a valid non-negative tag)."""
    return cpi + 1


@dataclass(frozen=True)
class ExecutionConfig(Codec):
    """How to run a pipeline.

    Attributes
    ----------
    n_cpis:
        CPIs pushed through the pipeline.
    warmup:
        Leading CPIs excluded from steady-state metrics.
    window:
        Credit window W: a producer may be at most W CPIs ahead of each
        of its consumers (bounds buffering, like the real system's
        finite message buffers).
    compute:
        True = real numerics flow (compute mode); False = phantom
        payloads and cost-model times only (timing mode).
    threaded:
        False = the paper's single-threaded nodes (phases in sequence);
        True = the IPPS'99 companion design: receive/compute/send run as
        concurrent threads per node (SMP nodes), overlapping phases of
        successive CPIs.
    write_reports:
        When True, the sink task writes each CPI's detection reports
        back into the parallel file system (one file per sink node) —
        the output-side I/O the authors' journal version studies.  The
        writes queue on the same stripe-directory disks as the reads.
    read_deadline:
        Graceful-degradation deadline (simulated seconds) for the
        per-CPI slab read.  When set, a reading task that cannot obtain
        its CPI slab within the deadline *skips* the CPI — recording a
        :class:`~repro.core.metrics.DroppedCpi` instead of stalling the
        whole pipeline behind a failed stripe server.  ``None`` (the
        default) keeps the classic stall-forever behaviour.
    metrics_interval:
        Simulated-time gauge-sampling interval for the observability
        layer (:mod:`repro.obs`).  When set, the executor builds a
        :class:`~repro.obs.MetricsRegistry`, samples it every this many
        simulated seconds, and attaches the time-series artifact to
        ``PipelineResult.metrics``.  Sampling rides the kernel's
        clock-advance hook, so event order — and every simulated
        quantity — is bit-identical with metrics on or off.  ``None``
        (the default) disables metrics entirely.
    arrival:
        CPI arrival process (:class:`~repro.core.arrivals.ArrivalSpec`).
        When set, the reading task gates each CPI's read on its arrival
        time — modelling a radar front end that delivers CPIs on a
        cadence instead of a pre-populated file system.  ``None`` (the
        default) keeps the classic all-data-ready behaviour and is
        bit-identical to it.
    """

    n_cpis: int = 8
    warmup: int = 2
    window: int = 2
    compute: bool = False
    threaded: bool = False
    write_reports: bool = False
    read_deadline: Optional[float] = sparse(None)
    metrics_interval: Optional[float] = sparse(None)
    arrival: Optional[ArrivalSpec] = sparse(None)

    def __post_init__(self) -> None:
        if self.n_cpis < 1:
            raise ValueError("n_cpis must be >= 1")
        if not (0 <= self.warmup < self.n_cpis):
            raise ValueError("warmup must be in [0, n_cpis)")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.read_deadline is not None and self.read_deadline <= 0:
            raise ValueError("read_deadline must be > 0 (or None)")
        if self.metrics_interval is not None and self.metrics_interval <= 0:
            raise ValueError("metrics_interval must be > 0 (or None)")
        if self.arrival is not None and not isinstance(self.arrival, ArrivalSpec):
            raise ValueError("arrival must be an ArrivalSpec (or None)")


class TaskContext:
    """Everything one task node needs at run time."""

    def __init__(
        self,
        kernel: Kernel,
        rc: RankComm,
        task: TaskInstance,
        local: int,
        plan: PipelinePlan,
        cfg: ExecutionConfig,
        trace: TraceCollector,
        fileset: Optional[CubeFileSet],
        node_spec,
        results: Dict[str, Any],
        strategy=None,
        metrics=None,
        tenant: str = "",
        arrival_times: Optional[Sequence[float]] = None,
    ) -> None:
        self.kernel = kernel
        self.rc = rc
        self.task = task
        self.local = local
        self.plan = plan
        self.cfg = cfg
        self.trace = trace
        self.fileset = fileset
        self.node_spec = node_spec
        self.results = results
        #: The run's :class:`~repro.strategies.IOStrategy` (None for
        #: hand-built specs outside the registry: legacy reader behaviour).
        self.strategy = strategy
        #: The run's :class:`~repro.obs.MetricsRegistry`, or None when
        #: observability is off (``cfg.metrics_interval`` unset).
        self.metrics = metrics
        #: Tenant name when this context belongs to a pipeline hosted by
        #: a :class:`~repro.scenario.ScenarioExecutor`; "" standalone.
        #: Non-empty tenants add a ``tenant`` label to every instrument
        #: registered from task code (standalone labels are unchanged).
        self.tenant = tenant
        #: Absolute arrival time of each CPI (``cfg.arrival``-derived),
        #: or None when the classic all-data-ready behaviour applies.
        self.arrival_times = tuple(arrival_times) if arrival_times is not None else None
        self.params: STAPParams = plan.params
        self.costs = STAPCosts(plan.params)
        # The message layer's payload type, bound once per node so that
        # importing ExecutionConfig loads no part of the simulator.
        from repro.mpi.datatypes import Phantom

        self._phantom = Phantom
        # Every ack carries this one payload: only its size is read.
        self._ack = Phantom(ACK_NBYTES, {"ack": True})
        #: This node's messages, read from the plan's one list per edge.
        self.out_messages = plan.out_messages(task.name, local)
        self.in_messages = plan.in_messages(task.name, local)
        #: The credit window's consumer ranks: those of the out-messages.
        self.consumers = tuple(sorted({link.rank for link in self.out_messages}))

    # -- sugar ------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def name(self) -> str:
        return self.task.name

    def tenant_labels(self, **labels) -> Dict[str, Any]:
        """Instrument labels with a ``tenant`` key added when this
        context runs inside a scenario (standalone: unchanged)."""
        if self.tenant:
            labels["tenant"] = self.tenant
        return labels

    def record(self, cpi: int, phase: Phase, t_start: float, t_end: Optional[float] = None) -> None:
        """Add a trace record ending now (or at ``t_end``)."""
        end = self.now if t_end is None else t_end
        self.trace.add(self.name, self.local, cpi, phase, t_start, end)
        if self.metrics is not None:
            # Cumulative phase seconds per (task, phase): the compute-
            # utilization side of the bottleneck-migration picture.  A
            # plain counter increment — no kernel interaction.
            self.metrics.counter(
                "task_phase_seconds_total",
                help="cumulative simulated seconds spent per task phase",
                **self.tenant_labels(task=self.name, phase=phase.value),
            ).inc(end - t_start)

    # -- arrival gating ---------------------------------------------------
    def await_arrival(self, cpi: int):
        """Process generator: wait until CPI ``cpi`` has arrived.

        No-op (zero kernel events — bit-identical control flow) when no
        arrival process is configured or the CPI already arrived.  A
        real wait is recorded as an ARRIVAL phase: idle time, excluded
        from service metrics like CREDIT.
        """
        times = self.arrival_times
        if times is None or cpi >= len(times):
            return
        t = times[cpi]
        t0 = self.now
        if t <= t0:
            return
        yield self.kernel.timeout(t - t0)
        self.record(cpi, Phase.ARRIVAL, t0)

    def ranks(self, task_name: str) -> Tuple[int, ...]:
        return self.plan.ranks(task_name)

    # -- compute phase -------------------------------------------------------
    def compute_for(self, seconds: float):
        """Process generator: occupy the node for ``seconds`` of compute."""
        if seconds > 0:
            yield self.kernel.timeout(seconds)

    def model_time(self, full_cpi_flops: float, share: float, bytes_touched: float = 0.0) -> float:
        """Cost-model seconds for this node's ``share`` of a task's work."""
        return self.node_spec.compute_time(full_cpi_flops * share, bytes_touched * share)

    # -- flow control ----------------------------------------------------------
    def await_credit(self, cpi: int):
        """Process generator: wait for every consumer's ack of CPI
        ``cpi - window``.

        Call before *sending* CPI ``cpi``.  Records the stall as a
        CREDIT phase (idle, excluded from service times).
        """
        need = cpi - self.cfg.window
        if need < 0:
            return
        t0 = self.now
        for c in self.consumers:
            yield from self.rc.recv(source=c, tag=data_tag(need))
        if self.now > t0:
            self.record(cpi, Phase.CREDIT, t0)

    def send_ack(self, producer_rank: int, cpi: int) -> None:
        """Acknowledge consumption of CPI ``cpi`` to one producer."""
        self.rc.isend(self._ack, producer_rank, data_tag(cpi))

    # -- payload helpers ----------------------------------------------------------
    def payload(self, array_or_none, nbytes: int, **meta) -> Any:
        """Compute mode: the array; timing mode: a Phantom of ``nbytes``."""
        if self.cfg.compute:
            return array_or_none
        return self._phantom(nbytes, meta)
