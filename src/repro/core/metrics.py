"""Steady-state measurements from execution traces.

Reproduces the paper's reported quantities:

* per-task time :math:`T_i` — mean over steady-state CPIs of the task's
  per-CPI service time (receive + compute + send on the slowest node,
  flow-control stall excluded), with the phase breakdown the paper's
  Table 1 discusses;
* **throughput** — CPIs per second at the sink over the steady-state
  window (this is the operational form of Eq. 1);
* **latency** — mean time from the first task starting a CPI to the
  sink finishing it (operational form of Eq. 2);
* model cross-checks: ``1 / max T_i`` and the graph's latency formula
  evaluated on the measured :math:`T_i`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import PipelineError
from repro.core.pipeline import PipelineSpec
from repro.core.serialize import Codec, coded
from repro.trace.collector import TraceCollector
from repro.trace.record import Phase

__all__ = ["TaskPhaseStats", "DroppedCpi", "PipelineMeasurement", "measure"]


@dataclass(frozen=True, order=True)
class DroppedCpi(Codec):
    """One CPI a reading node skipped at its graceful-degradation deadline.

    Recorded when :attr:`ExecutionConfig.read_deadline` expires before
    the node's slab read completes (typically during a stripe-server
    outage).  The node forwards a placeholder slab so the pipeline keeps
    its beat; this record is the accounting for the sacrificed data.
    """

    task: str
    node: int
    cpi: int
    waited: float  # simulated seconds spent waiting before giving up


@dataclass(frozen=True)
class TaskPhaseStats(Codec):
    """Steady-state phase breakdown of one task (seconds per CPI)."""

    task: str
    recv: float
    compute: float
    send: float

    @property
    def total(self) -> float:
        """The task's service time T_i."""
        return self.recv + self.compute + self.send


@dataclass
class PipelineMeasurement(Codec):
    """All steady-state measurements of one pipeline run."""

    #: Stored as a list of per-task rows, in task order.
    task_stats: Dict[str, TaskPhaseStats] = coded(
        lambda stats: [s.to_dict() for s in stats.values()],
        lambda rows: {s.task: s for s in map(TaskPhaseStats.from_dict, rows)},
    )
    throughput: float           # CPIs/s at the sink
    latency: float              # s, first-task start -> sink done (mean)
    model_throughput: float     # 1 / max measured T_i  (Eq. 1/3)
    model_latency: float        # graph latency formula on measured T_i
    steady_cpis: List[int] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)  # per steady CPI

    def latency_percentile(self, q: float) -> float:
        """Per-CPI latency percentile over the steady-state window
        (``q`` in [0, 100]); useful for jitter, which the mean hides."""
        if not self.latencies:
            return self.latency
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        ordered = sorted(self.latencies)
        idx = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
        return ordered[idx]

    @property
    def bottleneck_task(self) -> str:
        """Task with the largest measured service time."""
        return max(self.task_stats.values(), key=lambda s: s.total).task

    def times(self) -> Dict[str, float]:
        """Measured T_i by task name."""
        return {name: s.total for name, s in self.task_stats.items()}

    def utilization(self) -> Dict[str, float]:
        """Fraction of the pipeline beat each task spends in service.

        ``T_i * throughput``: 1.0 for the bottleneck task in steady
        state, lower for everyone waiting on it.  (Can exceed 1.0 when
        phases overlap, e.g. SMP-threaded nodes, where per-CPI service
        exceeds the cycle time.)
        """
        return {
            name: s.total * self.throughput for name, s in self.task_stats.items()
        }


def measure(
    trace: TraceCollector,
    spec: PipelineSpec,
    n_cpis: int,
    warmup: int,
    sink_task: str,
    first_task: str,
) -> PipelineMeasurement:
    """Compute steady-state metrics from a finished run's trace."""
    steady = [k for k in range(warmup, n_cpis)]
    if not steady:
        raise PipelineError("no steady-state CPIs (warmup >= n_cpis)")

    task_stats: Dict[str, TaskPhaseStats] = {}
    for t in spec.tasks:
        recs = trace.cpis(t.name)
        use = [k for k in steady if k in set(recs)]
        if not use:
            raise PipelineError(f"no steady-state records for task {t.name!r}")
        recv = sum(trace.phase_time(t.name, k, Phase.RECV) for k in use) / len(use)
        comp = sum(trace.phase_time(t.name, k, Phase.COMPUTE) for k in use) / len(use)
        send = sum(trace.phase_time(t.name, k, Phase.SEND) for k in use) / len(use)
        task_stats[t.name] = TaskPhaseStats(t.name, recv, comp, send)

    # Operational throughput: sink completion rate over the window.
    t_first = trace.completion_time(sink_task, steady[0])
    t_last = trace.completion_time(sink_task, steady[-1])
    if len(steady) > 1 and t_last > t_first:
        throughput = (len(steady) - 1) / (t_last - t_first)
    else:
        # Single steady CPI: fall back to the model form.
        throughput = 1.0 / max(s.total for s in task_stats.values())

    # Operational latency: per-CPI journey time.
    lats = [
        trace.completion_time(sink_task, k) - trace.start_time(first_task, k)
        for k in steady
    ]
    latency = sum(lats) / len(lats)

    times = {name: s.total for name, s in task_stats.items()}
    return PipelineMeasurement(
        task_stats=task_stats,
        throughput=throughput,
        latency=latency,
        model_throughput=spec.graph.throughput(times),
        model_latency=spec.graph.latency(times),
        steady_cpis=steady,
        latencies=lats,
    )
