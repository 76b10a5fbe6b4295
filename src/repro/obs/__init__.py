"""Live metrics and time-series observability for simulated runs.

The paper's whole argument is about *where the bottleneck sits* — disk
queues vs. interconnect links vs. compute — and this package makes that
visible over simulated time instead of only post-hoc:

* :mod:`repro.obs.instruments` — typed instruments (:class:`Counter`,
  :class:`Gauge`, :class:`Histogram`, :class:`Timeseries`) in a
  :class:`MetricsRegistry`;
* :mod:`repro.obs.sampler` — the kernel-hook :class:`Sampler` that
  snapshots pull gauges at a fixed simulated interval with zero effect
  on event ordering;
* :mod:`repro.obs.instrument` — :func:`instrument_substrate` and
  :func:`instrument_pipeline`, the standard gauge sets over a live
  substrate's and pipeline's hot seams;
* :mod:`repro.obs.report` — read-side analysis of the exported JSON
  artifact (:func:`bottleneck_profile`, summaries, sparklines);
* :mod:`repro.obs.service` — :class:`ServiceMetrics`, the experiment
  scheduler's instrument set (queue depth per client, tasks in flight,
  worker respawns, cache and dedupe hits).

Enable per run with ``ExecutionConfig(metrics_interval=0.1)`` or
``repro run --metrics``; the artifact lands on
``PipelineResult.metrics`` and exports as JSON, Prometheus text, or
chrome-trace counter tracks (see :mod:`repro.trace.export` and
``docs/observability.md``).
"""

from repro.obs.instruments import (
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timeseries,
    validate_metrics_dict,
)
from repro.obs.instrument import instrument_pipeline, instrument_substrate
from repro.obs.report import (
    bottleneck_profile,
    render_metrics_summary,
    sparkline,
    time_weighted_mean,
)
from repro.obs.sampler import Sampler
from repro.obs.service import ServiceMetrics

__all__ = [
    "ServiceMetrics",
    "METRICS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "Timeseries",
    "MetricsRegistry",
    "Sampler",
    "instrument_pipeline",
    "instrument_substrate",
    "validate_metrics_dict",
    "bottleneck_profile",
    "render_metrics_summary",
    "sparkline",
    "time_weighted_mean",
]
