"""Trace, result, and metrics export with a symmetric API surface.

Every exporter comes as a pair with one signature shape:

* ``to_X(obj) -> data`` — pure conversion to a JSON-able value;
* ``write_X(obj, path, *, pretty=False, **opts) -> path`` — the same
  conversion serialized to disk **atomically** (written to a temp file
  in the destination directory, then ``os.replace``'d into place, so a
  crash mid-write never leaves a truncated artifact) and returning the
  path written.

The four pairs:

* **Chrome tracing** — ``chrome://tracing`` / https://ui.perfetto.dev
  consume a JSON array of "complete" events (``ph: "X"``) with
  microsecond timestamps.  Mapping: each pipeline task becomes a
  *process* (``pid``); each task-local node becomes a *thread* (``tid``)
  within it; each phase record becomes a complete event named
  ``"<phase> cpi=<k>"``, categorised by phase so the UI can filter.
  Accepts either a bare :class:`~repro.trace.collector.TraceCollector`
  or a :class:`~repro.core.executor.PipelineResult`; given a result
  that carries a metrics artifact, each sampled gauge series is merged
  in as a counter track (``ph: "C"``) under a dedicated ``metrics``
  process, so queue depths and utilization plot directly under the
  phase timeline.
* **Structured results** — :func:`to_result_json` wraps any object
  exposing a lossless ``to_dict()`` (``PipelineResult``,
  ``ExperimentResult``, ``ExperimentSpec``, ...) in a typed envelope —
  the recomputable experiment record the text tables are rendered from.
* **Metrics JSON** — the time-series artifact from
  ``PipelineResult.metrics`` (see :mod:`repro.obs`), standalone.
* **Prometheus text** — the same artifact in the text exposition
  format (``# HELP`` / ``# TYPE`` + samples), for anyone pointing
  standard dashboards at simulation output.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.trace.collector import TraceCollector

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "to_result_json",
    "write_result_json",
    "to_metrics_json",
    "write_metrics_json",
    "to_prometheus",
    "write_prometheus",
]

#: Structured-result envelope schema; bump on incompatible changes.
RESULT_SCHEMA = 1


# -- the one write path ------------------------------------------------------
def _atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically; returns ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-export-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _write_json(data: Any, path: str, pretty: bool) -> str:
    text = json.dumps(data, indent=2 if pretty else None, sort_keys=False)
    return _atomic_write_text(path, text)


def _metrics_of(obj: Any) -> Optional[dict]:
    """The metrics artifact dict carried by ``obj``, if any."""
    m = getattr(obj, "metrics", None)
    return m if isinstance(m, dict) else None


# -- chrome tracing ----------------------------------------------------------
def to_chrome_trace(obj) -> List[dict]:
    """Convert a trace — or a whole result — to Chrome tracing events.

    ``obj`` is a :class:`TraceCollector` or anything exposing a
    ``.trace`` attribute (a ``PipelineResult``).  When the object also
    carries a metrics artifact, sampled gauge series become counter
    tracks (``ph: "C"``) in a ``metrics`` process appended after the
    phase events.
    """
    trace = obj if isinstance(obj, TraceCollector) else getattr(obj, "trace", None)
    if not isinstance(trace, TraceCollector):
        raise TypeError(
            f"to_chrome_trace needs a TraceCollector or an object with a "
            f".trace, got {type(obj).__name__}"
        )
    pids: Dict[str, int] = {}
    events: List[dict] = []
    for task in trace.tasks():
        pids[task] = len(pids) + 1
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pids[task],
                "args": {"name": task},
            }
        )
    for rec in trace.records:
        events.append(
            {
                "name": f"{rec.phase.value} cpi={rec.cpi}",
                "cat": rec.phase.value,
                "ph": "X",
                "pid": pids[rec.task],
                "tid": rec.node,
                "ts": rec.t_start * 1e6,          # microseconds
                "dur": max(rec.duration, 0.0) * 1e6,
                "args": {"cpi": rec.cpi},
            }
        )
    metrics = _metrics_of(obj)
    if metrics is not None:
        events.extend(_counter_tracks(metrics, pid=len(pids) + 1))
    return events


def _counter_tracks(metrics: dict, pid: int) -> List[dict]:
    """Counter-track (``ph: "C"``) events for every sampled series."""
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": "metrics"},
        }
    ]
    for qname, s in sorted((metrics.get("series") or {}).items()):
        for t, v in zip(s["t"], s["v"]):
            events.append(
                {
                    "name": qname,
                    "ph": "C",
                    "pid": pid,
                    "ts": t * 1e6,
                    "args": {"value": v},
                }
            )
    return events


def write_chrome_trace(obj, path: str, *, pretty: bool = False) -> str:
    """Write Chrome tracing JSON to ``path`` atomically; returns the path.

    (Older revisions returned the event count; every ``write_X`` now
    returns the path written.)
    """
    return _write_json(to_chrome_trace(obj), path, pretty)


# -- structured results ------------------------------------------------------
def to_result_json(result, kind: str = "") -> Dict[str, object]:
    """Wrap a result object's lossless dict form in a typed envelope.

    ``result`` is anything with a lossless ``to_dict()`` —
    ``PipelineResult``, ``ExperimentResult``, ``ExperimentSpec``, ...
    ``kind`` defaults to the object's class name.
    """
    to_dict = getattr(result, "to_dict", None)
    if to_dict is None:
        raise TypeError(
            f"{type(result).__name__} has no to_dict(); structured export "
            "needs a losslessly serializable result object"
        )
    return {
        "schema": RESULT_SCHEMA,
        "kind": kind or type(result).__name__,
        "data": to_dict(),
    }


def write_result_json(
    result,
    path: str,
    kind: str = "",
    *,
    pretty: bool = False,
) -> str:
    """Write a structured result JSON artifact to ``path``; returns it.

    ``pretty=True`` pretty-prints (diffable); the default compact form
    is what the result store uses.
    """
    return _write_json(to_result_json(result, kind=kind), path, pretty)


# -- metrics artifact --------------------------------------------------------
def to_metrics_json(obj) -> dict:
    """The JSON metrics artifact of ``obj``.

    ``obj`` is a ``PipelineResult`` from a run with
    ``cfg.metrics_interval`` set, or the artifact dict itself (passed
    through).  Raises :class:`ReproError` when the result carries no
    metrics — re-run with ``--metrics`` / ``metrics_interval=``.
    """
    if isinstance(obj, dict) and "counters" in obj:
        return obj
    metrics = _metrics_of(obj)
    if metrics is None:
        raise ReproError(
            "result has no metrics artifact; run with metrics enabled "
            "(repro run --metrics, or ExecutionConfig(metrics_interval=...))"
        )
    return metrics


def write_metrics_json(obj, path: str, *, pretty: bool = False) -> str:
    """Write the metrics artifact to ``path`` atomically; returns it."""
    return _write_json(to_metrics_json(obj), path, pretty)


# -- Prometheus text exposition ----------------------------------------------
def to_prometheus(obj) -> str:
    """Render a metrics artifact in the Prometheus text format.

    Counters export with a ``# TYPE ... counter`` header, gauges as
    gauges (their last sampled value), histograms in the standard
    ``_bucket``/``_sum``/``_count`` shape.  Series are a simulated-time
    concept with no exposition-format equivalent and are omitted.
    """
    metrics = to_metrics_json(obj)
    help_text: Dict[str, str] = metrics.get("help") or {}
    lines: List[str] = []
    emitted_headers: set = set()

    def headers(base: str, kind: str) -> None:
        if base in emitted_headers:
            return
        emitted_headers.add(base)
        if base in help_text:
            lines.append(f"# HELP {base} {help_text[base]}")
        lines.append(f"# TYPE {base} {kind}")

    def fmt(value: float) -> str:
        if value == float("inf"):
            return "+Inf"
        return repr(float(value))

    for qname, value in sorted((metrics.get("counters") or {}).items()):
        headers(_base_name(qname), "counter")
        lines.append(f"{qname} {fmt(value)}")
    for qname, value in sorted((metrics.get("gauges") or {}).items()):
        headers(_base_name(qname), "gauge")
        lines.append(f"{qname} {fmt(value)}")
    for qname, h in sorted((metrics.get("histograms") or {}).items()):
        base, label_body = _split_qualified(qname)
        headers(base, "histogram")
        cumulative = 0
        for bound, count in zip(
            list(h["buckets"]) + [float("inf")], h["counts"]
        ):
            cumulative += count
            le = "+Inf" if bound == float("inf") else repr(float(bound))
            labels = _merge_labels(label_body, f'le="{le}"')
            lines.append(f"{base}_bucket{{{labels}}} {cumulative}")
        suffix = f"{{{label_body}}}" if label_body else ""
        lines.append(f"{base}_sum{suffix} {fmt(h['sum'])}")
        lines.append(f"{base}_count{suffix} {h['count']}")
    return "\n".join(lines) + "\n"


def _base_name(qname: str) -> str:
    return qname.split("{", 1)[0]


def _split_qualified(qname: str) -> "tuple[str, str]":
    """``name{a="b"}`` -> ``("name", 'a="b"')``; no labels -> ``("name", "")``."""
    if "{" not in qname:
        return qname, ""
    base, rest = qname.split("{", 1)
    return base, rest.rstrip("}")


def _merge_labels(existing: str, extra: str) -> str:
    return f"{existing},{extra}" if existing else extra


def write_prometheus(obj, path: str, *, pretty: bool = False) -> str:
    """Write the Prometheus text exposition to ``path``; returns it.

    ``pretty`` is accepted for signature symmetry; the text format has
    a single canonical rendering, so it is a no-op.
    """
    return _atomic_write_text(path, to_prometheus(obj))
