"""Execution tracing and paper-style reporting.

The executor records one :class:`~repro.trace.record.PhaseRecord` per
(task, node, CPI, phase); :class:`~repro.trace.collector.TraceCollector`
stores and indexes them; :mod:`~repro.trace.gantt` renders ASCII
timelines for debugging; :mod:`~repro.trace.report` renders the paper's
table and bar-chart formats.
"""

from importlib import import_module

from repro.trace.record import PhaseRecord, Phase
from repro.trace.collector import TraceCollector
from repro.trace.export import (
    to_chrome_trace,
    to_metrics_json,
    to_prometheus,
    to_result_json,
    write_chrome_trace,
    write_metrics_json,
    write_prometheus,
    write_result_json,
)
from repro.trace.report import bar_chart, format_table, grouped_bar_chart, heatmap

#: The timeline renderers, loaded from their module on first use.
_LAZY = {"render_gantt": "gantt", "render_scenario_gantt": "gantt"}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "PhaseRecord",
    "Phase",
    "TraceCollector",
    "render_gantt",
    "render_scenario_gantt",
    "to_chrome_trace",
    "write_chrome_trace",
    "to_result_json",
    "write_result_json",
    "to_metrics_json",
    "write_metrics_json",
    "to_prometheus",
    "write_prometheus",
    "bar_chart",
    "format_table",
    "grouped_bar_chart",
    "heatmap",
]
