"""Rendering of analysis dicts: text, JSON (ANALYSIS_SCHEMA=1), HTML.

:func:`render` is the one front door — ``render(analysis, fmt=...)``
over the dict :func:`~repro.analysis.sweep.analyze_sweep` produces —
and the exporters follow the symmetric :mod:`repro.trace.export`
convention: ``to_X(obj) -> data`` / ``write_X(obj, path, *, pretty)``
with atomic writes.

The HTML report is deliberately plain: one static page, inline CSS, no
external assets, so it renders from a ``file://`` URL and from the live
dashboard's ``/report`` endpoint identically.
"""

from __future__ import annotations

import html as _html
import json
from typing import Any, Dict, List

from repro.analysis.sweep import ANALYSIS_SCHEMA
from repro.errors import AnalysisError
from repro.trace.export import _atomic_write_text
from repro.trace.report import format_table

__all__ = [
    "render",
    "to_analysis_json",
    "write_analysis_json",
    "to_html_report",
    "write_html_report",
    "render_queue_stats",
]


def _check(analysis: Dict[str, Any]) -> Dict[str, Any]:
    if not isinstance(analysis, dict) or "schema" not in analysis:
        raise AnalysisError(
            "render() expects the dict produced by analyze_sweep()"
        )
    if analysis["schema"] != ANALYSIS_SCHEMA:
        raise AnalysisError(
            f"analysis dict has schema {analysis['schema']!r}; this build "
            f"renders schema {ANALYSIS_SCHEMA}"
        )
    return analysis


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    if v is None:
        return "-"
    return str(v)


def _win_loss_rows(analysis: Dict[str, Any]) -> List[List[object]]:
    rows = []
    for entry in analysis.get("win_loss", []):
        winners = ", ".join(entry["winners"])
        if entry.get("tie"):
            winners += " (tie)"
        best = max(entry["values"].values()) if entry["values"] else None
        margin = entry.get("margin")
        rows.append(
            [
                entry["group"],
                winners,
                _fmt(best) + (entry.get("unit") or ""),
                "-" if margin is None else f"+{margin:.1%}",
                entry.get("origin", ""),
            ]
        )
    return rows


def _crossover_rows(analysis: Dict[str, Any]) -> List[List[object]]:
    return [
        [x["artifact"], x["at"], f"{x['from']} → {x['to']}"]
        for x in analysis.get("crossovers", [])
    ]


def _tenant_rows(analysis: Dict[str, Any]) -> List[List[object]]:
    return [
        [
            t["tenant"],
            t.get("strategy") or "-",
            _fmt(t.get("n_tenants")),
            _fmt(t.get("throughput")),
            _fmt(t.get("dropped")),
            t.get("bottleneck") or "-",
        ]
        for t in analysis.get("tenants", [])
    ]


def render_text(analysis: Dict[str, Any]) -> str:
    """The terminal narrative: counts, win/loss, crossovers, faults."""
    counts = analysis["counts"]
    lines = [
        f"sweep analysis: {counts['cells']} cell(s) "
        f"({counts['simulated']} simulated, {counts['predicted']} "
        f"predicted), {counts['text_artifacts']} text artifact(s)",
    ]
    wl = _win_loss_rows(analysis)
    if wl:
        lines += [
            "",
            format_table(
                ["group", "winner", "best", "margin", "from"],
                wl,
                title="strategy win/loss",
            ),
        ]
    xo = _crossover_rows(analysis)
    if xo:
        lines += [
            "",
            format_table(
                ["artifact", "at", "bottleneck"],
                xo,
                title="disk→compute crossovers",
            ),
        ]
    faults = analysis.get("faults", {})
    if any(
        faults.get(k)
        for k in ("dropped_total", "failed_requests_total", "outages_total")
    ):
        lines += [
            "",
            "faults/drops: "
            f"{faults.get('dropped_total', 0)} CPI(s) dropped in "
            f"{faults.get('cells_with_drops', 0)} cell(s), "
            f"{faults.get('failed_requests_total', 0)} failed request(s), "
            f"{faults.get('outages_total', 0)} server outage(s)",
        ]
    tn = _tenant_rows(analysis)
    if tn:
        lines += [
            "",
            format_table(
                ["tenant", "strategy", "tenants", "CPIs/s", "dropped",
                 "bottleneck"],
                tn,
                title="per-tenant interference",
            ),
        ]
    for note in analysis.get("notes", []):
        lines += ["", f"note: {note}"]
    errors = analysis.get("sources", {}).get("errors", [])
    for err in errors:
        lines += [f"warning: {err}"]
    return "\n".join(lines)


# -- JSON --------------------------------------------------------------------
def to_analysis_json(analysis: Dict[str, Any]) -> Dict[str, Any]:
    """The analysis dict itself (validated); symmetric with
    :func:`repro.trace.export.to_metrics_json`."""
    return _check(analysis)


def write_analysis_json(
    analysis: Dict[str, Any], path: str, *, pretty: bool = False
) -> str:
    """Write the analysis JSON to ``path`` atomically; returns it."""
    text = json.dumps(
        to_analysis_json(analysis), indent=2 if pretty else None
    )
    return _atomic_write_text(path, text)


# -- HTML --------------------------------------------------------------------
_PAGE = """<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>repro sweep analysis</title>
<style>
body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 60rem; color: #1a1a2e; }}
h1 {{ font-size: 1.4rem; }} h2 {{ font-size: 1.1rem; margin-top: 2rem; }}
table {{ border-collapse: collapse; width: 100%; margin: .5rem 0; }}
th, td {{ border: 1px solid #cbd5e1; padding: .3rem .6rem;
          text-align: left; font-variant-numeric: tabular-nums; }}
th {{ background: #eef2f7; }}
tr.tie td {{ background: #fdf6e3; }}
.note {{ color: #64748b; font-size: .9em; }}
</style></head><body>
<h1>Sweep analysis</h1>
<p>{summary}</p>
{sections}
</body></html>
"""


def _html_table(
    headers: List[str], rows: List[List[object]], row_classes=None
) -> str:
    head = "".join(f"<th>{_html.escape(str(h))}</th>" for h in headers)
    body = []
    for i, row in enumerate(rows):
        cls = f' class="{row_classes[i]}"' if row_classes and row_classes[i] else ""
        cells = "".join(
            f"<td>{_html.escape(_fmt(c))}</td>" for c in row
        )
        body.append(f"<tr{cls}>{cells}</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )


def to_html_report(analysis: Dict[str, Any]) -> str:
    """Render the analysis as one self-contained static HTML page."""
    _check(analysis)
    counts = analysis["counts"]
    summary = _html.escape(
        f"{counts['cells']} cell(s) — {counts['simulated']} simulated, "
        f"{counts['predicted']} predicted — and "
        f"{counts['text_artifacts']} committed text artifact(s)."
    )
    sections: List[str] = []
    wl_entries = analysis.get("win_loss", [])
    if wl_entries:
        sections.append("<h2>Strategy win/loss</h2>")
        sections.append(
            _html_table(
                ["group", "winner", "best", "margin", "from"],
                _win_loss_rows(analysis),
                row_classes=[
                    "tie" if e.get("tie") else "" for e in wl_entries
                ],
            )
        )
    if analysis.get("crossovers"):
        sections.append("<h2>Disk→compute crossovers</h2>")
        sections.append(
            _html_table(
                ["artifact", "at", "bottleneck"],
                _crossover_rows(analysis),
            )
        )
    faults = analysis.get("faults", {})
    if any(
        faults.get(k)
        for k in ("dropped_total", "failed_requests_total", "outages_total")
    ):
        sections.append("<h2>Faults and drops</h2>")
        sections.append(
            _html_table(
                ["dropped CPIs", "cells with drops", "failed requests",
                 "server outages"],
                [[
                    faults.get("dropped_total", 0),
                    faults.get("cells_with_drops", 0),
                    faults.get("failed_requests_total", 0),
                    faults.get("outages_total", 0),
                ]],
            )
        )
    if analysis.get("tenants"):
        sections.append("<h2>Per-tenant interference</h2>")
        sections.append(
            _html_table(
                ["tenant", "strategy", "tenants", "CPIs/s", "dropped",
                 "bottleneck"],
                _tenant_rows(analysis),
            )
        )
    for note in analysis.get("notes", []):
        sections.append(f'<p class="note">{_html.escape(note)}</p>')
    for err in analysis.get("sources", {}).get("errors", []):
        sections.append(
            f'<p class="note">warning: {_html.escape(err)}</p>'
        )
    return _PAGE.format(summary=summary, sections="\n".join(sections))


def write_html_report(
    analysis: Dict[str, Any], path: str, *, pretty: bool = False
) -> str:
    """Write the HTML report to ``path`` atomically; returns it.

    ``pretty`` is accepted for signature symmetry with the other
    ``write_X`` exporters; the page has one canonical rendering.
    """
    return _atomic_write_text(path, to_html_report(analysis))


def render(analysis: Dict[str, Any], fmt: str = "text") -> str:
    """Render an analysis dict as ``"text"``, ``"json"``, or ``"html"``."""
    _check(analysis)
    if fmt == "text":
        return render_text(analysis)
    if fmt == "json":
        return json.dumps(to_analysis_json(analysis), indent=2)
    if fmt == "html":
        return to_html_report(analysis)
    raise AnalysisError(
        f"unknown render format {fmt!r}; choose text, json, or html"
    )


# -- queue stats -------------------------------------------------------------
def render_queue_stats(qs: dict) -> str:
    """Human-readable kernel event-queue statistics (``profile --queue-stats``)."""
    return "\n".join([
        "event queue statistics",
        f"  events      : {qs['total_entries']} scheduled — "
        f"{qs['lane_entries']} lane (zero-delay, {qs['lane_ratio']:.1%}), "
        f"{qs['calendar_entries']} timed (heap)",
        f"  advances    : {qs['advances']} clock advances",
        f"  heap        : {qs['heap_size']} live entries, peak {qs['heap_peak']}",
    ])
