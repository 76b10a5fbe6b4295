"""Tests for the repro.analysis facade: the one artifact resolver
(load), the offline sweep analyzer (analyze_sweep), and the renderers
(text/JSON/HTML), including the golden analysis of the committed
``results/`` artifacts."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    ANALYSIS_SCHEMA,
    analyze_sweep,
    gantt,
    load,
    render,
    render_queue_stats,
    to_html_report,
    write_analysis_json,
    write_html_report,
)
from repro.bench.engine import ExperimentSpec, run_spec
from repro.bench.store import STORE_SCHEMA, ResultStore
from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig
from repro.core.pipeline import NodeAssignment
from repro.errors import AnalysisError
from repro.obs.report import bottleneck_profile, render_metrics_summary
from repro.scenario import ScenarioSpec, TenantSpec, run_scenario
from repro.stap.params import STAPParams
from repro.trace.export import (
    write_chrome_trace,
    write_metrics_json,
    write_result_json,
)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

NONCONTIG_STRATEGIES = {
    "embedded-io",
    "collective-two-phase",
    "data-sieving",
    "list-io",
    "server-directed",
}


def _params() -> STAPParams:
    return STAPParams(
        n_channels=8, n_pulses=32, n_ranges=256, n_beams=6, n_hard_bins=8,
        n_training=64, pulse_len=16, cfar_window=12, cfar_guard=3, pfa=1e-6,
    )


def _spec(pipeline: str = "embedded", metrics: bool = False,
          stripe_factor: int = 8) -> ExperimentSpec:
    params = _params()
    return ExperimentSpec(
        assignment=NodeAssignment.balanced(params, 14),
        pipeline=pipeline,
        fs=FSConfig("pfs", stripe_factor=stripe_factor),
        params=params,
        cfg=ExecutionConfig(
            n_cpis=2, warmup=1,
            metrics_interval=0.25 if metrics else None,
        ),
    )


@pytest.fixture(scope="module")
def metered():
    """(spec, result) of one metered embedded run."""
    spec = _spec(metrics=True)
    return spec, run_spec(spec)


@pytest.fixture(scope="module")
def unmetered():
    """(spec, result) of one un-metered separate-I/O run."""
    spec = _spec(pipeline="separate")
    return spec, run_spec(spec)


# -- load(): the one artifact resolver --------------------------------------
class TestLoad:
    def test_result_object(self, metered):
        _, result = metered
        loaded = load(result)
        assert loaded.kind == "pipeline"
        assert loaded.source == "simulated"
        assert loaded.has_metrics
        assert loaded.result is result

    def test_result_dict(self, metered):
        _, result = metered
        loaded = load(result.to_dict())
        assert loaded.kind == "pipeline"
        assert loaded.result.throughput == pytest.approx(result.throughput)
        assert loaded.origin == "<dict>"

    def test_envelope_file(self, metered, tmp_path):
        _, result = metered
        path = write_result_json(result, str(tmp_path / "r.json"))
        loaded = load(path)
        assert loaded.kind == "pipeline"
        assert loaded.result.latency == pytest.approx(result.latency)
        assert loaded.origin == path

    def test_metrics_file(self, metered, tmp_path):
        _, result = metered
        path = write_metrics_json(result, str(tmp_path / "m.metrics.json"))
        loaded = load(path)
        assert loaded.kind == "metrics"
        assert loaded.result is None
        assert "counters" in loaded.metrics

    def test_trace_file(self, metered, tmp_path):
        _, result = metered
        path = write_chrome_trace(result, str(tmp_path / "t.trace.json"))
        loaded = load(path)
        assert loaded.kind == "trace"
        assert loaded.trace_events

    def test_store_hash_prefix(self, metered, tmp_path):
        spec, result = metered
        store = ResultStore(tmp_path / "cache")
        store.put(spec, result)
        loaded = load(spec.spec_hash()[:10], store=store)
        assert loaded.kind == "pipeline"
        assert loaded.spec_hash == spec.spec_hash()
        assert loaded.spec == spec.to_dict()
        assert loaded.result.throughput == pytest.approx(result.throughput)

    def test_missing_hash(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        with pytest.raises(AnalysisError, match="neither an existing file"):
            load("deadbeef", store=store)

    def test_stale_store_entry_dict(self, metered):
        spec, result = metered
        payload = {
            "schema": STORE_SCHEMA - 1,
            "spec_hash": spec.spec_hash(),
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        with pytest.raises(AnalysisError, match="stale store entry"):
            load(payload)

    def test_stale_envelope(self, metered):
        _, result = metered
        envelope = {
            "schema": 99, "kind": "PipelineResult", "data": result.to_dict()
        }
        with pytest.raises(AnalysisError, match="stale result artifact"):
            load(envelope)

    def test_stale_file_in_store(self, metered, tmp_path):
        # A schema-drifted file physically present under a store hash
        # must resolve to an explicit error, not a silent miss.
        spec, result = metered
        store = ResultStore(tmp_path / "cache")
        store.put(spec, result)
        h = spec.spec_hash()
        payload = json.loads(store.path_for(h).read_text())
        payload["schema"] = STORE_SCHEMA - 1
        store.path_for(h).write_text(json.dumps(payload))
        with pytest.raises(AnalysisError, match="stale or corrupt"):
            load(h, store=store)

    def test_rejects_junk(self):
        with pytest.raises(AnalysisError):
            load(123)
        with pytest.raises(AnalysisError):
            load("zz-not-a-hash-or-file")
        with pytest.raises(AnalysisError, match="not a recognized artifact"):
            load({"foo": 1})

    def test_top_level_reexports(self):
        assert repro.load is load
        assert repro.analyze_sweep is analyze_sweep
        assert repro.render is render
        assert repro.analysis.ANALYSIS_SCHEMA == ANALYSIS_SCHEMA


# -- analyze_sweep over the committed artifacts (golden) --------------------
class TestGoldenResultsDir:
    @pytest.fixture(scope="class")
    def analysis(self):
        # Pure offline parsing: reproduces the PR 8 tables with zero
        # new simulations.
        return analyze_sweep([str(RESULTS_DIR)])

    def test_counts(self, analysis):
        assert analysis["schema"] == ANALYSIS_SCHEMA
        assert analysis["counts"]["cells"] == 0
        assert analysis["counts"]["text_artifacts"] > 10
        assert not analysis["sources"]["errors"]

    def _entry(self, analysis, origin, group):
        matches = [
            e for e in analysis["win_loss"]
            if e["origin"] == origin and e["group"] == group
        ]
        assert len(matches) == 1, (origin, group)
        return matches[0]

    def test_noncontiguous_pfs_sf16_winner(self, analysis):
        e = self._entry(analysis, "ablation_noncontiguous", "pfs sf=16")
        assert e["winners"] == ["server-directed"]
        assert not e["tie"]
        assert e["values"]["server-directed"] == pytest.approx(3.563)
        assert 0.04 < e["margin"] < 0.07  # +5.4% in the committed table

    def test_noncontiguous_pfs_sf64_plateau_tie(self, analysis):
        # Compute-bound plateau: all five strategies converge.
        e = self._entry(analysis, "ablation_noncontiguous", "pfs sf=64")
        assert e["tie"]
        assert set(e["winners"]) == NONCONTIG_STRATEGIES
        assert max(e["values"].values()) == pytest.approx(3.955)

    def test_noncontiguous_piofs_sf64_winner(self, analysis):
        e = self._entry(analysis, "ablation_noncontiguous", "piofs sf=64")
        assert e["winners"] == ["embedded-io"]
        assert 0.01 < e["margin"] < 0.03  # +1.6%

    def test_noncontiguous_pfs_sf4_winner(self, analysis):
        e = self._entry(analysis, "ablation_noncontiguous", "pfs sf=4")
        assert e["winners"] == ["list-io"]

    def test_bottleneck_migration_crossover(self, analysis):
        hits = [
            x for x in analysis["crossovers"]
            if x["artifact"] == "ablation_bottleneck_migration"
        ]
        assert len(hits) == 1
        assert hits[0]["at"] == "sf=64"
        assert hits[0]["axes"] == {"sf": 64.0}
        assert (hits[0]["from"], hits[0]["to"]) == ("disk", "compute")


# -- analyze_sweep over result cells ----------------------------------------
class TestAnalyzeCells:
    def test_store_join_and_win_loss(self, metered, unmetered, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.put(metered[0], metered[1])
        store.put(unmetered[0], unmetered[1])
        analysis = analyze_sweep(store)
        assert analysis["counts"]["cells"] == 2
        assert analysis["counts"]["simulated"] == 2
        # The two cells differ only in strategy -> one win/loss group.
        cell_groups = [
            e for e in analysis["win_loss"] if e["origin"] == "cells"
        ]
        assert len(cell_groups) == 1
        assert set(cell_groups[0]["values"]) == {"embedded", "separate"}
        assert cell_groups[0]["winners"]
        # The un-metered cell degrades, never aborts the join.
        assert analysis["counts"]["unmetered"] == 1
        assert any("unknown" in n for n in analysis["notes"])

    def test_metered_cell_has_bottleneck(self, metered, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.put(metered[0], metered[1])
        analysis = analyze_sweep(store)
        (cell,) = analysis["cells"]
        assert cell["profile"]["bottleneck"] in ("disk", "compute")
        assert cell["axes"]["strategy"] == "embedded"
        assert cell["axes"]["stripe_factor"] == 8

    def test_predicted_cell_degrades(self, metered):
        d = metered[1].to_dict()
        d.pop("metrics", None)
        d["source"] = "predicted"
        analysis = analyze_sweep([str(RESULTS_DIR), d])
        assert analysis["counts"]["predicted"] == 1
        (cell,) = analysis["cells"]
        assert cell["source"] == "predicted"
        assert cell["profile"]["bottleneck"] == "unknown"
        assert "source=predicted" in cell["profile"]["note"]

    def test_empty_join_raises(self, tmp_path):
        with pytest.raises(AnalysisError, match="nothing to analyze"):
            analyze_sweep([str(tmp_path)])

    def test_bad_source_collected_not_raised(self, tmp_path):
        analysis = analyze_sweep([str(RESULTS_DIR), "feedbeef"],
                                 cache_dir=tmp_path / "nocache")
        assert analysis["sources"]["errors"]

    def test_scenario_tenant_breakdown(self):
        params = _params()
        cfg = ExecutionConfig(n_cpis=2, warmup=1)
        spec = ScenarioSpec(
            tenants=(
                TenantSpec(assignment=NodeAssignment.balanced(params, 14),
                           pipeline="embedded-io", cfg=cfg),
                TenantSpec(assignment=NodeAssignment.balanced(params, 14),
                           pipeline="separate-io", cfg=cfg),
            ),
            fs=FSConfig("pfs", stripe_factor=8),
            params=params,
        )
        result = run_scenario(spec)
        analysis = analyze_sweep(result)
        assert analysis["counts"]["cells"] == 2
        tenants = analysis["tenants"]
        assert len(tenants) == 2
        assert {t["strategy"] for t in tenants} == {
            "embedded-io", "separate-io"
        }
        assert all(t["n_tenants"] == 2 for t in tenants)
        assert all(t["throughput"] > 0 for t in tenants)


# -- the satellite bugfix: degrade instead of raise -------------------------
class TestDegradedProfiles:
    def test_strict_default_still_raises(self, unmetered):
        with pytest.raises(ValueError, match="no metrics"):
            bottleneck_profile(unmetered[1])

    def test_strict_false_degrades(self, unmetered):
        profile = bottleneck_profile(unmetered[1], strict=False)
        assert profile["bottleneck"] == "unknown"
        assert profile["note"] == "no metrics recorded (source=simulated)"

    def test_predicted_source_in_note(self, metered):
        d = metered[1].to_dict()
        d.pop("metrics", None)
        d["source"] = "predicted"
        result = load(d).result
        profile = bottleneck_profile(result, strict=False)
        assert profile["note"] == "no metrics recorded (source=predicted)"

    def test_summary_header_survives_missing_t_end(self, metered):
        metrics = dict(metered[1].metrics)
        metrics.pop("t_end", None)
        text = render_metrics_summary(metrics)
        assert "no elapsed time recorded" in text


# -- rendering --------------------------------------------------------------
class TestRender:
    @pytest.fixture(scope="class")
    def analysis(self):
        return analyze_sweep([str(RESULTS_DIR)])

    def test_text(self, analysis):
        text = render(analysis)
        assert "strategy win/loss" in text
        assert "server-directed" in text
        assert "disk→compute crossovers" in text

    def test_json_roundtrip(self, analysis):
        parsed = json.loads(render(analysis, fmt="json"))
        assert parsed["schema"] == ANALYSIS_SCHEMA
        assert parsed["win_loss"]

    def test_html(self, analysis):
        page = render(analysis, fmt="html")
        assert page.startswith("<!doctype html>")
        assert "Strategy win/loss" in page
        assert "server-directed" in page
        assert 'class="tie"' in page  # the sf=64 plateau rows

    def test_unknown_format(self, analysis):
        with pytest.raises(AnalysisError, match="unknown render format"):
            render(analysis, fmt="csv")

    def test_wrong_schema_rejected(self):
        with pytest.raises(AnalysisError, match="schema"):
            render({"schema": 99, "counts": {}})
        with pytest.raises(AnalysisError):
            to_html_report({"not": "an analysis"})

    def test_queue_stats(self):
        qs = {
            "total_entries": 10, "lane_entries": 4, "calendar_entries": 6,
            "nbuckets": 8, "width": 0.5, "count": 2, "lane_ratio": 0.4,
            "advances": 3, "fallback_scans": 0, "resizes": 1,
            "occupancy_hist": [0, 2, 1, 0, 0, 0, 0, 0],
        }
        assert "calendar queue statistics" in render_queue_stats(qs)

    def test_write_exporters_atomic(self, analysis, tmp_path):
        jpath = write_analysis_json(analysis, str(tmp_path / "a.json"),
                                    pretty=True)
        assert json.loads(Path(jpath).read_text())["schema"] == 1
        hpath = write_html_report(analysis, str(tmp_path / "a.html"))
        assert Path(hpath).read_text() == to_html_report(analysis)
        # atomic writes leave no temp droppings behind
        assert not list(tmp_path.glob(".*tmp"))


# -- the gantt facade -------------------------------------------------------
class TestGantt:
    def test_pipeline_gantt(self, metered):
        chart = gantt(metered[1], width=60)
        assert isinstance(chart, str) and chart

    def test_gantt_from_rehydrated_dict(self, metered):
        chart = gantt(metered[1].to_dict(), width=60)
        assert isinstance(chart, str) and chart

    def test_gantt_rejects_metrics_only(self, metered, tmp_path):
        path = write_metrics_json(metered[1], str(tmp_path / "m.json"))
        with pytest.raises(AnalysisError):
            gantt(path)


# -- CLI surface ------------------------------------------------------------
class TestCLI:
    def test_analyze_text(self, capsys):
        from repro.cli import main

        assert main(["analyze", str(RESULTS_DIR)]) == 0
        out = capsys.readouterr().out
        assert "strategy win/loss" in out
        assert "server-directed" in out

    def test_analyze_html_out(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "report.html"
        assert main(["analyze", str(RESULTS_DIR), "--format", "html",
                     "--out", str(out_file)]) == 0
        assert "Strategy win/loss" in out_file.read_text()

    def test_analyze_nothing_is_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["analyze", str(tmp_path)]) == 2
        assert "nothing to analyze" in capsys.readouterr().err

