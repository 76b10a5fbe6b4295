"""The symmetric exporter surface: to_X/write_X pairs, atomic writes."""

from __future__ import annotations

import inspect
import json
import os

import pytest

from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, PipelineExecutor
from repro.core.pipeline import NodeAssignment, build_embedded_pipeline
from repro.errors import ReproError
from repro.machine.presets import paragon
from repro.trace import export


@pytest.fixture(scope="module")
def metered(request):
    from repro.stap.params import STAPParams

    params = STAPParams(
        n_channels=8, n_pulses=32, n_ranges=256, n_beams=6, n_hard_bins=8,
        n_training=64, pulse_len=16, cfar_window=12, cfar_guard=3, pfa=1e-6,
    )
    return PipelineExecutor(
        build_embedded_pipeline(NodeAssignment.balanced(params, 14)),
        params, paragon(), FSConfig("pfs", stripe_factor=8),
        ExecutionConfig(n_cpis=4, warmup=1, metrics_interval=0.25),
    ).run()


PAIRS = [
    ("to_chrome_trace", "write_chrome_trace"),
    ("to_result_json", "write_result_json"),
    ("to_metrics_json", "write_metrics_json"),
    ("to_prometheus", "write_prometheus"),
]


class TestSurfaceSymmetry:
    def test_every_to_has_a_write(self):
        for to_name, write_name in PAIRS:
            assert hasattr(export, to_name)
            assert hasattr(export, write_name)

    def test_writers_share_signature_shape(self):
        for _, write_name in PAIRS:
            sig = inspect.signature(getattr(export, write_name))
            names = list(sig.parameters)
            assert names[0] in ("obj", "result")
            assert names[1] == "path"
            assert "pretty" in sig.parameters
            assert sig.parameters["pretty"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_writers_return_path(self, metered, tmp_path):
        for to_name, write_name in PAIRS:
            path = str(tmp_path / f"{to_name}.out")
            assert getattr(export, write_name)(metered, path) == path
            data = getattr(export, to_name)(metered)
            if isinstance(data, str):
                assert open(path, encoding="utf-8").read() == data
            else:
                assert json.load(open(path, encoding="utf-8")) == json.loads(
                    json.dumps(data)
                )

    def test_atomic_write_leaves_no_temp_droppings(self, metered, tmp_path):
        export.write_metrics_json(metered, str(tmp_path / "m.json"))
        assert os.listdir(tmp_path) == ["m.json"]

    def test_pretty_output_is_indented(self, metered, tmp_path):
        p1 = str(tmp_path / "compact.json")
        p2 = str(tmp_path / "pretty.json")
        export.write_metrics_json(metered, p1)
        export.write_metrics_json(metered, p2, pretty=True)
        compact, pretty = open(p1).read(), open(p2).read()
        assert json.loads(compact) == json.loads(pretty)
        assert len(pretty.splitlines()) > len(compact.splitlines())


class TestChromeTraceMerge:
    def test_accepts_collector_and_result(self, metered):
        from_trace = export.to_chrome_trace(metered.trace)
        from_result = export.to_chrome_trace(metered)
        # The result form appends the metrics counter tracks.
        assert len(from_result) > len(from_trace)
        counters = [e for e in from_result if e["ph"] == "C"]
        assert counters
        metrics_pid = counters[0]["pid"]
        meta = [
            e for e in from_result
            if e["ph"] == "M" and e["pid"] == metrics_pid
        ]
        assert meta[0]["args"]["name"] == "metrics"
        assert all(e["ph"] != "C" for e in from_trace)

    def test_counter_track_values_match_series(self, metered):
        events = export.to_chrome_trace(metered)
        qname, series = sorted(metered.metrics["series"].items())[0]
        track = [e for e in events if e["ph"] == "C" and e["name"] == qname]
        assert [e["args"]["value"] for e in track] == series["v"]
        assert [e["ts"] for e in track] == [t * 1e6 for t in series["t"]]

    def test_rejects_unknown_objects(self):
        with pytest.raises(TypeError, match="TraceCollector"):
            export.to_chrome_trace(42)


class TestMetricsExports:
    def test_metrics_json_requires_metrics(self, metered):
        import dataclasses

        plain = dataclasses.replace(metered, metrics=None)
        with pytest.raises(ReproError, match="no metrics"):
            export.to_metrics_json(plain)

    def test_metrics_json_passes_dict_through(self, metered):
        assert export.to_metrics_json(metered.metrics) is metered.metrics

    def test_prometheus_format(self, metered):
        text = export.to_prometheus(metered)
        lines = text.splitlines()
        assert any(l.startswith("# HELP ") for l in lines)
        assert "# TYPE task_phase_seconds_total counter" in lines
        assert "# TYPE pfs_server_queue_depth gauge" in lines
        assert "# TYPE cpi_latency_seconds histogram" in lines
        # Histogram exposition: cumulative buckets, +Inf, sum and count.
        buckets = [l for l in lines if l.startswith("cpi_latency_seconds_bucket")]
        assert buckets and any('le="+Inf"' in l for l in buckets)
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts)  # cumulative
        assert any(l.startswith("cpi_latency_seconds_sum") for l in lines)
        assert any(l.startswith("cpi_latency_seconds_count") for l in lines)
        # Every sample line parses as "name_or_qname value".
        for line in lines:
            if line.startswith("#"):
                continue
            _, value = line.rsplit(" ", 1)
            float(value)

    def test_type_headers_emitted_once_per_base_name(self, metered):
        text = export.to_prometheus(metered)
        type_lines = [
            l for l in text.splitlines() if l.startswith("# TYPE ")
        ]
        assert len(type_lines) == len(set(type_lines))


class TestDeprecatedShapes:
    def test_no_warning_without_indent(self, metered, tmp_path, recwarn):
        export.write_result_json(metered, str(tmp_path / "r.json"))
        assert not [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]
