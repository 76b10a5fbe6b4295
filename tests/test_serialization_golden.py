"""Golden serialization-key convention: results serialize to snake_case."""

from __future__ import annotations

import json
import re

import pytest

from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, PipelineExecutor, PipelineResult
from repro.core.pipeline import NodeAssignment, build_embedded_pipeline
from repro.machine.presets import paragon

_CAMEL = re.compile(r"[a-z][A-Z]")


@pytest.fixture(scope="module")
def result(request):
    from repro.stap.params import STAPParams

    params = STAPParams(
        n_channels=8, n_pulses=32, n_ranges=256, n_beams=6, n_hard_bins=8,
        n_training=64, pulse_len=16, cfar_window=12, cfar_guard=3, pfa=1e-6,
    )
    return PipelineExecutor(
        build_embedded_pipeline(NodeAssignment.balanced(params, 14)),
        params, paragon(), FSConfig("pfs", stripe_factor=8),
        ExecutionConfig(n_cpis=3, warmup=1, metrics_interval=0.5),
    ).run()


def _all_keys(obj, out=None):
    if out is None:
        out = set()
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(k, str):
                out.add(k)
            _all_keys(v, out)
    elif isinstance(obj, list):
        for v in obj:
            _all_keys(v, out)
    return out


class TestGoldenKeys:
    def test_result_dict_is_pure_snake_case(self, result):
        d = result.to_dict()
        # The metrics artifact holds qualified instrument names
        # (name{label="v"}), not struct keys — exempt from the rule.
        d.pop("metrics", None)
        offenders = {
            k for k in _all_keys(d)
            if _CAMEL.search(k) and "->" not in k
        }
        assert offenders == set()

    def test_round_trip_preserves_every_key(self, result):
        d = json.loads(json.dumps(result.to_dict()))
        clone = PipelineResult.from_dict(d)
        assert clone.to_dict() == result.to_dict()

