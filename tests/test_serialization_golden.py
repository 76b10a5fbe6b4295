"""Golden result serialization: snake_case keys, and a pinned hash table
of every result shape."""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from repro.bench.cases import BenchCase
from repro.bench.engine import ExperimentSpec, run_spec
from repro.bench.experiments import CellResult, ExperimentResult
from repro.bench.surrogate import SurrogateScreen, predicted_result
from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, PipelineExecutor, PipelineResult
from repro.core.pipeline import NodeAssignment, build_embedded_pipeline
from repro.machine.presets import ibm_sp, paragon
from repro.scenario import ScenarioSpec, TenantSpec, run_scenario
from repro.stap.params import STAPParams

_CAMEL = re.compile(r"[a-z][A-Z]")


@pytest.fixture(scope="module")
def result(request):
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


# -- golden result table ----------------------------------------------------


def _cfg(**kw):
    return ExecutionConfig(n_cpis=3, warmup=1, **kw)


def _cell(**kw):
    """A paper case-1 cell (embedded I/O on the Paragon's PFS unless
    ``kw`` says otherwise), simulated through the engine."""
    kw.setdefault("assignment", NodeAssignment.case(1, STAPParams()))
    kw.setdefault("cfg", _cfg())
    return run_spec(ExperimentSpec(**kw))


def _predicted():
    spec = ExperimentSpec(assignment=NodeAssignment.case(1, STAPParams()),
                          cfg=_cfg())
    return predicted_result(spec, SurrogateScreen().predict(spec))


def _two_tenants():
    case1 = NodeAssignment.case(1, STAPParams())
    return run_scenario(ScenarioSpec(
        tenants=(TenantSpec(case1, cfg=_cfg()),
                 TenantSpec(case1, pipeline="separate-io", cfg=_cfg())),
        fs=FSConfig("pfs", 4),
    ))


def _experiment():
    fs = FSConfig("piofs", 80)
    case = BenchCase(1, 25, NodeAssignment.case(1, STAPParams()), ibm_sp(), fs)
    result = _cell(pipeline="separate-io", machine="sp", fs=fs)
    return ExperimentResult("golden", [CellResult(case, result)],
                            extra={"note": "one cell"})


# SHA-256 of the sorted to_dict() JSON of one result per shape a result
# takes: optional keys present and absent, nested tenant results, the
# experiment wrapper.  A failure means a result's serialized form
# changed, which breaks every published result hash and cache entry.
GOLDEN_RESULTS = {
    "embedded_pfs": (
        _cell,
        "88e5fa0cd24a634a1e82dcf5befc7f31fe456c0d2e725487673783df96bf893d",
    ),
    "separate_io_sp_piofs": (
        lambda: _cell(pipeline="separate-io", machine="sp",
                      fs=FSConfig("piofs", 80)),
        "a6e7a70a4f9176da3f9fb088ed8d6ebdb87e18870bff3340b2ccde984828675b",
    ),
    "read_deadline_drops": (
        lambda: _cell(cfg=_cfg(read_deadline=1e-6)),
        "5e52a4c364af7a9de2a5c4b559550713921856ab79369a6f0511dfa435b072d5",
    ),
    "metrics_interval": (
        lambda: _cell(cfg=_cfg(metrics_interval=0.25)),
        "c8b9face92106e0dd6f75054af26be0374b8ecad25d21133e8c3191f23f7c555",
    ),
    "predicted": (
        _predicted,
        "7d7b91f88b06949792d5d58eb42182eacdf77bb7a0c3d7005bdd4ec45b8781d0",
    ),
    "scenario_two_tenants": (
        _two_tenants,
        "a7d74153af353307a7385ad1351a44b36bf387a85eca8c096f747f442bea3eb6",
    ),
    "experiment_result": (
        _experiment,
        "73c84ef13f4bc3c86c06cfdefe3bd4ab025dd58df9d9230a7853575d60ee79ac",
    ),
}


@pytest.fixture(scope="module")
def golden_results():
    return {name: build() for name, (build, _) in GOLDEN_RESULTS.items()}


def _sha(d):
    return hashlib.sha256(
        json.dumps(d, sort_keys=True).encode("utf-8")).hexdigest()


class TestGoldenResults:
    def test_shapes_are_covered(self, golden_results):
        r = golden_results
        assert r["read_deadline_drops"].dropped_cpis
        assert r["metrics_interval"].metrics is not None
        assert r["predicted"].source == "predicted"
        assert r["predicted"].prediction_bound is not None
        assert set(r["scenario_two_tenants"].tenant_bytes) == {"t0", "t1"}

    @pytest.mark.parametrize("name", sorted(GOLDEN_RESULTS))
    def test_result_hash_pinned(self, golden_results, name):
        assert _sha(golden_results[name].to_dict()) == GOLDEN_RESULTS[name][1]

    @pytest.mark.parametrize("name", sorted(GOLDEN_RESULTS))
    def test_json_round_trip(self, golden_results, name):
        result = golden_results[name]
        d = json.loads(json.dumps(result.to_dict()))
        assert type(result).from_dict(d).to_dict() == d
