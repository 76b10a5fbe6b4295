"""Tests for the declarative spec grid: ``grid()`` and ``sweep()``."""

from dataclasses import replace

import pytest

from repro.bench.engine import DiskFault, ExperimentSpec, FlakyDisk
from repro.bench.experiments import grid, sweep
from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig
from repro.core.pipeline import NodeAssignment
from repro.errors import ConfigurationError
from repro.scenario import ScenarioSpec, TenantSpec
from repro.strategies import get_strategy

FAST = ExecutionConfig(n_cpis=2, warmup=0)


@pytest.fixture
def base(small_params):
    return ExperimentSpec(
        assignment=NodeAssignment.balanced(small_params, 14),
        fs=FSConfig(kind="pfs", stripe_factor=8),
        params=small_params,
        cfg=FAST,
    )


class TestKeys:
    def test_one_axis_uses_bare_keys(self, base):
        cells = grid(base, {"fs.stripe_factor": (4, 16, 64)})
        assert list(cells) == [4, 16, 64]
        assert [s.fs.stripe_factor for s in cells.values()] == [4, 16, 64]

    def test_first_axis_outermost(self, base):
        cells = grid(base, {
            "pipeline": ("embedded-io", "list-io"),
            "fs.stripe_factor": (4, 16),
            "seed": (0, 1),
        })
        assert list(cells) == [
            (p, sf, seed)
            for p in ("embedded-io", "list-io")
            for sf in (4, 16)
            for seed in (0, 1)
        ]
        spec = cells[("list-io", 16, 1)]
        assert (spec.pipeline, spec.fs.stripe_factor, spec.seed) == (
            "list-io", 16, 1
        )

    def test_cells_equal_hand_built_specs(self, base):
        cells = grid(base, {"pipeline": ("embedded", "combined"),
                            "fs.kind": ("pfs", "piofs")})
        for (pipeline, kind), spec in cells.items():
            by_hand = ExperimentSpec(
                assignment=base.assignment, pipeline=pipeline,
                fs=FSConfig(kind=kind, stripe_factor=8),
                params=base.params, cfg=FAST,
            )
            assert spec == by_hand
            assert spec.spec_hash() == by_hand.spec_hash()

    def test_no_axes_is_the_base_under_the_empty_key(self, base):
        assert grid(base, {}) == {(): base}


class TestPaths:
    def test_nested_frozen_dataclasses(self, base):
        spec = replace(base, disk_fault=DiskFault(server=2))
        cells = grid(spec, {"disk_fault.slow_factor": (1.0, 4.0),
                            "cfg.metrics_interval": (None, 0.25)})
        cell = cells[(4.0, 0.25)]
        assert cell.disk_fault == DiskFault(server=2, slow_factor=4.0)
        assert cell.cfg == replace(FAST, metrics_interval=0.25)
        assert spec.disk_fault.slow_factor == 1.0  # base untouched

    def test_mapping_axis_stores_values_under_keys(self, base):
        flaky = {0.0: None, 0.2: FlakyDisk(server=0, error_rate=0.2)}
        cells = grid(base, {"fs.replication": (1, 2), "flaky_disk": flaky})
        assert list(cells) == [(1, 0.0), (1, 0.2), (2, 0.0), (2, 0.2)]
        assert cells[(2, 0.0)].flaky_disk is None
        assert cells[(2, 0.2)].flaky_disk.error_rate == 0.2
        assert cells[(2, 0.2)].fs.replication == 2

    def test_mapping_axis_for_assignment(self, base, small_params):
        cells = grid(base, {"assignment": {
            n: NodeAssignment.balanced(small_params, n) for n in (14, 20)
        }})
        assert list(cells) == [14, 20]
        assert cells[20].assignment == NodeAssignment.balanced(small_params, 20)

    @pytest.mark.parametrize("path", ["fs.stripe_count", "bogus",
                                      "seed.value", "disk_fault.slow_factor"])
    def test_unknown_path_names_the_path(self, base, path):
        with pytest.raises(ConfigurationError, match=path.replace(".", r"\.")):
            grid(base, {path: (1, 2)})

    def test_unknown_path_raises_even_for_an_empty_axis(self, base):
        with pytest.raises(ConfigurationError, match="fs.nope"):
            grid(base, {"fs.nope": ()})

    def test_cells_validate_like_hand_built_specs(self, base):
        with pytest.raises(ConfigurationError, match="unknown pipeline"):
            grid(base, {"pipeline": ("embedded-io", "no-such-strategy")})


class TestWhere:
    def test_where_drops_cells_and_keeps_order(self, base):
        cells = grid(
            base,
            {"pipeline": ("embedded-io", "list-io"),
             "fs.kind": ("pfs", "piofs")},
            where=lambda s: not get_strategy(s.pipeline).missing_capability(
                s.fs.kind
            ),
        )
        assert list(cells) == [("embedded-io", "pfs"), ("embedded-io", "piofs"),
                               ("list-io", "pfs")]


class TestScenarioBase:
    def test_scenario_spec_base(self, small_params):
        a = NodeAssignment.balanced(small_params, 14)

        def tenants(names):
            return tuple(TenantSpec(assignment=a, pipeline=n, cfg=FAST)
                         for n in names)

        base = ScenarioSpec(tenants=tenants(("embedded-io",)),
                            fs=FSConfig(kind="pfs", stripe_factor=4),
                            params=small_params)
        cells = grid(base, {
            "fs.stripe_factor": (4, 16),
            "tenants": {n: tenants(("embedded-io",) * n) for n in (1, 2)},
        })
        assert list(cells) == [(4, 1), (4, 2), (16, 1), (16, 2)]
        cell = cells[(16, 2)]
        assert isinstance(cell, ScenarioSpec)
        assert cell.fs.stripe_factor == 16 and len(cell.tenants) == 2
        assert cells[(4, 1)].spec_hash() == base.spec_hash()


class TestSweep:
    def test_sweep_runs_one_batch_keyed_like_grid(self, base):
        class Recorder:
            def __init__(self):
                self.calls = []

            def run(self, specs):
                self.calls.append(list(specs))
                return [s.fs.stripe_factor * 10 for s in specs]

        runner = Recorder()
        out = sweep(base, {"fs.stripe_factor": (4, 16)}, runner,
                    where=lambda s: s.fs.stripe_factor > 4)
        assert out == {16: 160}
        assert len(runner.calls) == 1
        assert [s.fs.stripe_factor for s in runner.calls[0]] == [16]

    def test_sweep_simulates(self, base):
        out = sweep(base, {"pipeline": ("embedded-io", "separate-io")})
        assert list(out) == ["embedded-io", "separate-io"]
        assert all(r.throughput > 0 for r in out.values())
