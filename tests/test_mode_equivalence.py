"""Compute mode and timing mode produce the same run.

Compute mode moves real numerics through the pipeline; timing mode moves
phantom payloads of the same sizes and charges the same cost model.  The
two must agree exactly on everything except what compute mode alone
produces (``detections``) and what names the mode (``cfg``, ``spec``):
throughput, latency, traces, per-rank traffic and disk statistics are
compared with ``==``, not to a tolerance.  With ``write_reports`` the
sink also writes each CPI's detection reports back to the file system;
at the default false-alarm rate they stay nominal-size, so every cell
is still exactly equal.  The one stated exception is a high
false-alarm rate: compute mode sizes a report by its detections once
they outgrow the nominal size, which timing mode cannot know, so it
writes more report bytes.  The deadline cells add the drop path, and
the data-sieving trim of real bytes in compute mode, to the comparison.
"""

from dataclasses import replace

import pytest

from repro.bench.engine import ExperimentSpec
from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig
from repro.core.pipeline import NodeAssignment
from repro.scenario import ScenarioSpec, TenantSpec
from repro.strategies import get_strategy, strategy_names

#: (machine, file-system kind) pairs: the paper's two platforms.
PLATFORMS = [("paragon", "pfs"), ("sp", "piofs")]

CELLS = [
    (machine, kind, name)
    for machine, kind in PLATFORMS
    for name in strategy_names()
    if get_strategy(name).missing_capability(kind) is None
]

#: Every cell whose strategy honours ``read_deadline``.
DEADLINE_CELLS = [c for c in CELLS if get_strategy(c[2]).supports_read_deadline]

#: Stripe factor and read deadline under which every deadline cell both
#: drops and completes reads (on this assignment 4-14 of the 15 Doppler
#: reads, or 10 of the 12 read-task reads, are dropped).
DEADLINE_SF = 4
DEADLINE_S = 0.05

#: Fields that name the mode or exist in compute mode alone.
_MODE_FIELDS = ("cfg", "spec", "detections")


def _cfg(compute):
    return ExecutionConfig(n_cpis=3, warmup=1, compute=compute)


def _strip(d):
    out = {k: v for k, v in d.items() if k not in _MODE_FIELDS}
    if "tenants" in out:
        out["tenants"] = {
            name: _strip(tenant) for name, tenant in out["tenants"].items()
        }
    return out


def _both_modes(make_spec):
    timing, compute = (make_spec(c).run().to_dict() for c in (False, True))
    return timing, compute


def _cell(params, machine, kind, name, compute, **cfg):
    return ExperimentSpec(
        assignment=NodeAssignment.balanced(params, 20, io_nodes=4),
        pipeline=name, machine=machine, fs=FSConfig(kind, 8), params=params,
        cfg=replace(_cfg(compute), **cfg), seed=7,
    )


def _cell_both_modes(params, machine, kind, name, **cfg):
    return _both_modes(
        lambda c: _cell(params, machine, kind, name, c, **cfg)
    )


def test_cells_cover_every_runnable_strategy():
    assert len(CELLS) == 16


@pytest.mark.parametrize(
    "machine,kind,name", CELLS, ids=[f"{m}-{k}-{n}" for m, k, n in CELLS]
)
def test_cell_modes_equal(small_params, machine, kind, name):
    timing, compute = _cell_both_modes(small_params, machine, kind, name)
    assert compute["detections"]      # the numerics really ran
    assert _strip(compute) == _strip(timing)


@pytest.mark.parametrize(
    "machine,kind,name", CELLS, ids=[f"{m}-{k}-{n}" for m, k, n in CELLS]
)
def test_cell_modes_equal_with_reports(small_params, machine, kind, name):
    timing, compute = _cell_both_modes(small_params, machine, kind, name,
                                       write_reports=True)
    assert compute["detections"]
    assert _strip(compute) == _strip(timing)
    plain = _cell(small_params, machine, kind, name, False).run().to_dict()
    # the reports really were written
    assert (timing["disk_stats"]["bytes_served"]
            > plain["disk_stats"]["bytes_served"])


def test_high_false_alarm_reports_outgrow_nominal_in_compute_mode(
    small_params,
):
    timing, compute = _cell_both_modes(
        replace(small_params, pfa=0.05), "paragon", "pfs", "embedded-io",
        write_reports=True,
    )
    assert (compute["disk_stats"]["bytes_served"]
            > timing["disk_stats"]["bytes_served"])


@pytest.mark.parametrize(
    "machine,kind,name", DEADLINE_CELLS,
    ids=[f"{m}-{k}-{n}" for m, k, n in DEADLINE_CELLS],
)
def test_deadline_cell_modes_equal(small_params, machine, kind, name):
    assignment = NodeAssignment.balanced(small_params, 20, io_nodes=4)
    timing, compute = _both_modes(lambda c: ExperimentSpec(
        assignment=assignment, pipeline=name, machine=machine,
        fs=FSConfig(kind, DEADLINE_SF), params=small_params,
        cfg=replace(_cfg(c), read_deadline=DEADLINE_S), seed=7,
    ))
    readers = assignment.io_nodes if "separate" in name else assignment.doppler
    assert 0 < len(timing["dropped_cpis"]) < readers * 3  # drops and reads
    assert _strip(compute) == _strip(timing)


@pytest.mark.parametrize("machine,kind", PLATFORMS,
                         ids=[f"{m}-{k}" for m, k in PLATFORMS])
def test_two_tenant_scenario_modes_equal(small_params, machine, kind):
    assignment = NodeAssignment.balanced(small_params, 14)
    timing, compute = _both_modes(lambda c: ScenarioSpec(
        tenants=tuple(
            TenantSpec(assignment=assignment, pipeline=pipeline, cfg=_cfg(c))
            for pipeline in ("embedded-io", "separate-io")
        ),
        machine=machine, fs=FSConfig(kind, 8), params=small_params, seed=7,
    ))
    assert len(timing["tenants"]) == 2
    assert all(t["detections"] for t in compute["tenants"].values())
    assert _strip(compute) == _strip(timing)
