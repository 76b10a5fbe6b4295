"""Perf-regression smoke test against the committed baseline.

Runs the cheap sections of the perf suite (kernel micro + one small
pipeline cell) and compares them to ``BENCH_pr18.json`` at the repository
root.  It fails when either

* the function-call count grows more than 20% over the baseline (a
  scheduling-path regression — call counts are deterministic, so this is
  stable across machines), or
* the cell's result hash changes (the optimized kernel stopped being
  bit-identical — a determinism break, which would also invalidate every
  cached experiment result).

Wall-clock times are recorded in the baseline for human comparison but
never asserted on.  Run ``python -m repro.bench.perfsuite --write
BENCH_pr18.json`` to refresh the baseline after an intentional change.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench import perfsuite

BASELINE_PATH = pathlib.Path(__file__).resolve().parents[2] / "BENCH_pr18.json"


@pytest.fixture(scope="module")
def baseline():
    if not BASELINE_PATH.exists():
        pytest.skip(f"no committed baseline at {BASELINE_PATH}")
    return json.loads(BASELINE_PATH.read_text())


def test_smoke_cell_within_baseline(baseline):
    current = {"cell_smoke": perfsuite._SECTIONS["cell_smoke"]()}
    failures = perfsuite.check_against(baseline, current, tolerance=0.20)
    assert not failures, "; ".join(failures)


def test_kernel_ops_within_baseline(baseline):
    current = {"kernel_ops": perfsuite.measure_kernel_ops()}
    failures = perfsuite.check_against(baseline, current, tolerance=0.20)
    assert not failures, "; ".join(failures)


def test_kernel_ops_calendar_within_baseline(baseline):
    current = {
        "kernel_ops_calendar": perfsuite.measure_kernel_ops_calendar()
    }
    failures = perfsuite.check_against(baseline, current, tolerance=0.20)
    assert not failures, "; ".join(failures)
