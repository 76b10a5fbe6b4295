"""Import budget: timing mode never loads numpy or scipy.

Timing-mode cells use phantom payloads and cost models, so they never
touch an array or solve a linear system.  numpy is imported on first use
by the compute-mode branches and the STAP numerics, and scipy (with
what it drags in, such as ``numpy.f2py``) only inside the compute-mode
solvers.  The check runs in a fresh interpreter, because this test
process has already imported both through other test modules.
"""

import os
import subprocess
import sys
import textwrap

import repro

_PROBE = textwrap.dedent("""
    import sys
    import tempfile

    import repro
    import repro.analysis
    import repro.bench.engine
    import repro.cli
    import repro.service.server
    import repro.stap
    from repro.analysis import analyze_sweep
    from repro.bench.engine import ExperimentSpec, run_spec
    from repro.bench.store import ResultStore
    from repro.core.context import ExecutionConfig
    from repro.core.executor import FSConfig, PipelineResult
    from repro.core.pipeline import NodeAssignment
    from repro.scenario import ScenarioResult, ScenarioSpec, TenantSpec, run_scenario
    from repro.service import ExperimentScheduler
    from repro.stap.params import STAPParams, tiny_params

    def loaded(package):
        return sorted(m for m in sys.modules if m.split(".")[0] == package)

    params = STAPParams(
        n_channels=4, n_pulses=16, n_ranges=128, n_beams=4, n_hard_bins=4,
        n_training=32, pulse_len=8, cfar_window=8, cfar_guard=2,
    )
    spec = ExperimentSpec(
        assignment=NodeAssignment.balanced(params, 14),
        fs=FSConfig("pfs", 8),
        params=params,
        cfg=ExecutionConfig(n_cpis=2, warmup=0),
    )
    assert not spec.cfg.compute
    result = run_spec(spec)
    assert result.throughput > 0
    assert not loaded("scipy"), loaded("scipy")

    tenant = NodeAssignment.balanced(params, 14)
    duo = ScenarioSpec(
        tenants=(TenantSpec(tenant, name="a", cfg=ExecutionConfig(n_cpis=2, warmup=0)),
                 TenantSpec(tenant, name="b", cfg=ExecutionConfig(n_cpis=2, warmup=0))),
        fs=FSConfig("pfs", 8),
        params=params,
    )
    duo_result = run_scenario(duo)
    assert sorted(duo_result.tenants) == ["a", "b"]

    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        store.put(spec, result)
        store.put(duo, duo_result)
        assert store.get(spec).to_dict() == result.to_dict()
        assert store.get(duo).to_dict() == duo_result.to_dict()
        assert PipelineResult.from_dict(result.to_dict()).to_dict() == result.to_dict()
        assert (ScenarioResult.from_dict(duo_result.to_dict()).to_dict()
                == duo_result.to_dict())
        analysis = analyze_sweep(store)
        assert len(analysis["cells"]) >= 2, analysis.get("errors")

        with ExperimentScheduler(workers=0, store=ResultStore(root)) as scheduler:
            other = ExperimentSpec(
                assignment=spec.assignment, fs=FSConfig("pfs", 16),
                params=params, cfg=spec.cfg,
            )
            (out,) = scheduler.submit([other]).wait(timeout=60)
            assert PipelineResult.from_dict(out).throughput > 0
    assert not loaded("numpy"), loaded("numpy")

    compute = ExperimentSpec(
        assignment=NodeAssignment.balanced(tiny_params(), 14),
        fs=FSConfig("pfs", 8),
        params=tiny_params(),
        cfg=ExecutionConfig(n_cpis=2, warmup=0, compute=True),
        seed=3,
    )
    assert run_spec(compute).throughput > 0
    assert "numpy" in sys.modules

    for package in (repro, repro.stap):
        for name in package.__all__:
            assert getattr(package, name) is not None, name
            assert name in dir(package), name

    import numpy as np
    from repro.stap.weights import mvdr_from_covariance

    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    R = X @ X.conj().T / 16
    v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    w = mvdr_from_covariance(R, v, 0.01)
    assert "scipy" in sys.modules

    import scipy.linalg as sla

    load = 0.01 * (np.real(np.trace(R)) / 4 + 1e-12)
    cho = sla.cho_factor(R + load * np.eye(4, dtype=R.dtype), lower=True,
                         check_finite=False)
    Rinv_v = sla.cho_solve(cho, v, check_finite=False)
    denom = np.sum(v.conj() * Rinv_v, axis=0)
    expected = (Rinv_v / denom[None, :]).astype(np.complex64)
    assert np.array_equal(w, expected)
    print("import budget ok")
""")


def test_timing_mode_never_imports_numpy_or_scipy():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "import budget ok" in proc.stdout
