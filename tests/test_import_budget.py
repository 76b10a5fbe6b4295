"""Import budget: timing mode never loads scipy.

Timing-mode cells use phantom payloads and cost models, so they never
solve a linear system; scipy (and what it drags in, such as
``numpy.f2py``) is imported only inside the compute-mode solvers.  The
check runs in a fresh interpreter, because this test process may already
have imported scipy through another test module.
"""

import os
import subprocess
import sys
import textwrap

import repro

_PROBE = textwrap.dedent("""
    import sys

    import repro
    import repro.analysis
    import repro.bench.engine
    import repro.cli
    import repro.service.server
    from repro.bench.engine import ExperimentSpec, run_spec
    from repro.core.context import ExecutionConfig
    from repro.core.executor import FSConfig
    from repro.core.pipeline import NodeAssignment
    from repro.stap.params import STAPParams

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
    assert run_spec(spec).throughput > 0
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, loaded

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


def test_timing_mode_never_imports_scipy():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "import budget ok" in proc.stdout
