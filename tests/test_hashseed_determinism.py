"""Result hashes do not depend on ``PYTHONHASHSEED``.

The result store treats a cell as a pure function of its spec, so a
result must not depend on the order of a ``set`` or of a ``dict`` built
from one.  String hashing is randomised per interpreter, so such an
order changes only between processes: the check runs one timing-mode
cell and one two-tenant scenario in fresh interpreters under several
hash seeds and compares the result hashes.
"""

import os
import subprocess
import sys
import textwrap

import repro

_PROBE = textwrap.dedent("""
    import hashlib
    import json

    from repro.bench.engine import ExperimentSpec, run_spec
    from repro.core.context import ExecutionConfig
    from repro.core.executor import FSConfig
    from repro.core.pipeline import NodeAssignment
    from repro.scenario import ScenarioSpec, TenantSpec, run_scenario
    from repro.stap.params import STAPParams

    def digest(result):
        text = json.dumps(result.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    params = STAPParams(
        n_channels=4, n_pulses=16, n_ranges=128, n_beams=4, n_hard_bins=4,
        n_training=32, pulse_len=8, cfar_window=8, cfar_guard=2,
    )
    cfg = ExecutionConfig(n_cpis=3, warmup=1)
    assignment = NodeAssignment.balanced(params, 14)
    cell = ExperimentSpec(assignment=assignment, fs=FSConfig("pfs", 8),
                          params=params, cfg=cfg)
    duo = ScenarioSpec(
        tenants=tuple(
            TenantSpec(assignment=assignment, pipeline=pipeline, cfg=cfg)
            for pipeline in ("embedded-io", "separate-io")
        ),
        fs=FSConfig("pfs", 8),
        params=params,
    )
    print(digest(run_spec(cell)), digest(run_scenario(duo)))
""")


def _hashes(seed: str) -> str:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_result_hashes_independent_of_hash_seed():
    by_seed = {seed: _hashes(seed) for seed in ("0", "1", "12345")}
    assert len(set(by_seed.values())) == 1, by_seed
