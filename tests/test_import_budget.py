"""Import budgets: what set-up and timing mode must not load.

Timing-mode cells use phantom payloads and cost models, so they never
touch an array or solve a linear system.  numpy is imported on first use
by the compute-mode branches and the STAP numerics, and scipy (with
what it drags in, such as ``numpy.f2py``) only inside the compute-mode
solvers.

Set-up simulates nothing, so it loads no simulator: importing the
package, the CLI, the analyzer, the engine, the store and the service,
building specs, starting an inline scheduler, rehydrating and storing
results and analyzing a store import none of the engine modules.  The
first cell run loads them.

Each check runs in a fresh interpreter, because this test process has
already imported all of it through other test modules.
"""

import json
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


#: The simulator: set-up must import none of these (packages include
#: their submodules), and running one cell imports all of them.
ENGINE = (
    "repro.sim", "repro.mpi", "repro.pfs", "repro.io",
    "repro.machine.network", "repro.machine.mesh",
    "repro.machine.multistage", "repro.machine.machine",
    "repro.core.bodies", "repro.core.stages", "repro.core.validate",
    "repro.strategies.readers", "repro.scenario.executor",
    "repro.obs.sampler", "repro.obs.instrument", "repro.trace.gantt",
)

_BOUNDARY_PROBE = textwrap.dedent("""
    import json
    import sys
    import tempfile

    ENGINE, cell_path, scenario_path = json.loads(sys.argv[1])

    def engine_loaded():
        return sorted(m for m in sys.modules
                      if any(m == e or m.startswith(e + ".") for e in ENGINE))

    import repro
    import repro.analysis
    import repro.bench.engine
    import repro.bench.store
    import repro.cli
    import repro.service.scheduler
    import repro.service.server
    from repro.analysis import analyze_sweep
    from repro.bench.cases import paper_cases
    from repro.bench.engine import ExperimentSpec, spec_from_dict
    from repro.bench.store import ResultStore
    from repro.core.context import ExecutionConfig
    from repro.core.executor import FSConfig, PipelineResult
    from repro.core.pipeline import NodeAssignment
    from repro.scenario import ScenarioResult, ScenarioSpec, TenantSpec
    from repro.service.scheduler import ExperimentScheduler
    from repro.stap.params import STAPParams
    from repro.strategies import strategy_names

    assert not engine_loaded(), engine_loaded()

    # The specs the benchmark workloads build: the paper grid, every
    # registered strategy on PFS and PIOFS, and shared-PFS scenarios.
    names = strategy_names()
    params = STAPParams()
    cfg = ExecutionConfig(n_cpis=8, warmup=2)
    specs = [ExperimentSpec.for_case(p, case, params, cfg)
             for p in ("embedded", "separate", "combined")
             for case in paper_cases(params)]
    a = NodeAssignment.case(1, params)
    specs += [ExperimentSpec(assignment=a, pipeline=name, params=params,
                             fs=FSConfig(kind, 4), cfg=cfg)
              for name in names for kind in ("pfs", "piofs")]
    specs.append(ScenarioSpec(
        tenants=tuple(TenantSpec(assignment=a, pipeline=p, cfg=cfg, name=p)
                      for p in ("embedded-io", "separate-io")),
        fs=FSConfig("pfs", 4), params=params,
    ))
    assert len({s.spec_hash() for s in specs}) == len(specs)
    assert not engine_loaded(), engine_loaded()

    with open(cell_path) as f:
        cell_spec, cell = json.load(f)
    with open(scenario_path) as f:
        scenario_spec, scenario = json.load(f)
    cell_spec = spec_from_dict(cell_spec)
    scenario_spec = spec_from_dict(scenario_spec)
    with tempfile.TemporaryDirectory() as root:
        with ExperimentScheduler(workers=0, store=ResultStore(root)):
            pass
        store = ResultStore(root)
        assert PipelineResult.from_dict(cell).to_dict() == cell
        assert ScenarioResult.from_dict(scenario).to_dict() == scenario
        store.put_dict(cell_spec, cell)
        store.put_dict(scenario_spec, scenario)
        assert store.get(cell_spec).to_dict() == cell
        assert store.get(scenario_spec).to_dict() == scenario
        analysis = analyze_sweep(store)
        assert not analysis["sources"]["errors"], analysis["sources"]
        assert analysis["counts"]["cells"] == 3    # the cell and 2 tenants
    assert not engine_loaded(), engine_loaded()

    # A process worker loads the simulator when it starts, before its
    # first task, although its parent holds none of it.
    from repro.service.pool import ProcessPool
    from repro.service.testing import MODULES_RUNNER

    pool = ProcessPool(1)
    try:
        pool.submit("t", MODULES_RUNNER, {"prefix": "repro."})
        events = []
        while not events:
            events = pool.poll(timeout=30)
    finally:
        pool.shutdown()
    (event,) = events
    assert event.kind == "done", event
    missing = [e for e in ENGINE if e not in event.result.data["modules"]]
    assert not missing, missing
    assert not engine_loaded(), engine_loaded()

    # The first cell run loads the simulator, and the registry is the
    # same before and after it.
    assert scenario_spec.run().to_dict() == scenario
    missing = [e for e in ENGINE if e not in sys.modules]
    assert not missing, missing
    assert strategy_names() == names

    import repro.bench
    import repro.core
    import repro.machine
    import repro.obs
    import repro.scenario
    import repro.strategies
    import repro.trace

    for package in (repro, repro.core, repro.bench, repro.machine, repro.obs,
                    repro.scenario, repro.strategies, repro.trace):
        for name in package.__all__:
            assert getattr(package, name) is not None, name
            assert name in dir(package), name
    print("boundary ok")
""")


#: What ``repro jobs --help``, a client that only talks TCP, must not load.
SPEC_LAYER = (
    "repro.bench.engine", "repro.bench.store", "repro.core.executor",
    "repro.machine.presets", "repro.strategies", "repro.analysis",
)

_CLI_PROBE = textwrap.dedent("""
    import contextlib
    import io
    import json
    import sys

    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main(["jobs", "--help"])
        except SystemExit as exc:
            assert exc.code == 0, exc.code
    assert out.getvalue().startswith("usage: repro jobs"), out.getvalue()
    banned = json.loads(sys.argv[1])
    loaded = sorted(m for m in sys.modules
                    if any(m == b or m.startswith(b + ".") for b in banned))
    assert not loaded, loaded
    print("cli ok")
""")


def _run_probe(code, *args):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True,
        text=True, timeout=120,
    )


def test_timing_mode_never_imports_numpy_or_scipy():
    proc = _run_probe(_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert "import budget ok" in proc.stdout


def test_setup_imports_no_simulator(tmp_path, tiny_params):
    from repro.bench.engine import ExperimentSpec
    from repro.core.context import ExecutionConfig
    from repro.core.executor import FSConfig
    from repro.core.pipeline import NodeAssignment
    from repro.scenario import ScenarioSpec, TenantSpec

    cfg = ExecutionConfig(n_cpis=2, warmup=0)
    a = NodeAssignment.balanced(tiny_params, 14)
    cell = ExperimentSpec(assignment=a, fs=FSConfig("pfs", 8),
                          params=tiny_params, cfg=cfg)
    scenario = ScenarioSpec(
        tenants=(TenantSpec(a, name="a", cfg=cfg),
                 TenantSpec(a, name="b", cfg=cfg)),
        fs=FSConfig("pfs", 8), params=tiny_params,
    )
    paths = []
    for name, spec in (("cell", cell), ("scenario", scenario)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps([spec.to_dict(), spec.run().to_dict()]))
        paths.append(str(path))
    proc = _run_probe(_BOUNDARY_PROBE, json.dumps([ENGINE, *paths]))
    assert proc.returncode == 0, proc.stderr
    assert "boundary ok" in proc.stdout


def test_client_cli_loads_no_spec_layer():
    proc = _run_probe(_CLI_PROBE, json.dumps(SPEC_LAYER))
    assert proc.returncode == 0, proc.stderr
    assert "cli ok" in proc.stdout
