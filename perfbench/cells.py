"""The cell mixes of the three workloads, and their pinned result hashes.

Spec contents are fixed: the workload seed only reorders cells (and
places duplicates), so one pinned hash per spec holds for every seed.
Everything here builds plain program inputs through public
constructors; nothing is simulated at import time.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

#: A copy of the repository's ``results/`` directory as it stood when the
#: hashes were pinned.  The service workload analyzes this copy beside
#: its store, so new committed artifacts change neither the analyzer's
#: pinned ``counts`` nor the work it does.
ARTIFACTS_DIR = os.path.join(HERE, "artifacts")

#: Workload names, in the order BENCHMARK.json lists them.
WORKLOADS = ("paper-grid", "io-stress", "service-roundtrip")

#: Strategies whose readers need an async file system or list I/O,
#: so they are not built on PIOFS.
_PFS_ONLY = ("embedded-prefetch2", "list-io")


def result_hash(result_dict: dict) -> str:
    """SHA-256 of the sorted ``to_dict()`` JSON, as ``perfsuite`` computes it."""
    return hashlib.sha256(
        json.dumps(result_dict, sort_keys=True).encode("utf-8")
    ).hexdigest()


def paper_grid() -> list:
    """The 27 cold cells of the paper reproduction: tables 1-3 over the
    3 x 3 (file system x case) grid; table 4 and figure 8 reuse them."""
    from repro.bench.cases import paper_cases
    from repro.bench.engine import ExperimentSpec
    from repro.core.context import ExecutionConfig
    from repro.stap.params import STAPParams

    params = STAPParams()
    cfg = ExecutionConfig(n_cpis=8, warmup=2)
    return [
        ExperimentSpec.for_case(pipeline, case, params, cfg)
        for pipeline in ("embedded", "separate", "combined")
        for case in paper_cases(params)
    ]


def _case1(pipeline: str, kind: str, sf: int, cfg, replication: int = 1,
           **extra):
    from repro.bench.engine import ExperimentSpec
    from repro.core.executor import FSConfig
    from repro.core.pipeline import NodeAssignment
    from repro.stap.params import STAPParams

    params = STAPParams()
    return ExperimentSpec(
        assignment=NodeAssignment.case(1, params),
        pipeline=pipeline,
        machine="paragon",
        fs=FSConfig(kind=kind, stripe_factor=sf, replication=replication),
        params=params,
        cfg=cfg,
        seed=0,
        **extra,
    )


def _strategy_grid(cfg, stripe_factors, piofs_stripe_factors) -> list:
    from repro.strategies import strategy_names

    specs = []
    for name in strategy_names():
        specs += [_case1(name, "pfs", sf, cfg) for sf in stripe_factors]
        if name not in _PFS_ONLY:
            specs += [_case1(name, "piofs", sf, cfg) for sf in piofs_stripe_factors]
    return specs


#: Sim-time constants of the io-stress fault cells.  The healthy
#: embedded-io case-1 PFS sf=4 cell beats at ~1.03 s per CPI and spans
#: ~21 s at 16 CPIs; the crash lands about a third of the way in.
_BEAT_S = 1.0346
_CRASH_AT_S = 7.0


def io_stress() -> list:
    """Disk-bound, shared and faulted cells (case 1, 16 CPIs).

    Every registered strategy on PFS sf=2 and sf=4, plus PIOFS sf=4
    where the strategy can run on it; a permanent server crash under
    ``replication=2``; a flaky disk; a concurrent radar writer; a
    metered twin of the embedded-io sf=4 cell; and 2- and 4-tenant
    shared-PFS scenarios (the 4-tenant one drops CPIs at a deadline).
    """
    from repro.bench.engine import FlakyDisk, ServerCrash, WriterLoad
    from repro.core.context import ExecutionConfig
    from repro.core.executor import FSConfig
    from repro.core.pipeline import NodeAssignment
    from repro.scenario import ScenarioSpec, TenantSpec
    from repro.stap.params import STAPParams

    cfg = ExecutionConfig(n_cpis=16, warmup=2)
    specs = _strategy_grid(cfg, (2, 4), (4,))
    specs += [
        _case1("embedded-io", "pfs", 4, cfg, replication=2,
               server_crash=ServerCrash(server=0, at_time=_CRASH_AT_S)),
        _case1("embedded-io", "pfs", 4, cfg,
               flaky_disk=FlakyDisk(server=0, error_rate=0.05, seed=0)),
        _case1("embedded-io", "pfs", 4, cfg,
               writer=WriterLoad(period=_BEAT_S, n_cpis=16, start_cpi=16,
                                 initial_delay=_BEAT_S / 2)),
        _case1("embedded-io", "pfs", 4, replace(cfg, metrics_interval=0.25)),
    ]
    params = STAPParams()
    a = NodeAssignment.case(1, params)
    mix = ("embedded-io", "separate-io")
    for n, deadline in ((2, None), (4, 4 * _BEAT_S)):
        tenant_cfg = replace(cfg, read_deadline=deadline)
        specs.append(ScenarioSpec(
            tenants=tuple(
                TenantSpec(assignment=a, pipeline=mix[i % 2], cfg=tenant_cfg,
                           name=f"t{i}")
                for i in range(n)
            ),
            machine="paragon",
            fs=FSConfig(kind="pfs", stripe_factor=4),
            params=params,
            seed=0,
        ))
    return specs


def metered_pair(specs: list) -> tuple:
    """(metered cell, its plain twin) within an io-stress cell list."""
    metered = next(s for s in specs if getattr(s, "cfg", None) is not None
                   and s.cfg.metrics_interval is not None)
    plain = replace(metered, cfg=replace(metered.cfg, metrics_interval=None))
    assert plain in specs, "the metered cell's plain twin must be in the mix"
    return metered, plain


def service_cold() -> list:
    """96 distinct small cells (case 1, 4 CPIs): every strategy on PFS
    at six stripe factors, and on PIOFS where it can run."""
    from repro.core.context import ExecutionConfig

    sfs = (2, 4, 8, 16, 32, 64)
    return _strategy_grid(ExecutionConfig(n_cpis=4, warmup=1), sfs, sfs)


def service_dedupe() -> list:
    """18 further distinct small cells (3 CPIs), each submitted twice in
    the duplicate batch; disjoint from :func:`service_cold`."""
    from repro.core.context import ExecutionConfig

    return _strategy_grid(ExecutionConfig(n_cpis=3, warmup=1), (4, 16), ())


def workload_cells(name: str, quick: bool = False) -> Dict[str, list]:
    """Named cell groups of one workload.

    ``quick`` keeps a few cells of each group (the self-test's reduced
    size): the first two and the last, which in io-stress is the
    4-tenant scenario.
    """
    if name == "paper-grid":
        groups = {"cold": paper_grid()}
    elif name == "io-stress":
        groups = {"cold": io_stress()}
    elif name == "service-roundtrip":
        groups = {"cold": service_cold(), "dedupe": service_dedupe()}
    else:
        raise KeyError(name)
    if quick:
        groups = {g: specs[:2] + specs[-1:] for g, specs in groups.items()}
    return groups


def all_specs(name: str) -> List:
    return [s for group in workload_cells(name).values() for s in group]


def load_pins(path: str = PINS_PATH) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)
