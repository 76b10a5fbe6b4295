"""One front door for running experiments: :func:`repro.run`.

The engine's full surface — :class:`~repro.bench.engine.ExperimentSpec`,
:class:`~repro.bench.engine.SweepRunner`,
:class:`~repro.bench.store.ResultStore` — stays available for grids and
sweeps, but the common case is *one cell*: pick a node-assignment case,
a strategy, a file system, and go.  ``repro.run`` covers that in a
single call from a spec, a dict, or plain keyword arguments::

    import repro

    result = repro.run(case=3, pipeline="embedded", stripe_factor=32)
    result = repro.run(case=1, metrics_interval=0.25)   # with metrics
    result = repro.run(my_spec, jobs=1, store="results/cache")

Everything funnels through the same :class:`SweepRunner` path the
sweeps use, so caching semantics, process isolation, and result shapes
are identical whether a cell came from the facade or from a grid.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from repro.bench.engine import ExperimentSpec, SweepRunner
from repro.bench.store import ResultStore
from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, PipelineResult
from repro.core.pipeline import NodeAssignment
from repro.core.serialize import HashedSpec
from repro.errors import ConfigurationError
from repro.stap.params import STAPParams

__all__ = ["run"]

#: kwargs forwarded into ExecutionConfig when no explicit cfg is given.
_CFG_KEYS = (
    "n_cpis", "warmup", "threaded", "read_deadline", "metrics_interval",
)

#: kwargs forwarded into FSConfig when no explicit fs is given.
_FS_KEYS = (
    "stripe_factor", "stripe_unit", "disk_bw", "disk_overhead", "replication",
)


def _build_spec(seed: Optional[int], kwargs: dict) -> ExperimentSpec:
    """An :class:`ExperimentSpec` from facade keyword arguments."""
    params = kwargs.pop("params", None) or STAPParams()
    assignment = kwargs.pop("assignment", None)
    case = kwargs.pop("case", None)
    if assignment is None:
        if case is None:
            raise ConfigurationError(
                "repro.run needs either assignment=NodeAssignment(...) or "
                "case=<paper case number>"
            )
        assignment = NodeAssignment.case(case, params)
    elif case is not None:
        raise ConfigurationError("pass either assignment= or case=, not both")

    cfg = kwargs.pop("cfg", None)
    cfg_kwargs = {k: kwargs.pop(k) for k in _CFG_KEYS if k in kwargs}
    if cfg is None:
        cfg = ExecutionConfig(**cfg_kwargs)
    elif cfg_kwargs:
        cfg = replace(cfg, **cfg_kwargs)

    fs = kwargs.pop("fs", None)
    fs_kwargs = {k: kwargs.pop(k) for k in _FS_KEYS if k in kwargs}
    if fs is None:
        fs = FSConfig(**fs_kwargs)
    elif isinstance(fs, str):
        fs = FSConfig(kind=fs, **fs_kwargs)
    elif fs_kwargs:
        fs = replace(fs, **fs_kwargs)

    spec_kwargs = {
        "assignment": assignment,
        "params": params,
        "cfg": cfg,
        "fs": fs,
    }
    for key in (
        "pipeline", "machine", "disk_fault", "node_fault", "writer",
        "server_crash", "flaky_disk", "screening",
    ):
        if key in kwargs:
            spec_kwargs[key] = kwargs.pop(key)
    if kwargs:
        raise ConfigurationError(
            f"repro.run got unknown arguments: {sorted(kwargs)}"
        )
    if seed is not None:
        spec_kwargs["seed"] = seed
    return ExperimentSpec(**spec_kwargs)


def run(
    spec_or_kwargs: Union[ExperimentSpec, dict, None] = None,
    *,
    jobs: int = 1,
    store: Union[ResultStore, str, None] = None,
    seed: Optional[int] = None,
    scheduler=None,
    **kwargs,
) -> PipelineResult:
    """Run one experiment cell and return its ``PipelineResult``.

    Parameters
    ----------
    spec_or_kwargs:
        A ready :class:`ExperimentSpec`, a
        :class:`~repro.scenario.ScenarioSpec` (the multi-tenant case —
        returns a :class:`~repro.scenario.ScenarioResult`), a dict of
        the keyword arguments below, or None (build the spec purely
        from ``**kwargs``).
    jobs:
        Forwarded to :class:`SweepRunner` — kept for signature symmetry
        with sweeps; a single cell always runs in one process.
    store:
        :class:`ResultStore` or a directory path for one.  With a store,
        a previously-computed identical cell is returned from disk.
    seed:
        Overrides the spec's seed (including on a ready-made spec).
    scheduler:
        A running :class:`~repro.service.ExperimentScheduler` to submit
        the cell to instead of a throwaway :class:`SweepRunner` — the
        cell shares the service's warm workers, in-flight dedupe, and
        cache tier (``jobs`` and ``store`` are then the scheduler's).
    **kwargs:
        Spec fields when building one: ``case`` *or* ``assignment``,
        ``pipeline``, ``machine``, ``params``, ``cfg`` or any of
        ``n_cpis / warmup / threaded / read_deadline /
        metrics_interval``, ``fs`` (an :class:`FSConfig` or a kind
        string) or any of ``stripe_factor / stripe_unit / disk_bw /
        disk_overhead / replication``, the fault-injection fields
        (``disk_fault``, ``node_fault``, ``writer``, ``server_crash``,
        ``flaky_disk``), and ``screening`` (``"off"`` / ``"screen"`` /
        ``"predict-all"``, see :mod:`repro.bench.surrogate`).
    """
    if isinstance(spec_or_kwargs, HashedSpec):
        if kwargs:
            raise ConfigurationError(
                f"pass either a ready {type(spec_or_kwargs).__name__} or "
                f"keyword arguments, not both (got spec plus {sorted(kwargs)})"
            )
        spec = spec_or_kwargs
        if seed is not None and seed != spec.seed:
            spec = replace(spec, seed=seed)
    elif isinstance(spec_or_kwargs, dict):
        merged = {**spec_or_kwargs, **kwargs}
        spec = _build_spec(seed, merged)
    elif spec_or_kwargs is None:
        spec = _build_spec(seed, dict(kwargs))
    else:
        raise ConfigurationError(
            "repro.run takes an ExperimentSpec, a dict, or keyword "
            f"arguments; got {type(spec_or_kwargs).__name__}"
        )
    if scheduler is not None:
        payload = scheduler.submit([spec], client="api").wait()[0]
        return type(spec).RESULT.from_dict(payload)
    if isinstance(store, str):
        store = ResultStore(store)
    with SweepRunner(jobs=jobs, store=store) as runner:
        return runner.run_one(spec)
