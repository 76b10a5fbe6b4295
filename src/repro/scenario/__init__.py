"""Multi-tenant scenarios: N pipelines sharing one machine and PFS.

The scenario layer turns the executor's substrate-and-tenants
architecture (:class:`~repro.core.executor.Substrate` +
:class:`~repro.core.executor.PipelineExecutor`) into a declarative
experiment surface:

* :class:`~repro.scenario.spec.TenantSpec` — one tenant pipeline
  (assignment, pipeline/strategy, execution config with its CPI arrival
  process and read deadline, optional writer load);
* :class:`~repro.scenario.spec.ScenarioSpec` — the shared machine/FS
  plus the tenant list; hashable and serializable like
  :class:`~repro.bench.engine.ExperimentSpec`, and routed through the
  result store, sweep runner, service tier, and :func:`repro.run`;
* :class:`~repro.scenario.executor.ScenarioExecutor` /
  :func:`~repro.scenario.executor.run_scenario` — build one substrate,
  host every tenant on it, drive the shared kernel once, and collect a
  :class:`~repro.scenario.spec.ScenarioResult` (per-tenant pipeline
  results + shared disk statistics + per-tenant byte attribution).

See ``docs/scenarios.md``.
"""

from importlib import import_module

from repro.core.arrivals import ArrivalSpec
from repro.scenario.spec import (
    SCENARIO_SCHEMA,
    ScenarioResult,
    ScenarioSpec,
    TenantSpec,
)

#: The executor, loaded from its module (and the simulator with it) on
#: first use.
_LAZY = {"ScenarioExecutor": "executor", "run_scenario": "executor"}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "ArrivalSpec",
    "ScenarioSpec",
    "TenantSpec",
    "ScenarioResult",
    "ScenarioExecutor",
    "run_scenario",
    "SCENARIO_SCHEMA",
]
