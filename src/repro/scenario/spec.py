"""Declarative multi-tenant scenario specs.

A :class:`ScenarioSpec` is to a shared machine what an
:class:`~repro.bench.engine.ExperimentSpec` is to a dedicated one: a
pure value — hashable, serializable, sufficient to reproduce the run
bit-for-bit — describing N tenant pipelines contending for ONE parallel
file system and mesh.  Each :class:`TenantSpec` entry carries the
tenant's node assignment, pipeline/strategy, execution config (including
its CPI arrival process and read deadline), and an optional concurrent
writer load.

Scenario specs flow through the same plumbing as experiment specs: the
:class:`~repro.bench.store.ResultStore` (content-addressed on
:meth:`ScenarioSpec.spec_hash`), the
:class:`~repro.bench.engine.SweepRunner`, the service tier and its TCP
front end (:func:`~repro.bench.engine.spec_from_dict` reads the
``"kind": "scenario"`` marker), and :func:`repro.run`.  The spec names
its result class (:attr:`ScenarioSpec.RESULT`) and runs itself
(:meth:`ScenarioSpec.run`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.bench.engine import MACHINES, PIPELINES, WriterLoad
from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, PipelineResult
from repro.core.pipeline import NodeAssignment, PipelineSpec
from repro.core.serialize import Codec, HashedSpec, from_dict, sparse, to_dict
from repro.errors import ConfigurationError
from repro.stap.params import STAPParams

__all__ = [
    "TenantSpec",
    "ScenarioSpec",
    "ScenarioResult",
    "SCENARIO_SCHEMA",
]

#: Bump when the canonical scenario serialization changes shape.
SCENARIO_SCHEMA = 1


@dataclass(frozen=True)
class TenantSpec(Codec):
    """One tenant pipeline inside a scenario.

    The tenant brings its own node assignment, pipeline (a
    :data:`~repro.bench.engine.PIPELINES` registry name), and execution
    config — n_cpis, arrival process, read deadline, threading — while
    the scenario supplies the shared machine, file system, and STAP
    parameters.
    """

    assignment: NodeAssignment
    pipeline: str = "embedded-io"
    cfg: ExecutionConfig = field(default_factory=ExecutionConfig)
    name: str = sparse("")
    writer: Optional[WriterLoad] = sparse(None)

    def __post_init__(self) -> None:
        if self.pipeline not in PIPELINES:
            raise ConfigurationError(
                f"unknown pipeline {self.pipeline!r}; "
                f"choose from {sorted(PIPELINES)}"
            )

    def build_pipeline(self) -> PipelineSpec:
        """Instantiate the named pipeline on this tenant's assignment."""
        return PIPELINES.resolve(self.pipeline)(self.assignment)


@dataclass
class ScenarioResult(Codec):
    """Everything a scenario run produced: one result per tenant plus
    the shared-substrate statistics no single tenant owns.  Its dict
    carries its spec's ``"kind": "scenario"`` marker."""

    KIND = "scenario"

    spec: ScenarioSpec
    #: Tenant name -> that pipeline's result (no per-tenant disk_stats
    #: or metrics — the substrate is shared; see below).
    tenants: Dict[str, PipelineResult]
    elapsed_sim_time: float
    #: Shared stripe-server statistics (same shape as a standalone
    #: result's ``disk_stats``): the whole machine's disk traffic.
    disk_stats: Optional[dict] = None
    #: Tenant name -> bytes that tenant requested against its own files
    #: — the per-tenant attribution of the shared disk traffic.
    tenant_bytes: Optional[Dict[str, int]] = sparse(None)
    #: Scenario-level metrics artifact (tenant-labeled instruments in
    #: one registry); None unless ``spec.metrics_interval`` was set.
    metrics: Optional[dict] = sparse(None)
    source: str = sparse("simulated")

    # -- aggregate queries -------------------------------------------------
    def throughputs(self) -> Dict[str, float]:
        """Tenant name -> steady-state throughput (CPIs/s)."""
        return {name: r.throughput for name, r in self.tenants.items()}

    def latencies(self) -> Dict[str, float]:
        """Tenant name -> mean steady-state latency (s)."""
        return {name: r.latency for name, r in self.tenants.items()}

    def drops(self) -> Dict[str, int]:
        """Tenant name -> CPIs dropped at its read deadline (0 if none
        was configured)."""
        return {
            name: len(r.dropped_cpis or ())
            for name, r in self.tenants.items()
        }

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """:func:`~repro.core.serialize.to_dict` plus ``tenant_order``, a
        derived copy of the tenant order that every published scenario
        result hash includes."""
        d = to_dict(self)
        d["tenant_order"] = list(self.tenants)
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ScenarioResult":
        """Inverse of :meth:`to_dict`.  The tenants are put back in
        ``tenant_order``: a dict dumped with ``sort_keys`` has lost it."""
        d = dict(d)
        order = d.pop("tenant_order", None)
        tenants = d.get("tenants")
        if order is not None and isinstance(tenants, dict):
            if sorted(order) != sorted(tenants):
                raise ConfigurationError(
                    f"ScenarioResult: tenant_order {order} does not name "
                    f"the tenants {sorted(tenants)}"
                )
            d["tenants"] = {name: tenants[name] for name in order}
        return from_dict(cls, d)


@dataclass(frozen=True)
class ScenarioSpec(HashedSpec):
    """N tenant pipelines on one shared machine + parallel file system.

    Serialized by :mod:`repro.core.serialize` with a leading
    ``"kind": "scenario"`` marker (:attr:`KIND`): generic spec consumers
    (the TCP server, archived payloads) tell a scenario dict from an
    :class:`~repro.bench.engine.ExperimentSpec` dict by it, and it keeps
    scenario hashes disjoint from experiment hashes by construction, so
    both share one :class:`~repro.bench.store.ResultStore` without
    collisions.
    """

    KIND = "scenario"
    SCHEMA = SCENARIO_SCHEMA
    RESULT = ScenarioResult

    tenants: Tuple[TenantSpec, ...]
    machine: str = "paragon"
    fs: FSConfig = field(default_factory=FSConfig)
    params: STAPParams = field(default_factory=STAPParams)
    seed: int = 0
    #: Scenario-level gauge-sampling interval (:mod:`repro.obs`); the
    #: one shared registry carries tenant-labeled instruments.
    metrics_interval: Optional[float] = sparse(None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise ConfigurationError("a scenario needs at least one tenant")
        if self.machine not in MACHINES:
            raise ConfigurationError(
                f"unknown machine {self.machine!r}; choose from {sorted(MACHINES)}"
            )
        if self.metrics_interval is not None and self.metrics_interval <= 0:
            raise ConfigurationError("metrics_interval must be > 0 (or None)")
        names = self.tenant_names()
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"tenant names must be unique, got {names}"
            )

    # -- sugar ------------------------------------------------------------
    def tenant_names(self) -> Tuple[str, ...]:
        """Resolved tenant names (``name`` or positional ``t<i>``)."""
        return tuple(t.name or f"t{i}" for i, t in enumerate(self.tenants))

    def total_nodes(self) -> int:
        """Compute nodes the scenario occupies (sum over tenants)."""
        return sum(t.assignment.total_without_io for t in self.tenants)

    def label(self) -> str:
        """Human-readable one-liner for listings."""
        mix = "+".join(t.pipeline for t in self.tenants)
        return (
            f"scenario[{len(self.tenants)}] {mix} | {self.machine} | "
            f"{self.fs.label()} | {self.total_nodes()} nodes"
        )

    def run(self) -> "ScenarioResult":
        """Simulate the scenario (:func:`~repro.scenario.run_scenario`)."""
        from repro.scenario.executor import run_scenario

        return run_scenario(self)
