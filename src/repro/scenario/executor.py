"""The scenario executor: N tenant pipelines on one shared substrate.

:class:`ScenarioExecutor` builds ONE
:class:`~repro.core.executor.Substrate` (kernel, machine sized for the
sum of the tenants' nodes, one parallel file system, one metrics
sampler) and hosts a :class:`~repro.core.executor.PipelineExecutor` per
tenant on a view of it; a standalone run is the same arrangement with
a single tenant named ``""``.  Tenants occupy contiguous compute-node
blocks, namespace their cube files with their tenant name, and contend
for the same stripe-directory disks and mesh links — the shared-PFS
interference regime the paper's strategy comparison sharpens into.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.executor import PipelineExecutor, Substrate
from repro.scenario.spec import ScenarioResult, ScenarioSpec
from repro.trace.gantt import render_scenario_gantt

__all__ = ["ScenarioExecutor", "run_scenario"]

# The engine's machine registry (presets by name), imported lazily to
# keep module import order flexible.


def _preset_for(name: str):
    from repro.bench.engine import MACHINES

    return MACHINES[name]()


class ScenarioExecutor:
    """Build and run one multi-tenant scenario."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.preset = _preset_for(spec.machine)
        names = spec.tenant_names()
        pipelines = [t.build_pipeline() for t in spec.tenants]

        # ONE substrate for everyone: the machine's compute section is
        # the concatenation of the tenants' node blocks; I/O nodes and
        # the FS come from the shared FSConfig exactly as standalone.
        # Its one registry holds the shared server/network gauges once
        # and each tenant's instruments under a ``tenant`` label.
        self.substrate = Substrate.build(
            self.preset,
            spec.fs,
            n_compute=sum(p.total_nodes for p in pipelines),
            metrics_interval=spec.metrics_interval,
        )
        self.kernel = self.substrate.kernel
        self.machine = self.substrate.machine
        self.fs = self.substrate.fs
        self.metrics = self.substrate.metrics

        self.tenant_names: List[str] = list(names)
        self.executors: Dict[str, PipelineExecutor] = {}
        rank_base = 0
        for name, tenant, pipeline in zip(names, spec.tenants, pipelines):
            prefix = f"{name}.cpi"
            self.executors[name] = PipelineExecutor(
                pipeline,
                spec.params,
                self.preset,
                spec.fs,
                tenant.cfg,
                seed=spec.seed,
                substrate=self.substrate.tenant_view(name, rank_base, prefix),
            )
            rank_base += pipeline.total_nodes
            if self.metrics is not None:
                # Per-tenant share of the shared disks' request volume
                # (ViPIOS-style awareness of whose accesses are served).
                self.metrics.gauge(
                    "pfs_tenant_bytes_total",
                    help="bytes this tenant requested against its own files",
                    fn=lambda p=prefix: self.fs.bytes_for_prefix(p),
                    tenant=name,
                )

    def setup_processes(self) -> None:
        """Initialise every tenant's file set and spawn its processes."""
        for name, tenant in zip(self.tenant_names, self.spec.tenants):
            ex = self.executors[name]
            ex.setup_processes()
            if tenant.writer is not None:
                ex.spawn_writer(tenant.writer)

    def run(self) -> ScenarioResult:
        """Drive the shared kernel to completion and collect per tenant."""
        self.setup_processes()
        self.substrate.run()
        tenants = {
            name: self.executors[name].collect() for name in self.tenant_names
        }
        result = ScenarioResult(
            spec=self.spec,
            tenants=tenants,
            elapsed_sim_time=self.kernel.now,
        )
        result.disk_stats = self.substrate.disk_stats()
        result.tenant_bytes = {
            name: self.fs.bytes_for_prefix(f"{name}.")
            for name in self.tenant_names
        }
        # Each tenant's collect() observed its cpi_latency_seconds
        # histogram; the one artifact combines them.
        result.metrics = self.substrate.metrics_artifact()
        return result

    def gantt(self, width: int = 100) -> str:
        """Multi-pipeline Gantt: every tenant's lanes on one time axis."""
        return render_scenario_gantt(
            {name: self.executors[name].trace for name in self.tenant_names},
            width=width,
        )


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one scenario.  Pure function of the spec (the DES is
    deterministic), which is what makes result caching sound."""
    return ScenarioExecutor(spec).run()
