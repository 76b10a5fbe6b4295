"""The pipeline executor: run a pipeline spec on a simulated machine.

:class:`PipelineExecutor` wires everything together:

1. build the machine from a preset (compute nodes = the pipeline's total,
   I/O nodes = the file system's stripe directories);
2. build the file system (PFS or PIOFS) and the round-robin cube files;
3. bind the pipeline's tasks to communicator ranks and spawn one DES
   process per task node running its body;
4. run the kernel to completion and measure.

``FSConfig`` carries the file-system choice — ``kind`` selects paper
semantics (``"pfs"`` async-capable, ``"piofs"`` synchronous-only) and
``stripe_factor`` is the paper's central knob.

A :class:`Substrate` bundles the execution fabric (kernel, machine/mesh,
file system, metrics sampler) and :class:`PipelineExecutor` is one
tenant pipeline hosted on it.  A standalone run is a substrate hosting a
single tenant named ``""``; a :class:`~repro.scenario.ScenarioExecutor`
hosts several tenant pipelines on the same disks and links.

The simulator (kernel, machine, message passing, file system, task
bodies) is imported by :meth:`Substrate.build` and
:class:`PipelineExecutor`, once per cell, so ``FSConfig`` and
``PipelineResult`` import none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError, DeadlockError
from repro.core.context import ExecutionConfig, TaskContext
from repro.core.metrics import DroppedCpi, PipelineMeasurement, measure
from repro.core.serialize import Codec, LazyMapping, coded, from_dict, sparse
from repro.core.pipeline import PipelineSpec
from repro.core.plan import PipelinePlan
from repro.machine.presets import MachinePreset
from repro.obs.instruments import DEFAULT_BUCKETS, MetricsRegistry
from repro.stap.cluster import Detection
from repro.stap.params import STAPParams
from repro.strategies import strategy_for_spec
from repro.trace.collector import TraceCollector

if TYPE_CHECKING:
    from repro.obs.sampler import Sampler
    from repro.sim.kernel import Kernel
    from repro.stap.scenario import Scenario

__all__ = [
    "FSConfig",
    "ExecutionConfig",
    "PipelineExecutor",
    "PipelineResult",
    "Substrate",
    "HINT_CAPABILITIES",
    "validate_fs_hints",
]

#: hint name -> (required FS capability attribute or None, human summary).
#: ``None`` means the hint is valid on every file system kind.
HINT_CAPABILITIES = {
    "sieve_buffer_size": (None, "data-sieving alignment granularity (any FS)"),
    "cb_nodes": (None, "collective two-phase aggregator cap (any FS)"),
    "list_io_max_runs": (
        "supports_list_io",
        "list-I/O batch split (needs list I/O: kind='pfs')",
    ),
}


def _hint_catalogue() -> str:
    """One-line enumeration of every valid hint and its requirement."""
    return "; ".join(
        f"{name} — {summary}" for name, (_, summary) in HINT_CAPABILITIES.items()
    )


def validate_fs_hints(fs_config: "FSConfig", fs) -> None:
    """Validate ``fs_config``'s ROMIO-style hints against ``fs``.

    A hint for a call the file system doesn't have fails here, before
    any process is spawned — not mid-run.  Error messages enumerate the
    valid hint names and which FS capability each requires.
    """
    for hint in fs_config.HINT_FIELDS:
        value = getattr(fs_config, hint)
        if value is not None and value < 1:
            raise ConfigurationError(
                f"FS hint {hint} must be >= 1, got {value}. "
                f"Valid hints: {_hint_catalogue()}"
            )
        capability = HINT_CAPABILITIES[hint][0]
        if value is not None and capability is not None and not getattr(fs, capability):
            raise ConfigurationError(
                f"hint {hint} set on {fs_config.kind!r}, which lacks the "
                f"{capability} capability the hint needs. "
                f"Valid hints: {_hint_catalogue()}"
            )


@dataclass(frozen=True)
class FSConfig(Codec):
    """Which parallel file system to build, and its geometry.

    ``replication > 1`` mirrors each stripe unit over that many
    directories (chained declustering): reads fail over between replicas
    and writes mirror to each — see ``docs/fault_model.md``.

    The three optional ROMIO-style hints tune the noncontiguous-access
    strategies (``docs/io_strategies.md``): ``sieve_buffer_size``
    replaces the data-sieving readers' whole-stripe-unit widening with an
    arbitrary alignment granularity, ``cb_nodes`` caps how many of the
    reading task's nodes act as phase-one aggregators in collective
    two-phase I/O, and ``list_io_max_runs`` caps the contiguous pieces
    one batched list-I/O request may carry.  ``replication`` and the
    hints are sparse (:func:`~repro.core.serialize.sparse`), so
    unreplicated hint-free configs keep their exact pre-existing hashes.
    """

    kind: str = "pfs"            # "pfs" (async) or "piofs" (sync-only)
    stripe_factor: int = 64
    stripe_unit: int = 64 * 1024
    disk_bw: Optional[float] = None        # default: preset's disk
    disk_overhead: Optional[float] = None
    name: str = ""
    replication: int = sparse(1)
    sieve_buffer_size: Optional[int] = sparse(None)
    cb_nodes: Optional[int] = sparse(None)
    list_io_max_runs: Optional[int] = sparse(None)

    #: The ROMIO-style hint field names, in serialization order.
    HINT_FIELDS = ("sieve_buffer_size", "cb_nodes", "list_io_max_runs")

    def hint_dict(self) -> Dict[str, int]:
        """The hints that are actually set, as a plain dict."""
        return {
            k: getattr(self, k)
            for k in self.HINT_FIELDS
            if getattr(self, k) is not None
        }

    def label(self) -> str:
        """Display label, e.g. ``"PFS sf=64"`` or ``"PFS sf=4 rep=2"``."""
        if self.name:
            return self.name
        base = f"{self.kind.upper()} sf={self.stripe_factor}"
        if self.replication > 1:
            base += f" rep={self.replication}"
        return base


@dataclass
class Substrate:
    """The execution fabric tenant pipelines run on.

    :meth:`build` makes one; a standalone :class:`PipelineExecutor`
    builds a private one and is its only tenant, while a
    :class:`~repro.scenario.ScenarioExecutor` hands every tenant a
    :meth:`tenant_view` of ONE, so N pipelines contend for the same
    kernel clock, mesh links, and stripe-directory disks.  The substrate
    drives the kernel (:meth:`run`) and reports the shared statistics
    (:meth:`disk_stats`, :meth:`metrics_artifact`).

    Attributes
    ----------
    kernel / machine / fs:
        The simulation kernel, the machine (compute + I/O nodes with
        their network), and the parallel file system built over it.
    rank_base:
        First machine node index this pipeline's rank 0 maps to
        (tenants occupy contiguous compute-node blocks).
    tenant:
        Tenant name ("" for standalone runs).  Non-empty names prefix
        process names, namespace the cube files, and label instruments.
    file_prefix:
        Cube-file prefix inside the shared FS namespace.
    metrics / sampler:
        The shared :class:`~repro.obs.MetricsRegistry` and its
        kernel-hook :class:`~repro.obs.Sampler`, or None when the run is
        not metered.
    task_processes:
        Every tenant's task-node processes, shared by all tenant views,
        so a deadlock can name the nodes still blocked.
    """

    kernel: Kernel
    machine: Any
    fs: Any
    rank_base: int = 0
    tenant: str = ""
    file_prefix: str = "cpi"
    metrics: Optional[MetricsRegistry] = None
    sampler: Optional[Sampler] = None
    task_processes: List[Any] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        preset: MachinePreset,
        fs_config: FSConfig,
        n_compute: int,
        metrics_interval: Optional[float] = None,
    ) -> "Substrate":
        """Construct a substrate, metered when ``metrics_interval`` is set.

        The construction order (kernel, machine, disk, FS, hint
        validation, hint install) is fixed: every result hash depends
        on it.
        """
        from repro.obs.sampler import Sampler
        from repro.pfs import FS_CLASSES
        from repro.pfs.blockdev import DiskSpec
        from repro.sim.kernel import Kernel

        kernel = Kernel()
        machine = preset.build(
            kernel,
            n_compute=n_compute,
            n_io=fs_config.stripe_factor,
        )
        disk = DiskSpec(
            bandwidth=fs_config.disk_bw or preset.disk_bw,
            overhead=(
                fs_config.disk_overhead
                if fs_config.disk_overhead is not None
                else preset.disk_overhead
            ),
        )
        fs_cls = FS_CLASSES.get(fs_config.kind)
        if fs_cls is None:
            raise ConfigurationError(f"unknown file system kind {fs_config.kind!r}")
        fs = fs_cls(
            machine,
            stripe_unit=fs_config.stripe_unit,
            stripe_factor=fs_config.stripe_factor,
            disk=disk,
            name=fs_config.label(),
            replication=fs_config.replication,
        )
        # ROMIO-style hints ride on the FS instance: readers and the
        # list-I/O request path consult fs.hints at run time.
        validate_fs_hints(fs_config, fs)
        fs.hints.update(fs_config.hint_dict())
        substrate = cls(kernel=kernel, machine=machine, fs=fs)
        if metrics_interval is not None:
            # Pure observers: event order and every simulated quantity
            # are identical whether metering is on or off.
            substrate.metrics = MetricsRegistry()
            substrate.sampler = Sampler(kernel, substrate.metrics, metrics_interval)
        return substrate

    def tenant_view(
        self, tenant: str, rank_base: int, file_prefix: str
    ) -> "Substrate":
        """The same fabric and registry, placed for one named tenant."""
        return replace(
            self, tenant=tenant, rank_base=rank_base, file_prefix=file_prefix
        )

    def run(self) -> None:
        """Drive the kernel to completion, sampling when metered.

        The server and network gauges are registered here rather than at
        build time, so fault injections armed after construction still
        get their fault counters.
        """
        if self.sampler is not None:
            from repro.obs.instrument import instrument_substrate

            instrument_substrate(self.metrics, self)
            self.sampler.attach()
        try:
            self.kernel.run()
        except DeadlockError as exc:
            blocked = [p.name for p in self.task_processes if p.is_alive]
            if not blocked:
                raise
            raise DeadlockError(
                f"{exc}; blocked task nodes: {', '.join(blocked)}"
            ) from None
        if self.sampler is not None:
            self.sampler.finalize(self.kernel.now)

    def disk_stats(self) -> Dict[str, Any]:
        """Per-server disk statistics of the whole file system."""
        servers = self.fs.servers
        stats: Dict[str, Any] = {
            "busy_time_per_server": [s.busy_time for s in servers],
            "requests_per_server": [s.requests_served for s in servers],
            "bytes_served": self.fs.total_bytes_served(),
        }
        if self.fs.fault_tolerant:
            # Only surfaced with replicas or an injected fault, so that
            # fault-free result hashes stay bit-identical.
            stats["requests_failed_per_server"] = [
                s.requests_failed for s in servers
            ]
            stats["bytes_shipped_per_server"] = [s.bytes_shipped for s in servers]
            stats["outages_per_server"] = [s.outages for s in servers]
            stats["duplicate_ships_per_server"] = [
                s.duplicate_ships for s in servers
            ]
        return stats

    def metrics_artifact(self) -> Optional[Dict[str, Any]]:
        """The JSON metrics artifact after :meth:`run`; None unmetered."""
        if self.sampler is None:
            return None
        return self.metrics.to_dict(
            interval=self.sampler.interval,
            t_end=self.kernel.now,
            samples=self.sampler.samples,
        )


def _encode_traffic(m: Mapping) -> dict:
    """``rank_traffic`` under ``"src->dst"`` keys; a map read back and
    not yet looked up is returned as it was read."""
    if isinstance(m, LazyMapping) and m.stored is not None:
        return m.stored
    return {f"{src}->{dst}": list(c) for (src, dst), c in m.items()}


def _decode_traffic(m: Mapping) -> LazyMapping:
    """Inverse of :func:`_encode_traffic`, decoded on first lookup.
    Every key must read ``"src->dst"`` over two ranks and every value be
    a (messages, bytes) pair: a malformed map is refused here, when it
    is read, not at its first lookup."""
    for key, count in m.items():
        src, arrow, dst = key.partition("->")
        if not (arrow and src.isdecimal() and dst.isdecimal()) or len(count) != 2:
            raise ValueError(f"malformed rank_traffic entry {key!r}: {count!r}")
    return LazyMapping(m, lambda m: {tuple(map(int, k.split("->"))): tuple(c)
                                     for k, c in m.items()})


@dataclass
class PipelineResult(Codec):
    """Everything a pipeline run produced."""

    spec: PipelineSpec
    cfg: ExecutionConfig
    fs_label: str
    machine_name: str
    trace: TraceCollector
    measurement: PipelineMeasurement
    detections: List[Detection]
    elapsed_sim_time: float

    @property
    def throughput(self) -> float:
        return self.measurement.throughput

    @property
    def latency(self) -> float:
        return self.measurement.latency

    #: Filled in by the executor after the run.
    disk_stats: Optional[dict] = None
    #: (src_rank, dst_rank) -> (messages, bytes), stored under
    #: ``"src->dst"`` keys; a result read back by :meth:`from_dict`
    #: checks them when read and decodes them on first lookup.
    rank_traffic: Optional[Mapping] = coded(_encode_traffic, _decode_traffic,
                                            default=None)
    #: rank -> task name, stored under stringified ranks.
    rank_task: Optional[dict] = coded(
        lambda m: {str(rank): task for rank, task in m.items()},
        lambda m: {int(rank): task for rank, task in m.items()},
        default=None,
    )
    # The fields below are sparse: results that leave them unset keep
    # the hashes they were published under.
    #: CPIs skipped at the read deadline; None unless a deadline was set.
    dropped_cpis: Optional[List[DroppedCpi]] = sparse(None)
    #: JSON time-series metrics artifact (see :mod:`repro.obs`); None
    #: unless ``cfg.metrics_interval`` was set.
    metrics: Optional[dict] = sparse(None)
    #: ``"simulated"`` for real runs; ``"predicted"`` when the result was
    #: synthesised from the analytic model by surrogate screening
    #: (:mod:`repro.bench.surrogate`).
    source: str = sparse("simulated")
    #: Relative error bound on predicted throughput/latency; None for
    #: simulated results.
    prediction_bound: Optional[float] = sparse(None)

    def disk_utilization(self) -> float:
        """Mean busy fraction of the stripe directories' disks."""
        if not self.disk_stats or self.elapsed_sim_time <= 0:
            return 0.0
        busy = self.disk_stats["busy_time_per_server"]
        return sum(busy) / (len(busy) * self.elapsed_sim_time)

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "PipelineResult":
        """Inverse of :meth:`to_dict`.  A staticmethod looked up on the
        class at every call, nested tenant and cell results included, so
        a wrapper installed on the class (``perfbench --trace 1`` times
        rehydration this way) sees every one."""
        return from_dict(PipelineResult, d)

    def task_traffic(self) -> "dict":
        """Aggregate network traffic between tasks.

        Returns ``{(src_task, dst_task): (messages, bytes)}`` summed over
        all rank pairs and CPIs — the measurable form of the paper's
        per-task communication terms :math:`C_i` (flow-control
        acknowledgements included; they ride the same network).
        """
        out: dict = {}
        if not self.rank_traffic or not self.rank_task:
            return out
        for (src, dst), (msgs, nbytes) in self.rank_traffic.items():
            key = (self.rank_task[src], self.rank_task[dst])
            acc = out.setdefault(key, [0, 0])
            acc[0] += msgs
            acc[1] += nbytes
        return {k: tuple(v) for k, v in out.items()}


class PipelineExecutor:
    """One tenant pipeline on a :class:`Substrate`.

    The executor binds its ranks at ``substrate.rank_base``, namespaces
    its cube files with ``substrate.file_prefix``, and labels its
    instruments with ``substrate.tenant``.  Without ``substrate=`` it
    builds a private one (metered per ``cfg.metrics_interval``) and
    :meth:`run` drives it as the sole tenant.  A
    :class:`~repro.scenario.ScenarioExecutor` instead calls the
    :meth:`setup_processes` / :meth:`collect` halves of :meth:`run` for
    every tenant and drives the shared substrate itself.
    """

    def __init__(
        self,
        spec: PipelineSpec,
        params: STAPParams,
        preset: MachinePreset,
        fs_config: FSConfig,
        cfg: Optional[ExecutionConfig] = None,
        scenario: Optional[Scenario] = None,
        seed: Optional[int] = None,
        substrate: Optional[Substrate] = None,
    ) -> None:
        from repro.core.validate import validate_plan
        from repro.io.fileset import CubeFileSet, CubeSource
        from repro.mpi.communicator import Communicator
        from repro.obs.instrument import instrument_pipeline

        self.spec = spec
        self.params = params
        self.preset = preset
        self.fs_config = fs_config
        self.cfg = cfg or ExecutionConfig()
        if self.cfg.compute and scenario is None:
            if seed is None:
                raise ConfigurationError(
                    "compute mode needs a scenario (or a seed) for cube content"
                )
            from repro.stap.scenario import Scenario

            scenario = Scenario.standard(params, seed=seed)
        self.seed = seed
        self.scenario = scenario

        if substrate is None:
            substrate = Substrate.build(
                preset,
                fs_config,
                n_compute=spec.total_nodes,
                metrics_interval=self.cfg.metrics_interval,
            )
        self.substrate = substrate
        self.kernel = substrate.kernel
        self.machine = substrate.machine
        self.fs = substrate.fs
        self.tenant = substrate.tenant
        self._stem = f"{self.tenant}." if self.tenant else ""
        # Resolve the spec's I/O strategy (None for hand-built specs with
        # non-registry names) and reject FS/config mismatches before any
        # process is spawned — async-on-PIOFS fails here, not mid-run.
        self.strategy = strategy_for_spec(spec.name)
        if self.strategy is not None:
            self.strategy.validate(self.fs, self.cfg)
        source = (
            CubeSource(params, scenario) if (self.cfg.compute and scenario) else None
        )
        self.fileset = CubeFileSet(
            self.fs, params, source=source, prefix=substrate.file_prefix
        )
        self.plan = PipelinePlan(spec, params)
        validate_plan(self.plan)
        self.comm = Communicator(
            self.machine,
            [substrate.rank_base + r for r in range(spec.total_nodes)],
            name=self.tenant or "world",
        )
        self.trace = TraceCollector()
        self.results: Dict[str, Any] = {}
        # Per-CPI arrival gate (None = classic all-data-ready behaviour).
        self._arrival_times = (
            self.cfg.arrival.times(self.cfg.n_cpis)
            if self.cfg.arrival is not None
            else None
        )
        # Observability (repro.obs): this pipeline's instruments go into
        # the substrate's registry, tenant-labeled when hosted.
        self.metrics: Optional[MetricsRegistry] = substrate.metrics
        if self.metrics is not None:
            instrument_pipeline(self.metrics, self, tenant=self.tenant)

    def setup_processes(self) -> None:
        """Initialise the file set and spawn one process per task node.

        First half of :meth:`run`; the scenario executor calls it for
        every tenant before driving the shared kernel once.
        """
        from repro.core.bodies import body_for

        self.fileset.initialize()
        for name, inst in self.plan.instances.items():
            for local, rank in enumerate(inst.ranks):
                ctx = TaskContext(
                    kernel=self.kernel,
                    rc=self.comm.view(rank),
                    task=inst,
                    local=local,
                    plan=self.plan,
                    cfg=self.cfg,
                    trace=self.trace,
                    fileset=self.fileset,
                    node_spec=self.machine.node(self.comm.node_of(rank)).spec,
                    results=self.results,
                    strategy=self.strategy,
                    metrics=self.metrics,
                    tenant=self.tenant,
                    arrival_times=self._arrival_times,
                )
                self.substrate.task_processes.append(
                    self.kernel.process(
                        body_for(inst.spec.kind, ctx),
                        name=f"{self._stem}{name}[{local}]",
                    )
                )

    def spawn_writer(self, load) -> None:
        """Spawn a radar writer streaming ``load``'s future CPIs
        (a :class:`~repro.bench.engine.WriterLoad`) into this pipeline's
        cube files from the first I/O node."""
        from repro.io.writer import RadarWriter

        writer = RadarWriter(
            self.fileset,
            node_id=self.machine.io_node_id(0),
            period=load.period,
            n_cpis=load.n_cpis,
            start_cpi=load.start_cpi,
            initial_delay=load.initial_delay,
        )
        self.kernel.process(
            writer.run(self.kernel), name=f"{self._stem}radar-writer"
        )

    def run(self) -> PipelineResult:
        """Execute the configured number of CPIs and measure, driving
        the substrate as its sole tenant."""
        self.setup_processes()
        self.substrate.run()
        result = self.collect()
        result.disk_stats = self.substrate.disk_stats()
        result.metrics = self.substrate.metrics_artifact()
        return result

    def collect(self) -> PipelineResult:
        """Measure and assemble the result after the kernel has run.

        Second half of :meth:`run`.  The substrate's disk statistics and
        metrics artifact are left to whoever drove it (a tenant's result
        would otherwise claim the whole machine's disk traffic as its
        own).
        """
        meas = measure(
            self.trace,
            self.spec,
            n_cpis=self.cfg.n_cpis,
            warmup=self.cfg.warmup,
            sink_task=self.plan.sink_task,
            first_task=self.plan.first_task,
        )
        detections = sorted(self.results.get("detections", []))
        result = PipelineResult(
            spec=self.spec,
            cfg=self.cfg,
            fs_label=self.fs_config.label(),
            machine_name=self.machine.name,
            trace=self.trace,
            measurement=meas,
            detections=detections,
            elapsed_sim_time=self.kernel.now,
        )
        if self.cfg.read_deadline is not None:
            result.dropped_cpis = sorted(self.results.get("dropped_cpis", []))
        result.rank_traffic = {
            pair: tuple(counts) for pair, counts in self.comm.traffic.items()
        }
        result.rank_task = {
            rank: name
            for name, inst in self.plan.instances.items()
            for rank in inst.ranks
        }
        if self.metrics is not None:
            labels = {"tenant": self.tenant} if self.tenant else {}
            hist = self.metrics.histogram(
                "cpi_latency_seconds",
                buckets=DEFAULT_BUCKETS,
                help="per-CPI pipeline latency over the steady-state window",
                **labels,
            )
            for v in meas.latencies:
                hist.observe(v)
        return result
