"""Declarative experiment engine: spec'd runs, parallel sweeps, caching.

The paper's evaluation is an experiment *grid* — pipeline structures x
file systems x node-assignment cases plus ablations.  This module makes
each grid cell a first-class, serializable value:

* :class:`ExperimentSpec` fully describes one cell — pipeline builder,
  node assignment, machine preset, :class:`~repro.core.executor.FSConfig`,
  :class:`~repro.stap.params.STAPParams`,
  :class:`~repro.core.context.ExecutionConfig`, a seed, and optional
  fault injections (straggler disk/node, concurrent radar writer).  A
  spec is deterministically hashable (:meth:`ExperimentSpec.spec_hash`),
  so any result can be content-addressed by the spec that produced it.
* :func:`run_spec` executes one cell and returns the
  :class:`~repro.core.executor.PipelineResult`.
* :class:`SweepRunner` executes a list of specs — in-process at
  ``jobs=1`` (debuggable), or over a persistent worker pool at
  ``jobs>1`` (the DES is single-threaded pure Python, so cells are
  embarrassingly parallel) — consulting an optional
  :class:`~repro.bench.store.ResultStore` so previously-computed cells
  are never re-simulated.  Execution is delegated to the service tier
  (:mod:`repro.service`): the runner is a thin client of a private
  :class:`~repro.service.scheduler.ExperimentScheduler`.

The simulation is deterministic, so ``run_spec(spec)`` is a pure
function of the spec: equal specs yield bit-identical results, which is
what makes the content-addressed cache sound.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, PipelineExecutor, PipelineResult
from repro.core.pipeline import (
    NodeAssignment,
    PipelineSpec,
    build_embedded_pipeline,
    build_separate_io_pipeline,
    combine_pulse_cfar,
)
from repro.errors import ConfigurationError
from repro.machine.presets import MachinePreset, generic_cluster, ibm_sp, paragon
from repro.stap.params import STAPParams
from repro.strategies import get_strategy, strategy_names

__all__ = [
    "SPEC_SCHEMA",
    "PIPELINES",
    "LEGACY_STRATEGY",
    "MACHINES",
    "machine_key",
    "DiskFault",
    "NodeFault",
    "WriterLoad",
    "ServerCrash",
    "FlakyDisk",
    "ExperimentSpec",
    "build_executor",
    "run_spec",
    "SweepRunner",
]

#: Bump when the spec's serialized shape changes; part of the hash, so
#: old cache entries are invalidated rather than silently misread.
SPEC_SCHEMA = 1

#: The three pipeline keys that predate the strategy registry.  They are
#: kept addressable so every published spec hash (the serialized
#: ``pipeline`` field) is unchanged, but user-facing lookups through
#: :data:`PIPELINES` now warn and point at the registry names.
_LEGACY_BUILDERS: Dict[str, Callable[[NodeAssignment], PipelineSpec]] = {
    "embedded": build_embedded_pipeline,
    "separate": build_separate_io_pipeline,
    "combined": lambda a: combine_pulse_cfar(build_embedded_pipeline(a)),
}

#: Legacy pipeline keys -> the strategy each has always denoted.
LEGACY_STRATEGY: Dict[str, str] = {
    "embedded": "embedded-io",
    "separate": "separate-io",
    "combined": "embedded-io+combined",
}


class _PipelineRegistryView(Mapping):
    """Read-only name -> pipeline-builder mapping over the strategy
    registry plus the legacy aliases.

    Subscripting a **legacy** key (``embedded`` / ``separate`` /
    ``combined``) emits a :class:`DeprecationWarning` steering callers
    to the registry names from
    :func:`repro.strategies.strategy_names`; :meth:`resolve` is the
    warning-free accessor the engine itself (and serialized specs,
    whose hashes must not change) uses.  Membership tests and iteration
    never warn.
    """

    def _table(self) -> Dict[str, Callable[[NodeAssignment], PipelineSpec]]:
        table = dict(_LEGACY_BUILDERS)
        for name in strategy_names():
            table.setdefault(name, get_strategy(name).build_spec)
        return table

    def resolve(self, key: str) -> Callable[[NodeAssignment], PipelineSpec]:
        """Builder for ``key``; accepts legacy keys without warning."""
        return self._table()[key]

    def __getitem__(self, key: str) -> Callable[[NodeAssignment], PipelineSpec]:
        if key in _LEGACY_BUILDERS:
            warnings.warn(
                f"PIPELINES[{key!r}] is a legacy alias for the "
                f"{LEGACY_STRATEGY[key]!r} strategy; address pipelines by "
                "the registry names from repro.strategies.strategy_names()",
                DeprecationWarning,
                stacklevel=2,
            )
        return self._table()[key]

    def __iter__(self):
        return iter(self._table())

    def __len__(self) -> int:
        return len(self._table())

    def __contains__(self, key: object) -> bool:
        return key in self._table()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PIPELINES view: {sorted(self._table())}>"


#: Pipeline builders addressable from a spec, by name — a live view over
#: the strategy registry (plus deprecated legacy aliases).
PIPELINES = _PipelineRegistryView()

#: Machine presets addressable from a spec, by name.
MACHINES: Dict[str, Callable[[], MachinePreset]] = {
    "paragon": paragon,
    "sp": ibm_sp,
    "generic": generic_cluster,
}

_PRESET_KEYS = {
    "Intel Paragon": "paragon",
    "IBM SP": "sp",
    "generic cluster": "generic",
}


def machine_key(preset: MachinePreset) -> str:
    """Engine key of a named preset (inverse of :data:`MACHINES`)."""
    try:
        return _PRESET_KEYS[preset.name]
    except KeyError:
        raise ConfigurationError(
            f"preset {preset.name!r} is not addressable by the engine; "
            f"known presets: {sorted(_PRESET_KEYS.values())}"
        ) from None


@dataclass(frozen=True)
class DiskFault:
    """Degrade one stripe directory's disk by ``slow_factor``."""

    server: int = 0
    slow_factor: float = 1.0

    def to_dict(self) -> dict:
        return {"server": self.server, "slow_factor": self.slow_factor}

    @staticmethod
    def from_dict(d: dict) -> "DiskFault":
        return DiskFault(**d)


@dataclass(frozen=True)
class NodeFault:
    """Degrade one compute node's flop rate by ``slow_factor``."""

    node: int = 0
    slow_factor: float = 1.0

    def to_dict(self) -> dict:
        return {"node": self.node, "slow_factor": self.slow_factor}

    @staticmethod
    def from_dict(d: dict) -> "NodeFault":
        return NodeFault(**d)


@dataclass(frozen=True)
class ServerCrash:
    """Take one stripe server down at ``at_time`` (simulated seconds).

    ``down_for=None`` is a permanent crash; a float brings the server
    back after that long.  Injected through
    :meth:`IOServer.schedule_outage`; clients must be fault-tolerant to
    survive it, so injecting this enables the FS retry/failover path.
    """

    server: int = 0
    at_time: float = 0.0
    down_for: Optional[float] = None

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ConfigurationError(f"server must be >= 0, got {self.server}")
        if self.at_time < 0:
            raise ConfigurationError(f"at_time must be >= 0, got {self.at_time}")
        if self.down_for is not None and self.down_for <= 0:
            raise ConfigurationError(
                f"down_for must be > 0 or None (permanent), got {self.down_for}"
            )

    def to_dict(self) -> dict:
        return {
            "server": self.server,
            "at_time": self.at_time,
            "down_for": self.down_for,
        }

    @staticmethod
    def from_dict(d: dict) -> "ServerCrash":
        return ServerCrash(**d)


@dataclass(frozen=True)
class FlakyDisk:
    """Fail a deterministic ``error_rate`` fraction of one server's requests.

    Error positions come from ``random.Random(seed)`` drawn in the
    server's FIFO service order, so the same spec always fails the same
    requests.  Enables the FS retry/failover client path.
    """

    server: int = 0
    error_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ConfigurationError(f"server must be >= 0, got {self.server}")
        if not (0.0 <= self.error_rate <= 1.0):
            raise ConfigurationError(
                f"error_rate must be in [0, 1], got {self.error_rate}"
            )

    def to_dict(self) -> dict:
        return {
            "server": self.server,
            "error_rate": self.error_rate,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "FlakyDisk":
        return FlakyDisk(**d)


@dataclass(frozen=True)
class WriterLoad:
    """A concurrent radar writer streaming future CPIs into the files."""

    period: float
    n_cpis: int
    start_cpi: int = 0
    initial_delay: float = 0.0

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "n_cpis": self.n_cpis,
            "start_cpi": self.start_cpi,
            "initial_delay": self.initial_delay,
        }

    @staticmethod
    def from_dict(d: dict) -> "WriterLoad":
        return WriterLoad(**d)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to (re)run one experiment cell.

    The spec is a pure value: hashable, serializable, and sufficient to
    reproduce the cell bit-for-bit.  ``pipeline`` and ``machine`` name
    entries of :data:`PIPELINES` / :data:`MACHINES` so that a spec never
    holds live callables or machine objects.
    """

    assignment: NodeAssignment
    pipeline: str = "embedded"
    machine: str = "paragon"
    fs: FSConfig = field(default_factory=FSConfig)
    params: STAPParams = field(default_factory=STAPParams)
    cfg: ExecutionConfig = field(default_factory=ExecutionConfig)
    seed: int = 0
    disk_fault: Optional[DiskFault] = None
    node_fault: Optional[NodeFault] = None
    writer: Optional[WriterLoad] = None
    server_crash: Optional[ServerCrash] = None
    flaky_disk: Optional[FlakyDisk] = None
    #: Surrogate-screening mode (see :mod:`repro.bench.surrogate`):
    #: ``"off"`` simulates every cell (the default), ``"screen"``
    #: predicts cells far from decision boundaries, ``"predict-all"``
    #: predicts every model-predictable cell.  Execution policy, not
    #: experiment identity: excluded from comparison, serialization and
    #: the spec hash, so a screened sweep shares cache entries with an
    #: unscreened one.
    screening: str = field(default="off", compare=False)

    def __post_init__(self) -> None:
        if self.pipeline not in PIPELINES:
            raise ConfigurationError(
                f"unknown pipeline {self.pipeline!r}; "
                f"choose from {sorted(PIPELINES)}"
            )
        if self.machine not in MACHINES:
            raise ConfigurationError(
                f"unknown machine {self.machine!r}; choose from {sorted(MACHINES)}"
            )
        if self.screening not in ("off", "screen", "predict-all"):
            raise ConfigurationError(
                f"unknown screening mode {self.screening!r}; "
                "choose from ('off', 'screen', 'predict-all')"
            )

    @property
    def strategy(self) -> str:
        """Registry name of the cell's I/O strategy.

        The legacy pipeline keys (``embedded``/``separate``/``combined``)
        resolve to the strategies they have always denoted; every other
        key *is* a registry name.
        """
        return LEGACY_STRATEGY.get(self.pipeline, self.pipeline)

    # -- construction sugar -------------------------------------------------
    @staticmethod
    def for_case(
        pipeline: str,
        case,
        params: Optional[STAPParams] = None,
        cfg: Optional[ExecutionConfig] = None,
        seed: int = 0,
    ) -> "ExperimentSpec":
        """Spec for one :class:`~repro.bench.cases.BenchCase` grid cell."""
        return ExperimentSpec(
            assignment=case.assignment,
            pipeline=pipeline,
            machine=machine_key(case.preset),
            fs=case.fs,
            params=params or STAPParams(),
            cfg=cfg or ExecutionConfig(),
            seed=seed,
        )

    def label(self) -> str:
        """Human-readable one-liner for listings."""
        n = self.assignment.total_without_io
        extras = []
        if self.disk_fault:
            extras.append(f"disk[{self.disk_fault.server}] x{self.disk_fault.slow_factor:g}")
        if self.node_fault:
            extras.append(f"node[{self.node_fault.node}] x{self.node_fault.slow_factor:g}")
        if self.writer:
            extras.append("writer on")
        if self.server_crash:
            down = (
                "forever"
                if self.server_crash.down_for is None
                else f"{self.server_crash.down_for:g}s"
            )
            extras.append(
                f"crash[{self.server_crash.server}] "
                f"@{self.server_crash.at_time:g}s for {down}"
            )
        if self.flaky_disk:
            extras.append(
                f"flaky[{self.flaky_disk.server}] p={self.flaky_disk.error_rate:g}"
            )
        suffix = f" ({', '.join(extras)})" if extras else ""
        return (
            f"{self.pipeline} | {self.machine} | {self.fs.label()} | "
            f"{n} nodes | {self.cfg.n_cpis} CPIs{suffix}"
        )

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON-able form.

        The fault-tolerance fields (``server_crash``, ``flaky_disk``)
        are emitted only when set: specs predating them keep their exact
        canonical JSON, so every previously-published spec hash — and
        the result cache keyed on them — is untouched.
        """
        d = {
            "pipeline": self.pipeline,
            "assignment": self.assignment.to_dict(),
            "machine": self.machine,
            "fs": self.fs.to_dict(),
            "params": self.params.to_dict(),
            "cfg": self.cfg.to_dict(),
            "seed": self.seed,
            "disk_fault": self.disk_fault.to_dict() if self.disk_fault else None,
            "node_fault": self.node_fault.to_dict() if self.node_fault else None,
            "writer": self.writer.to_dict() if self.writer else None,
        }
        if self.server_crash is not None:
            d["server_crash"] = self.server_crash.to_dict()
        if self.flaky_disk is not None:
            d["flaky_disk"] = self.flaky_disk.to_dict()
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`."""
        return ExperimentSpec(
            assignment=NodeAssignment.from_dict(d["assignment"]),
            pipeline=d["pipeline"],
            machine=d["machine"],
            fs=FSConfig.from_dict(d["fs"]),
            params=STAPParams.from_dict(d["params"]),
            cfg=ExecutionConfig.from_dict(d["cfg"]),
            seed=d["seed"],
            disk_fault=DiskFault.from_dict(d["disk_fault"]) if d["disk_fault"] else None,
            node_fault=NodeFault.from_dict(d["node_fault"]) if d["node_fault"] else None,
            writer=WriterLoad.from_dict(d["writer"]) if d["writer"] else None,
            server_crash=(
                ServerCrash.from_dict(d["server_crash"])
                if d.get("server_crash")
                else None
            ),
            flaky_disk=(
                FlakyDisk.from_dict(d["flaky_disk"]) if d.get("flaky_disk") else None
            ),
        )

    def canonical_json(self) -> str:
        """Canonical serialized form the hash is computed over."""
        return json.dumps(
            {"schema": SPEC_SCHEMA, **self.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )

    def spec_hash(self) -> str:
        """Content address: SHA-256 of the canonical JSON form."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def short_hash(self) -> str:
        """First 12 hex digits of :meth:`spec_hash`, for display."""
        return self.spec_hash()[:12]

    def build_pipeline(self) -> PipelineSpec:
        """Instantiate the named pipeline on this spec's assignment."""
        return PIPELINES.resolve(self.pipeline)(self.assignment)


def _check_server_index(ex: PipelineExecutor, server: int, what: str) -> None:
    n = len(ex.fs.servers)
    if not (0 <= server < n):
        raise ConfigurationError(
            f"{what} targets server {server}, but the file system has "
            f"{n} stripe servers (valid: 0..{n - 1})"
        )


def build_executor(spec: ExperimentSpec) -> PipelineExecutor:
    """Instantiate the cell's executor, with fault injections applied."""
    ex = PipelineExecutor(
        spec.build_pipeline(),
        spec.params,
        MACHINES[spec.machine](),
        spec.fs,
        spec.cfg,
        seed=spec.seed,
    )
    if spec.disk_fault is not None and spec.disk_fault.slow_factor != 1.0:
        from repro.pfs.blockdev import DiskSpec

        _check_server_index(ex, spec.disk_fault.server, "disk_fault")
        f = spec.disk_fault.slow_factor
        healthy = ex.fs.servers[spec.disk_fault.server].disk
        ex.fs.servers[spec.disk_fault.server].disk = DiskSpec(
            bandwidth=healthy.bandwidth / f,
            overhead=healthy.overhead * f,
            extra_unit_overhead_frac=healthy.extra_unit_overhead_frac,
        )
    if spec.node_fault is not None and spec.node_fault.slow_factor != 1.0:
        from repro.machine.node import Node, NodeSpec

        if not (0 <= spec.node_fault.node < len(ex.machine.nodes)):
            raise ConfigurationError(
                f"node_fault targets node {spec.node_fault.node}, but the "
                f"machine has {len(ex.machine.nodes)} nodes"
            )
        f = spec.node_fault.slow_factor
        healthy = ex.machine.node(spec.node_fault.node).spec
        ex.machine.nodes[spec.node_fault.node] = Node(
            spec.node_fault.node,
            NodeSpec(
                flops=healthy.flops / f,
                mem_bw=healthy.mem_bw,
                name=f"{healthy.name}-slow{f:g}x",
            ),
        )
    if spec.server_crash is not None:
        _check_server_index(ex, spec.server_crash.server, "server_crash")
        ex.fs.servers[spec.server_crash.server].schedule_outage(
            spec.server_crash.at_time, spec.server_crash.down_for
        )
    if spec.flaky_disk is not None and spec.flaky_disk.error_rate > 0.0:
        _check_server_index(ex, spec.flaky_disk.server, "flaky_disk")
        ex.fs.servers[spec.flaky_disk.server].set_flaky(
            spec.flaky_disk.error_rate, spec.flaky_disk.seed
        )
    return ex


def run_spec(spec: ExperimentSpec) -> PipelineResult:
    """Execute one cell.  Pure function of the spec (the DES is
    deterministic), which is what makes result caching sound."""
    ex = build_executor(spec)
    if spec.writer is not None:
        ex.spawn_writer(spec.writer)
    return ex.run()


class SweepRunner:
    """Execute experiment specs with caching and process parallelism.

    A thin client of the experiment service tier: the runner owns a
    private :class:`~repro.service.scheduler.ExperimentScheduler` whose
    worker pool persists for the runner's lifetime, so successive
    ``run()`` calls reuse warm workers instead of respawning a pool per
    sweep.  Cells are submitted as one job and stream back as they
    complete; a ``Ctrl-C`` mid-sweep cancels the job (workers shut
    down, already-finished cells stay cached).

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs in-process — same
        results, synchronous and debuggable.  ``>1`` fans uncached cells
        out over persistent worker processes; results return via the
        lossless JSON layer, so they are identical to in-process runs.
    store:
        Optional :class:`~repro.bench.store.ResultStore`.  When set,
        cells already present are returned from disk (counted in
        :attr:`cache_hits`) and newly computed cells are written back
        as they complete.

    Attributes
    ----------
    cache_hits / cache_misses:
        Store lookups that did / did not avoid a simulation.
    executed:
        Cells actually simulated by this runner (including duplicates
        resolved in-memory: a spec appearing twice in one ``run()`` call
        is simulated once).
    predicted:
        Cells answered by the analytic surrogate instead of simulation
        (specs with ``screening != "off"``; see
        :mod:`repro.bench.surrogate`).
    """

    def __init__(self, jobs: int = 1, store=None) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.store = store
        self.cache_hits = 0
        self.cache_misses = 0
        self.executed = 0
        self.predicted = 0
        self._scheduler = None

    def _get_scheduler(self):
        """The runner's private scheduler, created on first use."""
        if self._scheduler is None:
            from repro.service.scheduler import ExperimentScheduler

            self._scheduler = ExperimentScheduler(
                workers=self.jobs if self.jobs > 1 else 0,
                store=self.store,
            )
        return self._scheduler

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._scheduler is not None:
            self._scheduler.shutdown()
            self._scheduler = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing varies
        try:
            self.close()
        except Exception:
            pass

    def run_one(self, spec: ExperimentSpec) -> PipelineResult:
        """Execute (or fetch) a single cell."""
        return self.run([spec])[0]

    def run(self, specs: Sequence[ExperimentSpec]) -> List[PipelineResult]:
        """Execute (or fetch) every cell, preserving input order.

        An interrupt (``Ctrl-C``) mid-sweep cancels the in-flight job
        and stops the workers before re-raising; cells that finished
        before the interrupt are already in the store.
        """
        specs = list(specs)
        if not specs:
            return []
        scheduler = self._get_scheduler()
        handle = scheduler.submit(specs, client="sweep")
        try:
            payloads = handle.wait()
        except (KeyboardInterrupt, SystemExit):
            # Interrupt: stop dispatching, kill in-flight workers, keep
            # whatever already landed in the store.
            handle.cancel()
            self.close()
            raise
        except BaseException:
            # Task failure: the job is already terminal; the pool stays
            # warm for the next run() call.
            handle.cancel()
            raise
        counters = handle.counters
        self.cache_hits += counters["cache_hits"]
        self.cache_misses += counters["cache_misses"]
        self.executed += counters["executed"]
        self.predicted += counters.get("predicted", 0)
        # Rehydrate each payload with its spec type's own hook when it
        # has one (ScenarioSpec.result_from_dict); experiment cells keep
        # the classic PipelineResult path.
        results = [
            getattr(type(spec), "result_from_dict", PipelineResult.from_dict)(p)
            for spec, p in zip(specs, payloads)
        ]
        # Duplicate specs alias one result object, as before.
        seen: Dict[int, PipelineResult] = {}
        out: List[PipelineResult] = []
        for spec, result in zip(specs, results):
            first = handle.job.first_index_by_key[spec.spec_hash()]
            out.append(seen.setdefault(first, result))
        return out
