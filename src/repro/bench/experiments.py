"""Experiment drivers — one per paper table/figure, plus ablations.

Every driver returns an :class:`ExperimentResult` holding per-cell
measurements and knows how to ``render()`` itself in the paper's format
(per-task time tables like Tables 1-3, the improvement table of Table 4,
and grouped bar charts standing in for Figures 5-8).

All drivers run on the declarative engine
(:mod:`repro.bench.engine`): each cell is an
:class:`~repro.bench.engine.ExperimentSpec` executed through a
:class:`~repro.bench.engine.SweepRunner`.  Pass a shared runner (with a
:class:`~repro.bench.store.ResultStore` and/or ``jobs > 1``) to cache
cells across drivers and to parallelize sweeps; by default each driver
uses a private serial, uncached runner — the seed behavior.  A
grid-shaped driver is one :func:`sweep` call: a base spec plus its axes
(:func:`grid`), so its cells are data rather than nested loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.bench.cases import BenchCase, paper_cases
from repro.bench.engine import (
    DiskFault,
    ExperimentSpec,
    FlakyDisk,
    NodeFault,
    ServerCrash,
    SweepRunner,
    WriterLoad,
    machine_key,
)
from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, PipelineResult
from repro.core.model import CombinationAnalysis
from repro.core.pipeline import NodeAssignment
from repro.core.serialize import Codec
from repro.errors import ConfigurationError
from repro.machine.presets import MachinePreset, ibm_sp
from repro.stap.params import STAPParams
from repro.trace.report import format_table, grouped_bar_chart

__all__ = [
    "ExperimentResult",
    "grid",
    "sweep",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_fig8",
    "run_ablation_stripe_sweep",
    "run_ablation_bottleneck_migration",
    "run_ablation_io_strategy",
    "run_ablation_straggler_disk",
    "run_ablation_straggler_node",
    "run_ablation_async",
    "run_ablation_combination_analysis",
    "run_ablation_writer_interference",
    "run_ablation_server_outage",
    "run_ablation_flaky_disk",
    "run_ablation_interference",
    "InterferenceAblation",
]

#: Default simulation depth for the sweeps: enough CPIs for a clean
#: steady state while keeping each cell's wall time around a second.
DEFAULT_CFG = ExecutionConfig(n_cpis=8, warmup=2)


def _runner(runner: Optional[SweepRunner]) -> SweepRunner:
    """The driver's runner: caller-provided, or private serial/uncached."""
    return runner if runner is not None else SweepRunner(jobs=1)


# ---------------------------------------------------------------------------
# declarative spec grids


def _replace_path(obj, path: str, value):
    """``obj`` with the field at dotted ``path`` set to ``value``."""
    head, _, rest = path.partition(".")
    if rest:
        value = _replace_path(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def _check_path(base, path: str) -> None:
    """Reject a dotted path that does not name a field reachable in ``base``."""
    obj = base
    for name in path.split("."):
        if not is_dataclass(obj) or name not in {f.name for f in fields(obj)}:
            raise ConfigurationError(
                f"grid axis {path!r}: {type(obj).__name__} has no field "
                f"{name!r}"
            )
        obj = getattr(obj, name)


def grid(
    base,
    axes: Mapping[str, Union[Sequence[Any], Mapping[Any, Any]]],
    where: Optional[Callable[[Any], bool]] = None,
) -> Dict[Any, Any]:
    """Expand ``base`` over the product of ``axes`` into ``{key: spec}``.

    ``base`` is any frozen spec dataclass (:class:`ExperimentSpec`,
    :class:`~repro.scenario.ScenarioSpec`).  Each axis maps a dotted
    field path (``"fs.stripe_factor"``, ``"disk_fault.slow_factor"``)
    to its values: a sequence, whose values are also the keys, or a
    ``{key: value}`` mapping for axes whose key differs from the stored
    value (rate ``0.0`` -> ``flaky_disk=None``).  The product runs
    first-axis-outermost, as nested ``for`` loops in axis order would.
    A cell's key is the tuple of its axis keys, or the bare key when
    there is one axis.  ``where(spec)`` returning false drops the cell.
    Cells are built with nested :func:`dataclasses.replace`, so every
    spec validates and hashes exactly like a hand-built one.
    """
    paths = list(axes)
    for path in paths:
        _check_path(base, path)
    columns = [
        list(values.items()) if isinstance(values, Mapping)
        else [(v, v) for v in values]
        for values in axes.values()
    ]
    cells: Dict[Any, Any] = {}
    for combo in itertools.product(*columns):
        spec = base
        for path, (_, value) in zip(paths, combo):
            spec = _replace_path(spec, path, value)
        if where is None or where(spec):
            key = tuple(k for k, _ in combo)
            cells[key[0] if len(key) == 1 else key] = spec
    return cells


def sweep(
    base,
    axes: Mapping[str, Union[Sequence[Any], Mapping[Any, Any]]],
    runner: Optional[SweepRunner] = None,
    where: Optional[Callable[[Any], bool]] = None,
) -> Dict[Any, Any]:
    """:func:`grid` plus one ``runner.run`` call: ``{key: result}``."""
    cells = grid(base, axes, where)
    return dict(zip(cells, _runner(runner).run(list(cells.values()))))


def _base(
    case_number: int,
    params: Optional[STAPParams],
    cfg: ExecutionConfig,
    seed: int,
    **spec_fields,
) -> ExperimentSpec:
    """An ablation's base cell: paper case ``case_number``, embedded I/O
    on the Paragon's PFS at stripe factor 64 unless ``spec_fields`` say
    otherwise."""
    params = params or STAPParams()
    return ExperimentSpec(
        assignment=NodeAssignment.case(case_number, params),
        params=params, cfg=cfg, seed=seed, **spec_fields,
    )


@dataclass
class CellResult(Codec):
    """One (case, file system) cell's outcome."""

    case: BenchCase
    result: PipelineResult

    @property
    def throughput(self) -> float:
        return self.result.throughput

    @property
    def latency(self) -> float:
        return self.result.latency


@dataclass
class ExperimentResult(Codec):
    """A full experiment: labelled cells plus a renderer (``extra`` must
    be JSON-able)."""

    name: str
    cells: List[CellResult] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    def cell(self, fs_label: str, case_number: int) -> CellResult:
        for c in self.cells:
            if c.case.fs.label() == fs_label and c.case.case_number == case_number:
                return c
        available = sorted(
            {(c.case.fs.label(), c.case.case_number) for c in self.cells}
        )
        raise KeyError(
            f"no cell ({fs_label!r}, case {case_number}) in experiment "
            f"{self.name!r}; available (fs, case) cells: {available}"
        )

    def fs_labels(self) -> List[str]:
        seen: List[str] = []
        for c in self.cells:
            lab = c.case.fs.label()
            if lab not in seen:
                seen.append(lab)
        return seen

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        """Paper-style per-task tables, one block per file system/case."""
        blocks = [f"==== {self.name} ===="]
        for fs_label in self.fs_labels():
            for case_no in sorted({c.case.case_number for c in self.cells}):
                cell = self.cell(fs_label, case_no)
                m = cell.result.measurement
                rows = [
                    (name, s.recv, s.compute, s.send, s.total)
                    for name, s in m.task_stats.items()
                ]
                blocks.append(
                    format_table(
                        ["task", "recv (s)", "compute (s)", "send (s)", "total (s)"],
                        rows,
                        title=(
                            f"\n{fs_label} — case {case_no}: total nodes = "
                            f"{cell.case.total_nodes}"
                        ),
                    )
                )
                blocks.append(
                    f"throughput {cell.throughput:.4f} CPIs/s    "
                    f"latency {cell.latency:.4f} s    "
                    f"(model: 1/max T = {m.model_throughput:.4f}, "
                    f"sum-path = {m.model_latency:.4f})"
                )
        return "\n".join(blocks)

    def render_charts(self) -> str:
        """Figure 5/6/7-style grouped bar charts (throughput, latency)."""
        thr = {
            fs: {
                f"{self.cell(fs, c).case.total_nodes} nodes": self.cell(fs, c).throughput
                for c in sorted({x.case.case_number for x in self.cells})
            }
            for fs in self.fs_labels()
        }
        lat = {
            fs: {
                f"{self.cell(fs, c).case.total_nodes} nodes": self.cell(fs, c).latency
                for c in sorted({x.case.case_number for x in self.cells})
            }
            for fs in self.fs_labels()
        }
        return (
            grouped_bar_chart(thr, title=f"{self.name}: throughput (CPIs/s)")
            + "\n\n"
            + grouped_bar_chart(lat, title=f"{self.name}: latency (s)", unit="s")
        )


def _sweep(
    name: str,
    pipeline: str,
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Run the paper's 3x3 grid for one pipeline structure."""
    params = params or STAPParams()
    cases = paper_cases(params)
    specs = [
        ExperimentSpec.for_case(pipeline, case, params, cfg, seed=seed)
        for case in cases
    ]
    results = _runner(runner).run(specs)
    out = ExperimentResult(name=name)
    for case, res in zip(cases, results):
        out.cells.append(CellResult(case, res))
    return out


def run_table1(
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Table 1 / Figure 5: I/O embedded in the Doppler task."""
    return _sweep("Table 1: embedded I/O", "embedded", params, cfg, runner, seed)


def run_table2(
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Table 2 / Figure 6: separate parallel-read task."""
    return _sweep("Table 2: separate I/O task", "separate", params, cfg, runner, seed)


def run_table3(
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Table 3 / Figure 7: pulse compression + CFAR combined."""
    return _sweep("Table 3: PC+CFAR combined", "combined", params, cfg, runner, seed)


@dataclass
class Table4Result:
    """Latency-improvement percentages per file system x case."""

    improvements: Dict[str, Dict[int, float]]  # fs label -> case -> %
    table1: ExperimentResult
    table3: ExperimentResult

    def render(self) -> str:
        fs_labels = list(self.improvements)
        cases = sorted(next(iter(self.improvements.values())))
        rows = [
            [fs] + [self.improvements[fs][c] for c in cases] for fs in fs_labels
        ]
        headers = ["file system"] + [f"case {c}" for c in cases]
        return format_table(
            headers,
            rows,
            title="Table 4: % latency improvement from combining PC + CFAR",
            float_fmt="{:.1f}%",
        )


def run_table4(
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    table1: Optional[ExperimentResult] = None,
    table3: Optional[ExperimentResult] = None,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> Table4Result:
    """Table 4: latency improvement of combining, per FS x case.

    Derived from Tables 1 and 3.  Pass those results directly, or pass a
    store-backed ``runner`` — a warm store serves their cells without
    re-simulating anything.
    """
    runner = _runner(runner)
    t1 = table1 or run_table1(params, cfg, runner, seed)
    t3 = table3 or run_table3(params, cfg, runner, seed)
    improvements: Dict[str, Dict[int, float]] = {}
    for fs in t1.fs_labels():
        improvements[fs] = {}
        for case_no in sorted({c.case.case_number for c in t1.cells}):
            lat7 = t1.cell(fs, case_no).latency
            lat6 = t3.cell(fs, case_no).latency
            improvements[fs][case_no] = (lat7 - lat6) / lat7 * 100.0
    return Table4Result(improvements, t1, t3)


@dataclass
class Fig8Result:
    """Figure 8: 7-task vs 6-task pipeline, throughput and latency."""

    series: Dict[str, Dict[str, Dict[int, float]]]  # metric -> variant -> case -> value
    fs_labels: List[str]

    def render(self) -> str:
        out = ["Figure 8: pipeline with vs without task combining"]
        for fs in self.fs_labels:
            thr = {
                variant: {
                    f"case {c}": v
                    for c, v in self.series["throughput"][f"{fs}|{variant}"].items()
                }
                for variant in ("7 tasks", "6 tasks")
            }
            lat = {
                variant: {
                    f"case {c}": v
                    for c, v in self.series["latency"][f"{fs}|{variant}"].items()
                }
                for variant in ("7 tasks", "6 tasks")
            }
            out.append(grouped_bar_chart(thr, title=f"{fs} — throughput (CPIs/s)"))
            out.append(grouped_bar_chart(lat, title=f"{fs} — latency (s)", unit="s"))
        return "\n\n".join(out)


def run_fig8(
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    table1: Optional[ExperimentResult] = None,
    table3: Optional[ExperimentResult] = None,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> Fig8Result:
    """Figure 8's comparison series, derived from Tables 1 and 3.

    As with :func:`run_table4`, a store-backed ``runner`` reuses the
    tables' cells instead of recomputing them.
    """
    runner = _runner(runner)
    t1 = table1 or run_table1(params, cfg, runner, seed)
    t3 = table3 or run_table3(params, cfg, runner, seed)
    series: Dict[str, Dict[str, Dict[int, float]]] = {"throughput": {}, "latency": {}}
    for fs in t1.fs_labels():
        for variant, exp in (("7 tasks", t1), ("6 tasks", t3)):
            key = f"{fs}|{variant}"
            series["throughput"][key] = {
                c: exp.cell(fs, c).throughput
                for c in sorted({x.case.case_number for x in exp.cells})
            }
            series["latency"][key] = {
                c: exp.cell(fs, c).latency
                for c in sorted({x.case.case_number for x in exp.cells})
            }
    return Fig8Result(series, t1.fs_labels())


# ---------------------------------------------------------------------------
# ablations beyond the paper's grid


def run_ablation_stripe_sweep(
    stripe_factors: Tuple[int, ...] = (4, 8, 16, 32, 64, 128),
    case_number: int = 3,
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
    screening: str = "off",
) -> Dict[int, PipelineResult]:
    """Locate the stripe-factor knee: case-3 throughput vs stripe factor.

    ``screening`` forwards to :class:`ExperimentSpec` — under
    ``"screen"`` the engine answers cells far from the knee with the
    calibrated surrogate (:mod:`repro.bench.surrogate`) and only
    simulates the contested ones.
    """
    base = _base(case_number, params, cfg, seed, screening=screening)
    return sweep(base, {"fs.stripe_factor": stripe_factors}, runner)


def run_ablation_bottleneck_migration(
    stripe_factors: Tuple[int, ...] = (4, 8, 16, 32, 64),
    case_number: int = 3,
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    interval: float = 0.25,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> Dict[int, PipelineResult]:
    """Watch the bottleneck *move* as stripe servers are added.

    Same sweep as :func:`run_ablation_stripe_sweep`, but with live
    metrics sampled every ``interval`` simulated seconds: at small
    stripe factors the disk-queue series dominates (the pipeline is
    I/O-bound, servers saturated, deep queues); as the stripe factor
    grows the queues drain and per-node compute utilization takes over
    as the binding resource.  Feed each cell to
    :func:`repro.obs.report.bottleneck_profile` to get the handoff as
    numbers.
    """
    base = _base(case_number, params, replace(cfg, metrics_interval=interval), seed)
    return sweep(base, {"fs.stripe_factor": stripe_factors}, runner)


def run_ablation_io_strategy(
    strategies: Tuple[str, ...] = (
        "embedded-io", "data-sieving", "collective-two-phase",
    ),
    stripe_factors: Tuple[int, ...] = (4, 16, 64),
    case_number: int = 3,
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> Dict[Tuple[str, int], PipelineResult]:
    """Cross I/O strategy with stripe factor: independent slab reads vs
    data sieving vs collective two-phase.

    In this reproduction the CPI file layout is range-major, so each
    node's slab is already one contiguous extent and the per-directory
    request coalescing leaves little for sieving or two-phase to win
    back — sieving adds alignment padding, two-phase trades balanced
    unit-aligned disk chunks for an extra redistribution exchange.  The
    ablation quantifies those modeled costs (and where two-phase's
    balanced chunks still help) rather than the classic noncontiguous-
    access wins; see docs/io_strategies.md.
    """
    return sweep(
        _base(case_number, params, cfg, seed),
        {"pipeline": strategies, "fs.stripe_factor": stripe_factors},
        runner,
    )


def run_ablation_noncontiguous(
    strategies: Tuple[str, ...] = (
        "embedded-io", "data-sieving", "collective-two-phase",
        "list-io", "server-directed",
    ),
    fs_kinds: Tuple[str, ...] = ("pfs", "piofs"),
    stripe_factors: Tuple[int, ...] = (4, 16, 64),
    case_number: int = 3,
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> Dict[Tuple[str, str, int], PipelineResult]:
    """The noncontiguous-access family against the PR-4 matrix.

    Crosses the two new strategies — list I/O (whole file-window access
    lists batched into one request per stripe directory) and
    server-directed placement (declared pattern remapped to contiguous
    directory blocks) — with the established independent/sieving/two-
    phase trio, on both file systems and across stripe factors.

    Cells a strategy cannot run on are *omitted*, not failed: list I/O
    needs the ``read_list`` call PIOFS lacks, and the async-only
    strategies fall back to synchronous reads on PIOFS via their
    adaptive readers.  Key: ``(strategy, fs_kind, stripe_factor)``.
    """
    from repro.strategies import get_strategy

    return sweep(
        _base(case_number, params, cfg, seed),
        {"pipeline": strategies, "fs.kind": fs_kinds,
         "fs.stripe_factor": stripe_factors},
        runner,
        where=lambda s: not get_strategy(s.pipeline).missing_capability(s.fs.kind),
    )


def run_ablation_async(
    case_number: int = 3,
    stripe_factor: int = 80,
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    preset: Optional[MachinePreset] = None,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> Dict[str, PipelineResult]:
    """Isolate the async-I/O effect: identical hardware, PFS vs PIOFS.

    The paper attributes the SP's poor scaling to PIOFS' missing async
    reads, but its SP and Paragon runs differ in *everything*.  This
    ablation holds the machine fixed (SP preset by default — fast CPUs
    make the in-cycle read visible, the regime where overlap matters)
    and flips only the file-system API.  Note the converse regime is
    also physical: once the stripe directories' disks are saturated, the
    pipeline beat is the disk cycle and overlap cannot help — reads of
    different nodes already overlap other nodes' computation.
    """
    base = _base(
        case_number, params, cfg, seed,
        machine=machine_key(preset or ibm_sp()),
        fs=FSConfig(stripe_factor=stripe_factor),
    )
    return sweep(base, {"fs.kind": ("pfs", "piofs")}, runner)


def run_ablation_combination_analysis(
    params: Optional[STAPParams] = None,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> Dict[str, object]:
    """§6 algebra checks, including the both-improve case (Eq. 15).

    The paper only *analyses* the case where a combined task is the
    bottleneck; this driver constructs it concretely: an assignment that
    deliberately starves pulse compression so T5 is the pipeline max,
    then verifies combining improves throughput *and* latency.
    """
    from repro.machine.presets import paragon
    from repro.stap.costs import STAPCosts

    params = params or STAPParams()
    costs = STAPCosts(params)
    # Deliberately unbalanced: starve PC so it is the bottleneck.
    a = NodeAssignment(
        doppler=8, easy_weight=2, hard_weight=2, easy_bf=5, hard_bf=4,
        pulse_compr=1, cfar=1,
    )
    fs = FSConfig(kind="pfs", stripe_factor=64)
    base = ExperimentSpec(
        assignment=a, pipeline="embedded", machine="paragon",
        fs=fs, params=params, seed=seed,
    )
    r7, r6 = _runner(runner).run([base, replace(base, pipeline="combined")])
    flops = paragon().node_spec.flops
    stats7 = r7.measurement.task_stats
    analysis = CombinationAnalysis(
        w_a=costs.pulse_compression_flops() / flops,
        w_b=costs.cfar_flops() / flops,
        p_a=a.pulse_compr,
        p_b=a.cfar,
        c_a=stats7["pulse_compr"].send,
        c_b=stats7["cfar"].send,
    )
    return {
        "bottlenecked": r7,
        "combined": r6,
        "analysis": analysis,
        "throughput_gain": r6.throughput / r7.throughput,
        "latency_gain": r7.latency / r6.latency,
    }


def run_ablation_straggler_disk(
    slow_factors: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
    case_number: int = 3,
    stripe_factor: int = 64,
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> Dict[float, PipelineResult]:
    """Fault injection: one degraded stripe directory among many.

    Every node's read touches many stripe directories and completes only
    when the slowest run does, so a single straggler disk throttles the
    whole read phase — striping's classic tail-latency weakness.  This
    sweep degrades directory 0's media rate and request overhead by
    ``slow_factor`` and measures the pipeline at an otherwise healthy
    configuration (case 3, stripe factor 64).
    """
    base = _base(
        case_number, params, cfg, seed,
        fs=FSConfig(stripe_factor=stripe_factor), disk_fault=DiskFault(server=0),
    )
    return sweep(base, {"disk_fault.slow_factor": slow_factors}, runner)


def run_ablation_straggler_node(
    slow_factors: Tuple[float, ...] = (1.0, 2.0, 4.0),
    case_number: int = 1,
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> Dict[float, PipelineResult]:
    """Fault injection: one degraded *compute* node in the Doppler task.

    A data-parallel task finishes when its slowest node does, so one
    slow node drags its whole task's time — and, through Eq. 1, the
    whole pipeline's throughput, no matter how many healthy nodes the
    task has.  The dual of the disk straggler: tail latency in compute
    instead of I/O.
    """
    # Node 0 belongs to the Doppler task.
    base = _base(case_number, params, cfg, seed, node_fault=NodeFault(node=0))
    return sweep(base, {"node_fault.slow_factor": slow_factors}, runner)


def run_ablation_writer_interference(
    case_number: int = 3,
    stripe_factor: int = 16,
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> Dict[str, PipelineResult]:
    """Read/write interference: pipeline alone vs with a live radar writer.

    The paper stages reads and writes "at different times" to minimise
    interference; this ablation quantifies what happens when the radar
    writes future CPIs into the same stripe directories while the
    pipeline reads.  The writer's period is locked to the quiet run's
    measured throughput, so the noisy spec is fully declarative (and
    cacheable) once the quiet cell is known.
    """
    runner = _runner(runner)
    quiet_spec = _base(case_number, params, cfg, seed,
                       fs=FSConfig(stripe_factor=stripe_factor))
    quiet = runner.run_one(quiet_spec)
    period = 1.0 / max(quiet.throughput, 1e-9)
    noisy = runner.run_one(
        replace(
            quiet_spec,
            writer=WriterLoad(
                period=period,
                n_cpis=cfg.n_cpis,
                start_cpi=cfg.n_cpis,        # writes future CPIs
                initial_delay=period / 2.0,  # staggered from the reads
            ),
        )
    )
    return {"quiet": quiet, "with_writer": noisy}


def run_ablation_server_outage(
    outage_durations: Tuple[float, ...] = (0.5, 2.0),
    replications: Tuple[int, ...] = (1, 2),
    case_number: int = 1,
    stripe_factor: int = 4,
    read_deadline="auto",
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> Dict[Tuple[int, float], PipelineResult]:
    """Fault tolerance: a stripe server drops out mid-run.

    With few stripe directories, every slab read touches every server,
    so losing one takes the whole read phase hostage: without
    replication the clients can only back off and retry until the
    server returns (or drop CPIs at the read deadline), collapsing
    throughput.  With ``replication=2`` (chained-declustered mirrors)
    reads fail over to the neighbour directory and the outage merely
    dents throughput — the paper's I/O-bound pipeline becomes
    survivable.

    Directory 0 crashes at 30% of the healthy run's span.  Durations are
    simulated seconds; ``float("inf")`` means a permanent crash.  Each
    ``(replication, duration)`` cell is returned keyed by that pair;
    duration ``0.0`` cells are fault-free baselines.  ``read_deadline``
    is the per-CPI degradation deadline: ``"auto"`` picks four healthy
    pipeline beats, ``None`` disables dropping (reads stall through the
    outage), a float is used as-is.
    """
    runner = _runner(runner)
    base = _base(case_number, params, cfg, seed,
                 fs=FSConfig(stripe_factor=stripe_factor))

    # Calibrate crash time and deadline off the healthy run.
    quiet = runner.run_one(base)
    beat = 1.0 / max(quiet.throughput, 1e-9)
    deadline = 4.0 * beat if read_deadline == "auto" else read_deadline
    at_time = 0.3 * quiet.elapsed_sim_time
    crashes = {
        dur: None if dur <= 0 else ServerCrash(
            server=0, at_time=at_time,
            down_for=None if dur == float("inf") else dur,
        )
        for dur in (0.0,) + tuple(outage_durations)
    }
    return sweep(
        replace(base, cfg=replace(cfg, read_deadline=deadline)),
        {"fs.replication": replications, "server_crash": crashes},
        runner,
    )


def run_ablation_flaky_disk(
    error_rates: Tuple[float, ...] = (0.0, 0.05, 0.2),
    replications: Tuple[int, ...] = (1, 2),
    case_number: int = 1,
    stripe_factor: int = 4,
    flaky_seed: int = 0,
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> Dict[Tuple[int, float], PipelineResult]:
    """Fault tolerance: one stripe server fails requests at random.

    Directory 0 fails a deterministic pseudo-random ``error_rate``
    fraction of its requests (transient errors).  Unreplicated clients
    must re-queue the request on the same flaky disk after a backoff;
    with ``replication=2`` the first retry goes to the mirror instead,
    absorbing errors at roughly the cost of one extra hop.  Returns one
    cell per ``(replication, error_rate)`` pair; rate ``0.0`` cells are
    fault-free baselines.
    """
    flaky = {
        rate: None if rate <= 0 else FlakyDisk(
            server=0, error_rate=rate, seed=flaky_seed
        )
        for rate in error_rates
    }
    return sweep(
        _base(case_number, params, cfg, seed,
              fs=FSConfig(stripe_factor=stripe_factor)),
        {"fs.replication": replications, "flaky_disk": flaky},
        runner,
    )


@dataclass
class InterferenceAblation:
    """Result of :func:`run_ablation_interference`.

    ``solos`` holds the single-tenant baselines keyed by
    ``(stripe_factor, strategy)``; ``scaling`` the 1..N mixed-tenant
    scenarios keyed by ``(stripe_factor, n_tenants)``; ``pairs`` the
    two-tenant strategy-pair cells keyed by ``(strategy_a, strategy_b)``
    (run at ``pair_stripe_factor``).  Degradation is a tenant's
    throughput divided by its strategy's solo throughput at the same
    stripe factor — 1.0 means unaffected, 0.5 means the neighbour cost
    it half its throughput.
    """

    strategies: Tuple[str, ...]
    solos: Dict[Tuple[int, str], object]
    scaling: Dict[Tuple[int, int], object]
    pairs: Dict[Tuple[str, str], object]
    pair_stripe_factor: int
    read_deadline: Optional[float]

    def degradation(self, sf: int, strategy: str, throughput: float) -> float:
        """Throughput as a fraction of the strategy's solo baseline."""
        solo = self.solos[(sf, strategy)]
        base = next(iter(solo.tenants.values())).throughput
        return throughput / base if base > 0 else 0.0

    def pair_score(self, key: Tuple[str, str]) -> float:
        """Mean degradation of a pair's two tenants (lower = worse)."""
        scenario = self.pairs[key]
        sf = self.pair_stripe_factor
        fracs = [
            self.degradation(sf, t.pipeline, scenario.tenants[name].throughput)
            for name, t in zip(scenario.spec.tenant_names(),
                               scenario.spec.tenants)
        ]
        return sum(fracs) / len(fracs)

    def render(self) -> str:
        """The ablation's artifact: scaling table + ranked pair matrix."""
        out = []
        if self.read_deadline is not None:
            out.append(
                f"per-CPI read deadline in contended cells: "
                f"{self.read_deadline:.4f} s (drops, not stalls)"
            )
        rows = []
        for (sf, n), scenario in sorted(self.scaling.items()):
            for name, t in zip(scenario.spec.tenant_names(),
                               scenario.spec.tenants):
                r = scenario.tenants[name]
                rows.append([
                    sf, n, name, t.pipeline,
                    r.throughput,
                    self.degradation(sf, t.pipeline, r.throughput),
                    len(r.dropped_cpis or ()),
                ])
        out.append(format_table(
            ["sf", "tenants", "tenant", "strategy", "CPIs/s", "x solo",
             "dropped"],
            rows,
            title="Tenant scaling on one shared PFS (case-1 tenants, "
                  "mixed strategies)",
            float_fmt="{:.4f}",
        ))
        ranked = sorted(self.pairs, key=self.pair_score)
        rows = []
        for key in ranked:
            scenario = self.pairs[key]
            names = scenario.spec.tenant_names()
            fracs = [
                self.degradation(
                    self.pair_stripe_factor, t.pipeline,
                    scenario.tenants[name].throughput,
                )
                for name, t in zip(names, scenario.spec.tenants)
            ]
            drops = sum(len(scenario.tenants[n].dropped_cpis or ())
                        for n in names)
            rows.append([
                f"{key[0]} + {key[1]}",
                fracs[0], fracs[1],
                self.pair_score(key), drops,
            ])
        out.append(format_table(
            ["pair", "t0 x solo", "t1 x solo", "mean x solo", "dropped"],
            rows,
            title=f"\nStrategy-pair interference (2 tenants, PFS "
                  f"sf={self.pair_stripe_factor}; worst pairs first)",
            float_fmt="{:.4f}",
        ))
        return "\n".join(out)


def run_ablation_interference(
    tenant_counts: Tuple[int, ...] = (1, 2, 3, 4),
    strategies: Tuple[str, ...] = ("embedded-io", "separate-io"),
    stripe_factors: Tuple[int, ...] = (4, 16),
    case_number: int = 1,
    read_deadline="auto",
    params: Optional[STAPParams] = None,
    cfg: ExecutionConfig = DEFAULT_CFG,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> InterferenceAblation:
    """Multi-tenant interference: N pipelines contending for one PFS.

    The paper evaluates each I/O strategy with the machine to itself;
    this ablation shares the stripe directories (and the mesh) between
    1..N tenant pipelines and measures what each tenant keeps of its
    solo throughput.  Two sweeps:

    * **scaling** — for each stripe factor, grow the tenant count;
      tenant *i* runs ``strategies[i % len(strategies)]`` so the mix
      stays fixed while contention grows;
    * **pairs** — every unordered strategy pair as a two-tenant
      scenario at the smallest stripe factor, ranking which strategy
      pairs interfere worst.

    ``read_deadline="auto"`` derives a per-CPI deadline from the slowest
    solo baseline (two pipeline beats), so contended tenants *drop*
    late CPIs — surfacing degradation as both lost throughput and a
    drop count.  Solo baselines run without a deadline.  Pass ``None``
    to let contended reads stall instead, or a float to use as-is.
    """
    from repro.scenario import ScenarioSpec, TenantSpec

    params = params or STAPParams()
    runner = _runner(runner)
    a = NodeAssignment.case(case_number, params)

    def tenants(names, tenant_cfg: ExecutionConfig) -> tuple:
        return tuple(
            TenantSpec(assignment=a, pipeline=strategy, cfg=tenant_cfg)
            for strategy in names
        )

    pair_sf = min(stripe_factors)
    base = ScenarioSpec(
        tenants=tenants(strategies[:1], cfg),
        machine="paragon",
        fs=FSConfig(kind="pfs", stripe_factor=pair_sf),
        params=params,
        seed=seed,
    )

    # Solo baselines: every (stripe factor, strategy), deadline-free.
    solos = sweep(base, {
        "fs.stripe_factor": stripe_factors,
        "tenants": {s: tenants((s,), cfg) for s in strategies},
    }, runner)

    deadline: Optional[float]
    if read_deadline == "auto":
        slowest = min(
            next(iter(r.tenants.values())).throughput for r in solos.values()
        )
        deadline = 2.0 / max(slowest, 1e-9)
    else:
        deadline = read_deadline
    contended_cfg = replace(cfg, read_deadline=deadline)

    # Tenant scaling: same strategy mix, growing contention.
    scaling = sweep(base, {
        "fs.stripe_factor": stripe_factors,
        "tenants": {
            n: tenants((strategies[i % len(strategies)] for i in range(n)),
                       contended_cfg)
            for n in tenant_counts
        },
    }, runner)

    # Pair matrix: every unordered strategy pair at the tightest sf.
    pairs = sweep(base, {"tenants": {
        key: tenants(key, contended_cfg)
        for key in itertools.combinations_with_replacement(strategies, 2)
    }}, runner)

    return InterferenceAblation(
        strategies=strategies,
        solos=solos,
        scaling=scaling,
        pairs=pairs,
        pair_stripe_factor=pair_sf,
        read_deadline=deadline,
    )
