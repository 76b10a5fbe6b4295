"""Command-line interface: run pipelines and experiments from a shell.

Examples::

    python -m repro info
    python -m repro run --case 3 --fs pfs --stripe-factor 16
    python -m repro run --pipeline separate --machine sp --fs piofs
    python -m repro run --strategy collective-two-phase --fs pfs
    python -m repro profile --pipeline list-io --case 1 --cpis 4
    python -m repro run --case 3 --metrics --metrics-interval 0.25
    python -m repro metrics show <hash-prefix>
    python -m repro strategies list
    python -m repro strategies smoke
    python -m repro table 1
    python -m repro table 4 --jobs 4
    python -m repro profile --case 3 --cpis 4 --output cell.pstats
    python -m repro detect --cpis 4
    python -m repro sweep-stripe --factors 4,8,16,32,64
    python -m repro reproduce --jobs 4
    python -m repro results list --sort size
    python -m repro results show <hash-prefix>
    python -m repro results clear
    python -m repro serve --workers 4
    python -m repro submit --case 1,2,3 --stripe-factor 16,64 --follow
    python -m repro jobs list
    python -m repro analyze results/ --format text
    python -m repro analyze results/ .cache/experiments --format html --out report.html
    python -m repro dash --service-port 7077 --results results/

Sweep commands run their cells through the declarative experiment
engine: ``--jobs N`` simulates cells in N worker processes, and results
are cached content-addressed under ``--cache-dir`` (default
``.cache/experiments``) so re-runs and derived tables reuse identical
cells; ``--no-cache`` opts out.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional

from repro.bench import DEFAULT_CACHE_DIR
from repro.errors import ReproError

__all__ = ["main", "build_parser"]

_MACHINE_CHOICES = ("paragon", "sp")


def _pipeline_name(name: str) -> str:
    """``--pipeline``'s check against the registry.  argparse runs it on
    the parsed value only, so building the parser and ``--help`` load no
    spec layer."""
    from repro.bench.engine import PIPELINES

    if name not in PIPELINES:
        choices = ", ".join(map(repr, sorted(PIPELINES)))
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {choices})"
        )
    return name


def _add_cell_opts(p: argparse.ArgumentParser, lists: bool = False) -> None:
    """Flags naming one experiment cell, shared by run/profile/submit.

    With ``lists`` (submit), ``--case`` and ``--stripe-factor`` take
    comma-separated values and the command expands their product.
    """
    p.add_argument("--pipeline", "--strategy", dest="pipeline",
                   type=_pipeline_name, default="embedded", metavar="NAME",
                   help="registered I/O strategy (see 'repro strategies "
                   "list') or legacy pipeline key; --strategy is an alias")
    if lists:
        p.add_argument("--case", default="1",
                       help="comma-separated paper cases, e.g. 1,2,3")
        p.add_argument("--stripe-factor", default="64",
                       help="comma-separated stripe factors, e.g. 16,32,64")
    else:
        p.add_argument("--case", type=int, choices=(1, 2, 3), default=1,
                       help="paper node-assignment case (25/50/100 nodes)")
        p.add_argument("--stripe-factor", type=int, default=64)
    p.add_argument("--machine", choices=_MACHINE_CHOICES, default="paragon")
    p.add_argument("--fs", choices=("pfs", "piofs"), default="pfs")
    p.add_argument("--cpis", type=int, default=8)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--seed", type=int, default=0,
                   help="experiment seed (part of the cache key)")


def _cell_spec(
    args, case: Optional[int] = None, stripe_factor: Optional[int] = None
) -> ExperimentSpec:
    """The experiment cell the :func:`_add_cell_opts` flags name.

    ``case``/``stripe_factor`` stand in for those flags when they hold
    lists (submit).
    """
    from repro.bench.engine import ExperimentSpec
    from repro.core.context import ExecutionConfig
    from repro.core.executor import FSConfig
    from repro.core.pipeline import NodeAssignment
    from repro.stap.params import STAPParams

    params = STAPParams()
    case = args.case if case is None else case
    sf = args.stripe_factor if stripe_factor is None else stripe_factor
    return ExperimentSpec(
        assignment=NodeAssignment.case(case, params),
        pipeline=args.pipeline,
        machine=args.machine,
        fs=FSConfig(kind=args.fs, stripe_factor=sf),
        params=params,
        cfg=ExecutionConfig(n_cpis=args.cpis, warmup=args.warmup),
        seed=args.seed,
    )


def _add_engine_opts(p: argparse.ArgumentParser) -> None:
    """Experiment-engine knobs shared by run/table/reproduce/sweep-stripe."""
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for simulation cells (default 1)")
    p.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                   help="content-addressed result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="neither read nor write the result cache")


def _make_runner(args) -> SweepRunner:
    """A SweepRunner configured from the engine CLI options."""
    from repro.bench.engine import SweepRunner
    from repro.bench.store import ResultStore

    store = None if args.no_cache else ResultStore(args.cache_dir)
    return SweepRunner(jobs=args.jobs, store=store)


def build_parser() -> argparse.ArgumentParser:
    """The repro command-line argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel pipelined STAP with simulated parallel I/O "
        "(reproduction of Liao et al., IPPS 2000).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one pipeline configuration")
    _add_cell_opts(p_run)
    p_run.add_argument("--replication", type=int, default=1,
                       help="stripe-unit mirror copies (chained declustering); "
                       ">1 lets reads fail over and mirrors writes")
    p_run.add_argument("--hint", action="append", default=[], metavar="K=V",
                       help="ROMIO-style file-system hint (repeatable): "
                       "sieve_buffer_size, cb_nodes, or list_io_max_runs")
    p_run.add_argument("--read-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-CPI read deadline; late CPIs are dropped "
                       "instead of stalling the pipeline")
    p_run.add_argument("--crash-server", type=int, default=None, metavar="N",
                       help="inject an outage on stripe server N")
    p_run.add_argument("--crash-at", type=float, default=0.0, metavar="T",
                       help="simulated time of the outage (default 0)")
    p_run.add_argument("--crash-down", type=float, default=None, metavar="D",
                       help="outage duration; omit for a permanent crash")
    p_run.add_argument("--flaky-server", type=int, default=None, metavar="N",
                       help="stripe server N fails a fraction of requests")
    p_run.add_argument("--flaky-rate", type=float, default=0.1, metavar="P",
                       help="per-request error probability (default 0.1)")
    p_run.add_argument("--flaky-seed", type=int, default=0,
                       help="seed of the flaky-disk error stream")
    p_run.add_argument("--screening", choices=("off", "screen", "predict-all"),
                       default="off",
                       help="surrogate screening: 'screen' answers cells the "
                            "calibrated analytic model can decide without "
                            "simulating (see repro.bench.surrogate); "
                            "'predict-all' never simulates")
    p_run.add_argument("--threaded", action="store_true",
                       help="SMP phase-threaded nodes (IPPS'99 design)")
    p_run.add_argument("--metrics", action="store_true",
                       help="sample live metrics during the run and write "
                       "the time-series artifacts (see docs/observability.md)")
    p_run.add_argument("--metrics-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="simulated-time sampling interval "
                       "(implies --metrics; default 0.1)")
    p_run.add_argument("--metrics-dir", default="results/metrics",
                       help="directory for the metrics artifacts "
                       "(default results/metrics)")
    _add_engine_opts(p_run)

    p_table = sub.add_parser("table", help="regenerate a paper table (1-4)")
    p_table.add_argument("number", type=int, choices=(1, 2, 3, 4))
    p_table.add_argument("--cpis", type=int, default=8)
    p_table.add_argument("--warmup", type=int, default=2)
    _add_engine_opts(p_table)

    p_prof = sub.add_parser(
        "profile",
        help="profile one pipeline configuration under cProfile",
    )
    _add_cell_opts(p_prof)
    p_prof.add_argument("--lines", type=int, default=25,
                        help="rows of the profile to print (default 25)")
    p_prof.add_argument("--sort", choices=("tottime", "cumtime", "ncalls"),
                        default="tottime", help="profile sort key")
    p_prof.add_argument("--queue-stats", action="store_true",
                        help="after the profile table, print the kernel's "
                             "event-queue statistics (lane/heap split, "
                             "clock advances, live and peak heap size)")
    p_prof.add_argument("--output", default=None, metavar="FILE",
                        help="also dump raw pstats data to FILE "
                        "(inspect with python -m pstats)")

    p_det = sub.add_parser("detect", help="compute-mode detection demo")
    p_det.add_argument("--cpis", type=int, default=3)
    p_det.add_argument("--seed", type=int, default=7)
    p_det.add_argument("--nodes", type=int, default=20)

    p_sw = sub.add_parser("sweep-stripe", help="stripe-factor throughput sweep")
    p_sw.add_argument("--factors", default="4,8,16,32,64,128",
                      help="comma-separated stripe factors")
    p_sw.add_argument("--case", type=int, choices=(1, 2, 3), default=3)
    p_sw.add_argument("--cpis", type=int, default=8)
    p_sw.add_argument("--screening", choices=("off", "screen", "predict-all"),
                      default="off",
                      help="let the calibrated surrogate answer cells the "
                           "analytic model can decide (repro.bench.surrogate)")
    _add_engine_opts(p_sw)

    p_rep = sub.add_parser(
        "reproduce",
        help="regenerate every paper table/figure artifact into a directory",
    )
    p_rep.add_argument("--out", default="results", help="output directory")
    p_rep.add_argument("--cpis", type=int, default=8)
    p_rep.add_argument("--warmup", type=int, default=2)
    _add_engine_opts(p_rep)

    p_res = sub.add_parser(
        "results", help="list/inspect/clear the cached experiment results"
    )
    p_res.add_argument("action", choices=("list", "show", "clear"))
    p_res.add_argument("hash", nargs="?", default=None,
                       help="spec hash (any unique prefix) for 'show'")
    p_res.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                       help="content-addressed result cache directory")
    p_res.add_argument("--sort", choices=("size", "age"), default=None,
                       help="order 'list' by entry size or by recency "
                       "(default: spec hash)")

    p_met = sub.add_parser(
        "metrics", help="inspect the metrics artifact of a cached or saved run"
    )
    p_met.add_argument("action", choices=("show",))
    p_met.add_argument("target",
                       help="spec hash (any unique prefix) from the result "
                       "cache, or a path to a metrics/result JSON file")
    p_met.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                       help="content-addressed result cache directory")
    p_met.add_argument("--top", type=int, default=8,
                       help="series rows in the summary (default 8)")

    p_sp = sub.add_parser(
        "spectrum", help="render the angle-Doppler spectrum of a synthetic scene"
    )
    p_sp.add_argument("--seed", type=int, default=3)
    p_sp.add_argument("--estimator", choices=("mvdr", "fourier"), default="mvdr")
    p_sp.add_argument("--cnr-db", type=float, default=30.0)
    p_sp.add_argument("--jnr-db", type=float, default=30.0)

    p_strat = sub.add_parser(
        "strategies", help="list registered I/O strategies or smoke-test them"
    )
    p_strat.add_argument("action", choices=("list", "smoke"))
    p_strat.add_argument("--fs", choices=("pfs", "piofs"), default="pfs",
                         help="file system for 'smoke' (default pfs)")
    p_strat.add_argument("--stripe-factor", type=int, default=8)

    p_srv = sub.add_parser(
        "serve", help="run the experiment service (scheduler behind TCP)"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=7077,
                       help="TCP port (0 picks a free one; default 7077)")
    p_srv.add_argument("--workers", type=int, default=0,
                       help="persistent worker processes (0 = in-process)")
    p_srv.add_argument("--backpressure", type=int, default=64,
                       help="max undelivered cells per job before its "
                       "dispatch pauses (default 64)")
    p_srv.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                       help="shared content-addressed result cache")
    p_srv.add_argument("--no-cache", action="store_true",
                       help="run the service without the shared cache")

    p_sub = sub.add_parser(
        "submit", help="submit an experiment batch to a running service"
    )
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, default=7077)
    p_sub.add_argument("--client", default=None,
                       help="client name for fair queueing "
                       "(default: the OS user name)")
    p_sub.add_argument("--label", default="",
                       help="free-form job label shown in 'repro jobs list'")
    p_sub.add_argument("--follow", action="store_true",
                       help="stream results back as cells complete")
    _add_cell_opts(p_sub, lists=True)

    p_jobs = sub.add_parser(
        "jobs", help="list/inspect/cancel jobs on a running service"
    )
    p_jobs.add_argument("action", choices=("list", "show", "cancel"))
    p_jobs.add_argument("id", nargs="?", default=None,
                        help="job id for 'show'/'cancel'")
    p_jobs.add_argument("--host", default="127.0.0.1")
    p_jobs.add_argument("--port", type=int, default=7077)

    p_scn = sub.add_parser(
        "scenario",
        help="run a multi-tenant scenario (N pipelines on one shared PFS)",
    )
    p_scn.add_argument("action", choices=("run",))
    p_scn.add_argument("--spec", default=None, metavar="FILE",
                       help="JSON ScenarioSpec file ('-' for stdin); "
                       "overrides the tenant/arrival flags below")
    p_scn.add_argument("--tenant", action="append", default=[],
                       metavar="PIPELINE[:CASE]", dest="tenants",
                       help="add one tenant (repeatable): a PIPELINES "
                       "registry name, optionally with a paper case, e.g. "
                       "embedded-io or separate-io:2 "
                       "(default: two embedded-io case-1 tenants)")
    p_scn.add_argument("--machine", choices=_MACHINE_CHOICES, default="paragon")
    p_scn.add_argument("--fs", choices=("pfs", "piofs"), default="pfs")
    p_scn.add_argument("--stripe-factor", type=int, default=8)
    p_scn.add_argument("--cpis", type=int, default=8)
    p_scn.add_argument("--warmup", type=int, default=2)
    p_scn.add_argument("--seed", type=int, default=0)
    p_scn.add_argument("--arrival", choices=("fixed", "poisson", "jittered",
                                             "burst"), default="fixed",
                       help="CPI arrival process for every tenant "
                       "(default fixed: back-to-back, as standalone runs)")
    p_scn.add_argument("--period", type=float, default=0.0,
                       help="mean inter-arrival period in simulated seconds "
                       "(0 with --arrival fixed means no gating)")
    p_scn.add_argument("--offset", type=float, default=0.0,
                       help="arrival time of CPI 0 (fixed/burst trains)")
    p_scn.add_argument("--jitter", type=float, default=0.0,
                       help="uniform +/- jitter for --arrival jittered")
    p_scn.add_argument("--burst-size", type=int, default=1,
                       help="CPIs per burst for --arrival burst")
    p_scn.add_argument("--burst-gap", type=float, default=0.0,
                       help="intra-burst spacing for --arrival burst")
    p_scn.add_argument("--arrival-seed", type=int, default=0,
                       help="seed of the stochastic arrival stream")
    p_scn.add_argument("--read-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-CPI read deadline for every tenant; late "
                       "CPIs are dropped instead of stalling the pipeline")
    p_scn.add_argument("--metrics-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="sample tenant-labelled metrics at this "
                       "simulated-time interval")
    p_scn.add_argument("--gantt", action="store_true",
                       help="render the multi-pipeline Gantt chart")
    p_scn.add_argument("--json", default=None, metavar="FILE",
                       help="also write the full ScenarioResult JSON")

    p_an = sub.add_parser(
        "analyze",
        help="offline sweep analysis over result artifacts and caches",
    )
    p_an.add_argument("sources", nargs="+", metavar="SOURCE",
                      help="artifact directory, result/metrics JSON file, or "
                      "cached-result hash prefix (repeatable; directories "
                      "pick up *.json artifacts and ablation *.txt tables)")
    p_an.add_argument("--format", choices=("text", "json", "html"),
                      default="text", dest="fmt",
                      help="output rendering (default text)")
    p_an.add_argument("--out", default=None, metavar="FILE",
                      help="write the rendering to FILE instead of stdout")
    p_an.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                      help="result cache used to resolve hash sources")
    p_an.add_argument("--store", action="store_true",
                      help="also join every entry of --cache-dir into the "
                      "analysis (zero new simulations)")

    p_dash = sub.add_parser(
        "dash", help="serve the live dashboard for a running service"
    )
    p_dash.add_argument("--host", default="127.0.0.1",
                        help="dashboard bind address (default 127.0.0.1)")
    p_dash.add_argument("--port", type=int, default=7078,
                        help="dashboard HTTP port (0 picks a free one; "
                        "default 7078)")
    p_dash.add_argument("--service-host", default="127.0.0.1",
                        help="host of the repro service to watch")
    p_dash.add_argument("--service-port", type=int, default=7077,
                        help="TCP port of 'repro serve' (default 7077)")
    p_dash.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                        help="result cache backing the run browser")
    p_dash.add_argument("--no-cache", action="store_true",
                        help="serve without the stored-run browser")
    p_dash.add_argument("--results", default=None, metavar="DIR",
                        help="artifact directory joined into /report "
                        "(e.g. results/)")

    sub.add_parser("info", help="show dimensions, costs, and node assignments")
    return parser


def _parse_hints(pairs: List[str]) -> Dict[str, int]:
    """Parse repeated ``--hint k=v`` options into FSConfig hint kwargs."""
    from repro.core.executor import FSConfig

    hints: Dict[str, int] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or key not in FSConfig.HINT_FIELDS:
            raise ReproError(
                f"unknown hint {pair!r}; use k=v with k in "
                f"{', '.join(FSConfig.HINT_FIELDS)}"
            )
        try:
            hints[key] = int(value)
        except ValueError:
            raise ReproError(
                f"hint {key} needs an integer value, got {value!r}"
            ) from None
    return hints


def _cmd_run(args) -> int:
    from repro.bench.engine import FlakyDisk, ServerCrash
    from repro.trace.report import format_table

    if args.read_deadline is not None and args.read_deadline <= 0:
        raise ReproError(
            f"--read-deadline must be > 0 seconds, got {args.read_deadline}"
        )
    metrics_on = args.metrics or args.metrics_interval is not None
    if metrics_on and args.jobs > 1:
        raise ReproError(
            "--metrics runs in-process (the sampler hooks the live kernel); "
            "drop --jobs or run without metrics"
        )
    metrics_interval = None
    if metrics_on:
        metrics_interval = (
            args.metrics_interval if args.metrics_interval is not None else 0.1
        )
    server_crash = None
    if args.crash_server is not None:
        server_crash = ServerCrash(
            server=args.crash_server, at_time=args.crash_at,
            down_for=args.crash_down,
        )
    flaky_disk = None
    if args.flaky_server is not None:
        flaky_disk = FlakyDisk(
            server=args.flaky_server, error_rate=args.flaky_rate,
            seed=args.flaky_seed,
        )
    cell = _cell_spec(args)
    exp = replace(
        cell,
        fs=replace(cell.fs, replication=args.replication,
                   **_parse_hints(args.hint)),
        cfg=replace(cell.cfg, threaded=args.threaded,
                    read_deadline=args.read_deadline,
                    metrics_interval=metrics_interval),
        server_crash=server_crash,
        flaky_disk=flaky_disk,
        screening=args.screening,
    )
    runner = _make_runner(args)
    result = runner.run_one(exp)
    spec = result.spec
    m = result.measurement
    rows = [
        (name, s.recv, s.compute, s.send, s.total)
        for name, s in m.task_stats.items()
    ]
    print(
        format_table(
            ["task", "recv (s)", "compute (s)", "send (s)", "T_i (s)"],
            rows,
            title=(
                f"{result.machine_name}, {result.fs_label}, {spec.name}, "
                f"case {args.case} ({spec.total_nodes} nodes)"
                + (", SMP-threaded" if args.threaded else "")
            ),
        )
    )
    print(f"\nthroughput : {result.throughput:.4f} CPIs/s")
    print(f"latency    : {result.latency:.4f} s")
    print(f"bottleneck : {m.bottleneck_task}")
    if result.source == "predicted":
        bound = result.prediction_bound
        print(
            "surrogate  : predicted by the analytic model, not simulated"
            + (f" (error bound ±{bound:.0%})" if bound is not None else "")
        )
    if result.dropped_cpis is not None:
        print(f"dropped    : {len(result.dropped_cpis)} CPI reads past deadline")
    if result.disk_stats and "requests_failed_per_server" in result.disk_stats:
        failed = result.disk_stats["requests_failed_per_server"]
        outages = result.disk_stats["outages_per_server"]
        print(
            f"faults     : {sum(failed)} failed requests, "
            f"{sum(outages)} server outage(s)"
        )
    if metrics_on:
        _emit_metrics_artifacts(result, exp, args.metrics_dir)
    if runner.cache_hits:
        print(f"(cell {exp.short_hash()} served from cache)")
    return 0


def _emit_metrics_artifacts(result, exp, metrics_dir: str) -> None:
    """Write the run's metrics artifacts and print the live summary."""
    import pathlib

    from repro.obs import render_metrics_summary
    from repro.trace.export import (
        write_chrome_trace,
        write_metrics_json,
        write_prometheus,
    )

    out = pathlib.Path(metrics_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = exp.short_hash()
    paths = [
        write_metrics_json(result, str(out / f"{stem}.metrics.json"), pretty=True),
        write_prometheus(result, str(out / f"{stem}.prom")),
        write_chrome_trace(result, str(out / f"{stem}.trace.json")),
    ]
    print()
    print(render_metrics_summary(result.metrics))
    for p in paths:
        print(f"wrote {p}")


def _cmd_metrics(args) -> int:
    """Render the metrics artifact of a cached result or a JSON file."""
    from repro.analysis import load
    from repro.obs import render_metrics_summary, validate_metrics_dict

    # One resolver for every artifact shape: a file path (bare metrics,
    # structured-result envelope, raw result dict) or a cache hash prefix.
    loaded = load(args.target, cache_dir=args.cache_dir)
    metrics = loaded.metrics
    if metrics is None:
        print(
            "error: this result carries no metrics artifact; re-run the "
            "cell with 'repro run --metrics' (or metrics_interval= in "
            "ExecutionConfig)",
            file=sys.stderr,
        )
        return 2
    problems = validate_metrics_dict(metrics)
    if problems:
        print("error: malformed metrics artifact:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 2
    print(render_metrics_summary(metrics, top=args.top))
    return 0


def _cmd_table(args) -> int:
    from repro.bench.experiments import run_table1, run_table2, run_table3, run_table4
    from repro.core.context import ExecutionConfig

    cfg = ExecutionConfig(n_cpis=args.cpis, warmup=args.warmup)
    runner = _make_runner(args)
    if args.number == 1:
        print(run_table1(cfg=cfg, runner=runner).render())
    elif args.number == 2:
        print(run_table2(cfg=cfg, runner=runner).render())
    elif args.number == 3:
        print(run_table3(cfg=cfg, runner=runner).render())
    else:
        print(run_table4(cfg=cfg, runner=runner).render())
    return 0


def _cmd_profile(args) -> int:
    """Simulate one cell under cProfile and print the hottest functions.

    The cell always executes (no result cache involved), so the profile
    reflects the simulation itself rather than cache I/O.
    """
    import cProfile
    import pstats

    from repro.bench.engine import build_executor

    spec = _cell_spec(args)
    # Build outside the profile so only the simulation itself is timed;
    # keeping the executor also keeps its kernel for --queue-stats.
    ex = build_executor(spec)
    profiler = cProfile.Profile()
    profiler.enable()
    result = ex.run()
    profiler.disable()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    print(
        f"profiled {args.pipeline}, case {args.case} on {args.machine}/{args.fs} "
        f"sf={args.stripe_factor}: {stats.total_calls} function calls, "
        f"throughput {result.throughput:.4f} CPIs/s"
    )
    stats.sort_stats(args.sort).print_stats(args.lines)
    if args.queue_stats:
        from repro.analysis import render_queue_stats

        print(render_queue_stats(ex.kernel.queue_stats()))
    if args.output:
        stats.dump_stats(args.output)
        print(f"raw pstats data written to {args.output}")
    return 0


def _cmd_detect(args) -> int:
    import numpy as np

    from repro.core.context import ExecutionConfig
    from repro.core.executor import FSConfig, PipelineExecutor
    from repro.core.pipeline import NodeAssignment, build_embedded_pipeline
    from repro.machine.presets import paragon
    from repro.stap.params import STAPParams
    from repro.stap.scenario import Scenario

    params = STAPParams(
        n_channels=8, n_pulses=32, n_ranges=256, n_beams=6, n_hard_bins=8,
        n_training=64, pulse_len=16, cfar_window=12, cfar_guard=3, pfa=1e-6,
    )
    scenario = Scenario.standard(params, seed=args.seed)
    print("ground truth:")
    for t in scenario.targets:
        b = round(t.doppler * params.n_pulses) % params.n_pulses
        beam = int(np.argmin(np.abs(params.beam_angles - t.angle)))
        print(f"  gate {t.range_gate}, bin {b}, beam {beam}, {t.snr_db:+.0f} dB element SNR")
    result = PipelineExecutor(
        build_embedded_pipeline(NodeAssignment.balanced(params, args.nodes)),
        params,
        paragon(),
        FSConfig("pfs", stripe_factor=8),
        ExecutionConfig(n_cpis=args.cpis, warmup=min(1, args.cpis - 1), compute=True),
        scenario=scenario,
    ).run()
    print(f"\ndetections ({len(result.detections)}):")
    for d in result.detections:
        print(
            f"  CPI {d.cpi_index}  bin {d.doppler_bin:3d}  beam {d.beam}  "
            f"gate {d.range_gate:4d}  {d.snr_db:5.1f} dB"
        )
    return 0


def _cmd_sweep_stripe(args) -> int:
    from repro.core.context import ExecutionConfig
    from repro.trace.report import bar_chart

    try:
        factors = tuple(int(x) for x in args.factors.split(",") if x.strip())
    except ValueError:
        print(f"error: bad --factors value {args.factors!r}", file=sys.stderr)
        return 2
    if not factors or any(f < 1 for f in factors):
        print("error: factors must be positive integers", file=sys.stderr)
        return 2
    from repro.bench.experiments import run_ablation_stripe_sweep

    runner = _make_runner(args)
    out = run_ablation_stripe_sweep(
        stripe_factors=factors,
        case_number=args.case,
        cfg=ExecutionConfig(n_cpis=args.cpis, warmup=2),
        runner=runner,
        screening=args.screening,
    )
    print(
        bar_chart(
            {f"sf={sf}": r.throughput for sf, r in out.items()},
            title=f"case {args.case} throughput (CPIs/s) vs stripe factor",
        )
    )
    predicted = sum(1 for r in out.values() if r.source == "predicted")
    if predicted:
        print(
            f"({predicted}/{len(out)} cells answered by the analytic "
            f"surrogate; {runner.executed} simulated)"
        )
    return 0


def _cmd_spectrum(args) -> int:
    """Render the clutter-ridge/jammer picture as an ASCII heatmap."""
    import numpy as np

    from repro.stap.params import STAPParams
    from repro.stap.scenario import Jammer, Scenario, Target, make_cube
    from repro.stap.spectrum import fourier_spectrum, mvdr_spectrum
    from repro.trace.report import heatmap

    params = STAPParams(
        n_channels=8, n_pulses=32, n_ranges=256, n_beams=6, n_hard_bins=8,
        n_training=64, pulse_len=16, cfar_window=12, cfar_guard=3,
    )
    scenario = Scenario(
        targets=(Target(range_gate=80, doppler=0.30, angle=-0.4, snr_db=5.0),),
        jammers=(Jammer(angle=0.7, jnr_db=args.jnr_db),),
        cnr_db=args.cnr_db,
        seed=args.seed,
    )
    cube = make_cube(params, scenario, 0)
    fn = mvdr_spectrum if args.estimator == "mvdr" else fourier_spectrum
    power, sin_angles, _ = fn(cube, n_angles=25, n_dopplers=49)
    print(
        heatmap(
            power,
            title=f"{args.estimator} angle-Doppler spectrum "
            "(rows: sin(angle) -1..1; cols: Doppler -0.5..0.5)",
            row_labels=[f"{v:+.2f}" for v in sin_angles],
            col_label="Doppler ->",
        )
    )
    print(
        f"\nclutter ridge: diagonal; jammer line at sin(angle)="
        f"{np.sin(scenario.jammers[0].angle):+.2f}; target near "
        f"sin(angle)={np.sin(-0.4):+.2f}, Doppler +0.30"
    )
    return 0


def _cmd_reproduce(args) -> int:
    """Regenerate the core paper artifacts (tables 1-4, figures 5-8)."""
    import pathlib

    from repro.bench.experiments import (
        run_fig8,
        run_table1,
        run_table2,
        run_table3,
        run_table4,
    )
    from repro.core.context import ExecutionConfig

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = ExecutionConfig(n_cpis=args.cpis, warmup=args.warmup)
    runner = _make_runner(args)

    def save(name: str, text: str) -> None:
        path = out_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"wrote {path}")

    print("running Table 1 (embedded I/O) ...")
    t1 = run_table1(cfg=cfg, runner=runner)
    save("table1_embedded_io", t1.render())
    save("fig5_embedded_charts", t1.render_charts())

    print("running Table 2 (separate I/O task) ...")
    t2 = run_table2(cfg=cfg, runner=runner)
    save("table2_separate_io", t2.render())
    save("fig6_separate_charts", t2.render_charts())

    print("running Table 3 (PC+CFAR combined) ...")
    t3 = run_table3(cfg=cfg, runner=runner)
    save("table3_task_combination", t3.render())
    save("fig7_combined_charts", t3.render_charts())

    t4 = run_table4(table1=t1, table3=t3, runner=runner)
    save("table4_latency_improvement", t4.render())
    f8 = run_fig8(table1=t1, table3=t3, runner=runner)
    save("fig8_combination_comparison", f8.render())
    print(
        f"engine: {runner.executed} cells simulated, "
        f"{runner.cache_hits} served from cache"
        + ("" if args.no_cache else f" ({args.cache_dir})")
    )
    print("done — compare against EXPERIMENTS.md")
    return 0


def _cmd_results(args) -> int:
    """List, inspect, or clear the content-addressed result cache."""
    import json

    from repro.bench.store import ResultStore
    from repro.trace.report import format_table

    store = ResultStore(args.cache_dir)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached result(s) from {store.root}")
        return 0
    if args.action == "list":
        entries = store.entries()
        if not entries:
            print(f"no cached results in {store.root}")
            return 0
        if args.sort == "size":
            entries.sort(key=lambda e: e["size_bytes"], reverse=True)
        elif args.sort == "age":
            entries.sort(key=lambda e: e["mtime"], reverse=True)
        rows = [
            [e["hash"][:12], e["pipeline"], e["machine"], e["fs"],
             e["nodes"], e["n_cpis"],
             "-" if e["throughput"] is None else e["throughput"],
             "-" if e["latency"] is None else e["latency"],
             f"{e['size_bytes'] / 1024:.1f}"]
            for e in entries
        ]
        print(
            format_table(
                ["hash", "pipeline", "machine", "file system",
                 "nodes", "CPIs", "throughput", "latency (s)", "KiB"],
                rows,
                title=f"{len(entries)} cached cell(s) in {store.root}",
            )
        )
        s = store.summary()
        predicted = sum(1 for e in entries if e.get("source") == "predicted")
        simulated = len(entries) - predicted
        counts = f"{s['entries']} entries"
        if predicted:
            counts = (
                f"{s['entries']} entries ({simulated} simulated, "
                f"{predicted} surrogate-predicted)"
            )
        print(
            f"{counts}, {s['total_bytes']} bytes total, "
            f"store schema v{s['schema']}"
        )
        return 0
    # show
    if not args.hash:
        print("error: 'results show' needs a spec hash (see 'results list')",
              file=sys.stderr)
        return 2
    matches = [h for h in store.hashes() if h.startswith(args.hash)]
    if len(matches) != 1:
        what = "no" if not matches else f"{len(matches)} ambiguous"
        print(f"error: {what} cached result(s) match {args.hash!r}",
              file=sys.stderr)
        return 2
    payload = store.load(matches[0])
    if payload is None:
        print(f"error: entry {matches[0]} is unreadable", file=sys.stderr)
        return 2
    from repro.analysis import load

    loaded = load(payload)  # either result kind: pipeline or scenario
    print(f"hash      : {matches[0]}")
    print(f"file      : {store.path_for(matches[0])}")
    print(f"spec      : {json.dumps(loaded.spec, indent=2, sort_keys=True)}")
    result = loaded.result
    if loaded.kind == "scenario":
        rows = [[name, f"{r.throughput:.4f}", f"{r.latency:.4f}"]
                for name, r in result.tenants.items()]
        print(format_table(["tenant", "CPIs/s", "latency (s)"], rows,
                           title="per-tenant results"))
        return 0
    meas = result.measurement
    print(f"throughput: {meas.throughput:.4f} CPIs/s")
    print(f"latency   : {meas.latency:.4f} s")
    bottleneck = meas.bottleneck_task
    print(f"bottleneck: {bottleneck} "
          f"({meas.task_stats[bottleneck].total:.4f} s)")
    return 0


def _cmd_strategies(args) -> int:
    """List the I/O strategy registry, or run one tiny cell per strategy."""
    from repro.bench.engine import ExperimentSpec
    from repro.core.context import ExecutionConfig
    from repro.core.executor import FSConfig
    from repro.core.pipeline import NodeAssignment
    from repro.stap.params import STAPParams
    from repro.strategies import get_strategy, strategy_names
    from repro.trace.report import format_table

    if args.action == "list":
        rows = []
        for name in strategy_names():
            s = get_strategy(name)
            rows.append([
                name,
                "yes" if s.requires_async else "no",
                "yes" if s.requires_list_io else "no",
                "yes" if s.supports_read_deadline else "no",
                s.describe(),
            ])
        print(
            format_table(
                ["strategy", "needs async", "needs list-io", "read deadline",
                 "description"],
                rows,
                title=f"{len(rows)} registered I/O strategies",
            )
        )
        return 0

    # smoke: one tiny end-to-end cell per registered strategy.
    from repro.bench.engine import run_spec

    params = STAPParams(
        n_channels=8, n_pulses=32, n_ranges=256, n_beams=6, n_hard_bins=8,
        n_training=64, pulse_len=16, cfar_window=12, cfar_guard=3, pfa=1e-6,
    )
    assignment = NodeAssignment.balanced(params, 14)
    cfg = ExecutionConfig(n_cpis=2, warmup=0)
    failures = 0
    for name in strategy_names():
        missing = get_strategy(name).missing_capability(args.fs)
        if missing:
            print(f"{name:24s} SKIP (requires {missing}; {args.fs} has none)")
            continue
        spec = ExperimentSpec(
            assignment=assignment, pipeline=name, machine="paragon",
            fs=FSConfig(kind=args.fs, stripe_factor=args.stripe_factor),
            params=params, cfg=cfg,
        )
        try:
            result = run_spec(spec)
        except ReproError as exc:
            print(f"{name:24s} FAIL {exc}")
            failures += 1
            continue
        print(f"{name:24s} ok   throughput {result.throughput:.4f} CPIs/s")
    if failures:
        print(f"{failures} strategy smoke failure(s)", file=sys.stderr)
        return 1
    print("all strategies passed")
    return 0


def _cmd_serve(args) -> int:
    """Run the experiment service until interrupted."""
    from repro.bench.store import ResultStore
    from repro.service.events import EventFeed
    from repro.service.scheduler import ExperimentScheduler
    from repro.service.server import ExperimentServer

    store = None if args.no_cache else ResultStore(args.cache_dir)
    scheduler = ExperimentScheduler(
        workers=args.workers, store=store, backpressure=args.backpressure,
    )
    feed = EventFeed().attach(scheduler)
    server = ExperimentServer(scheduler, host=args.host, port=args.port,
                              feed=feed)
    pool = (f"{args.workers} worker process(es)" if args.workers
            else "in-process execution")
    cache = "no cache" if args.no_cache else f"cache {args.cache_dir}"
    print(f"repro service on {server.address} — {pool}, {cache}")
    print("submit with: repro submit --port "
          f"{server.port} --follow  (Ctrl-C stops the service)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
        scheduler.shutdown()
    return 0


def _parse_int_list(text: str, flag: str) -> List[int]:
    try:
        values = [int(v) for v in str(text).split(",") if v.strip()]
    except ValueError:
        raise ReproError(f"{flag} wants comma-separated integers, got {text!r}")
    if not values:
        raise ReproError(f"{flag} got an empty list")
    return values


def _cmd_submit(args) -> int:
    """Submit a batch (cases x stripe factors) to a running service."""
    import getpass

    from repro.bench.experiments import grid
    from repro.core.pipeline import NodeAssignment
    from repro.service.server import submit_batch

    cases = _parse_int_list(args.case, "--case")
    factors = _parse_int_list(args.stripe_factor, "--stripe-factor")
    base = _cell_spec(args, case=cases[0], stripe_factor=factors[0])
    cells = grid(base, {
        "assignment": {c: NodeAssignment.case(c, base.params) for c in cases},
        "fs.stripe_factor": factors,
    })
    specs = [spec.to_dict() for spec in cells.values()]
    client = args.client or getpass.getuser()
    events = submit_batch(
        args.host, args.port, specs,
        client=client, follow=args.follow, label=args.label,
    )
    accepted = next(events)
    print(f"job {accepted['job']} accepted: {accepted['cells']} cell(s) "
          f"as client {client!r}")
    if not args.follow:
        print(f"follow with: repro jobs show {accepted['job']} "
              f"--port {args.port}")
        return 0
    for event in events:
        kind = event.get("event")
        if kind == "result":
            meas = event["payload"]["measurement"]
            print(f"  [{event['index']:>3}] {event['source']:>8}  "
                  f"throughput {meas['throughput']:.4f} CPIs/s  "
                  f"latency {meas['latency']:.4f} s")
        elif kind == "done":
            c = event["counters"]
            print(f"job done: {c['executed']} executed, "
                  f"{c['cache_hits']} from cache, {c['deduped']} deduped, "
                  f"{c['retries']} retried")
            return 0
        else:
            print(f"job {kind}: {event.get('error', '')}", file=sys.stderr)
            return 1
    print("error: server stream ended unexpectedly", file=sys.stderr)
    return 1


def _cmd_jobs(args) -> int:
    """List, inspect, or cancel jobs on a running service."""
    import json

    from repro.service.server import request
    from repro.trace.report import format_table

    if args.action == "list":
        jobs = request(args.host, args.port, {"op": "jobs"})["jobs"]
        if not jobs:
            print("no jobs")
            return 0
        rows = [
            [j["id"], j["client"], j["state"], j["cells"],
             j["counters"]["executed"], j["counters"]["cache_hits"],
             j["counters"].get("predicted", 0), j["label"]]
            for j in jobs
        ]
        print(format_table(
            ["job", "client", "state", "cells", "executed", "cached",
             "predicted", "label"],
            rows, title=f"{len(jobs)} job(s)",
        ))
        return 0
    if not args.id:
        print(f"error: 'jobs {args.action}' needs a job id", file=sys.stderr)
        return 2
    if args.action == "show":
        info = request(args.host, args.port, {"op": "job", "id": args.id})
        c = info["job"].get("counters", {})
        print(f"counters: {c.get('executed', 0)} executed, "
              f"{c.get('cache_hits', 0)} cache hits, "
              f"{c.get('cache_misses', 0)} cache misses, "
              f"{c.get('predicted', 0)} predicted (surrogate-screened)")
        print(json.dumps(info["job"], indent=2, sort_keys=True))
        return 0
    resp = request(args.host, args.port, {"op": "cancel", "id": args.id})
    print(f"job {args.id} "
          + ("cancelled" if resp["cancelled"] else "already finished"))
    return 0


def _cmd_scenario(args) -> int:
    """Run one multi-tenant scenario and print per-tenant results."""
    import json

    from repro.core.arrivals import ArrivalSpec
    from repro.core.context import ExecutionConfig
    from repro.core.executor import FSConfig
    from repro.core.pipeline import NodeAssignment
    from repro.scenario import ScenarioExecutor, ScenarioSpec, TenantSpec
    from repro.stap.params import STAPParams
    from repro.trace.report import format_table

    if args.spec:
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            with open(args.spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(f"--spec {args.spec}: not JSON ({exc})") from None
        spec = ScenarioSpec.from_dict(d)
    else:
        params = STAPParams()
        arrival = None
        if args.arrival != "fixed" or args.period or args.offset:
            arrival = ArrivalSpec(
                kind=args.arrival, period=args.period, offset=args.offset,
                jitter=args.jitter, burst_size=args.burst_size,
                burst_gap=args.burst_gap, seed=args.arrival_seed,
            )
        cfg = ExecutionConfig(
            n_cpis=args.cpis, warmup=args.warmup,
            read_deadline=args.read_deadline, arrival=arrival,
        )
        tenants = []
        for desc in (args.tenants or ["embedded-io", "embedded-io"]):
            pipeline, _, case_text = desc.partition(":")
            try:
                case = int(case_text) if case_text else 1
            except ValueError:
                raise ReproError(
                    f"--tenant wants PIPELINE[:CASE], got {desc!r}"
                )
            tenants.append(TenantSpec(
                assignment=NodeAssignment.case(case, params),
                pipeline=pipeline, cfg=cfg,
            ))
        spec = ScenarioSpec(
            tenants=tuple(tenants),
            machine=args.machine,
            fs=FSConfig(kind=args.fs, stripe_factor=args.stripe_factor),
            params=params,
            seed=args.seed,
            metrics_interval=args.metrics_interval,
        )

    executor = ScenarioExecutor(spec)
    result = executor.run()

    print(spec.label())
    print(f"spec hash : {spec.short_hash()}")
    print(f"elapsed   : {result.elapsed_sim_time:.4f} s on the shared kernel")
    rows = []
    for name, tenant in zip(spec.tenant_names(), spec.tenants):
        r = result.tenants[name]
        mib = (result.tenant_bytes or {}).get(name, 0) / 2**20
        rows.append([
            name, tenant.pipeline, tenant.build_pipeline().total_nodes,
            f"{r.measurement.throughput:.4f}",
            f"{r.measurement.latency:.4f}",
            len(r.dropped_cpis or []), f"{mib:.1f}",
        ])
    print(format_table(
        ["tenant", "pipeline", "nodes", "CPIs/s", "latency(s)",
         "dropped", "MiB"],
        rows, title="\nper-tenant results",
    ))
    if result.disk_stats is not None:
        served = result.disk_stats["bytes_served"] / 2**20
        print(f"\nshared PFS: {served:.1f} MiB served by "
              f"{len(result.disk_stats['requests_per_server'])} server(s)")
    if args.gantt:
        print()
        print(executor.gantt())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.json}")
    return 0


def _cmd_analyze(args) -> int:
    """Offline sweep analysis: join artifacts, write the narrative."""
    from repro.analysis import analyze_sweep, render
    from repro.bench.store import ResultStore

    sources: List[object] = list(args.sources)
    if args.store:
        sources.append(ResultStore(args.cache_dir))
    analysis = analyze_sweep(sources, cache_dir=args.cache_dir)
    text = render(analysis, fmt=args.fmt)
    if args.out:
        from repro.trace.export import _atomic_write_text

        if not text.endswith("\n"):
            text += "\n"
        _atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text)
    for err in analysis["sources"]["errors"]:
        print(f"warning: {err}", file=sys.stderr)
    return 0


def _cmd_dash(args) -> int:
    """Serve the live dashboard against a running repro service."""
    from repro.analysis.dash import DashboardServer, RemoteBackend
    from repro.bench.store import ResultStore

    backend = RemoteBackend(args.service_host, args.service_port)
    store = None if args.no_cache else ResultStore(args.cache_dir)
    server = DashboardServer(
        backend, host=args.host, port=args.port,
        store=store, results_dir=args.results,
    )
    print(f"repro dashboard on {server.address} — watching service at "
          f"{args.service_host}:{args.service_port}")
    print("Ctrl-C stops the dashboard (the service keeps running)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
    return 0


def _cmd_info(_args) -> int:
    from repro.core.pipeline import NodeAssignment
    from repro.stap.costs import STAPCosts
    from repro.stap.params import STAPParams
    from repro.trace.report import format_table

    params = STAPParams()
    costs = STAPCosts(params)
    print(f"CPI cube    : {params.cube_shape} {params.dtype} "
          f"= {params.cube_nbytes / 2**20:.0f} MiB")
    print(f"Doppler bins: {params.n_doppler_bins} "
          f"({params.n_easy_bins} easy / {params.n_hard_bins} hard)")
    print(f"beams       : {params.n_beams}, training gates: {params.n_training}")
    names = ["doppler", "easy_weight", "hard_weight", "easy_bf", "hard_bf",
             "pulse_compr", "cfar"]
    rows = [[n, costs.task_flops(i) / 1e6] for i, n in enumerate(names)]
    print(format_table(["task", "Mflop/CPI"], rows, title="\nper-task work",
                       float_fmt="{:.1f}"))
    print()
    for case in (1, 2, 3):
        a = NodeAssignment.case(case, params)
        counts = [a.doppler, a.easy_weight, a.hard_weight, a.easy_bf,
                  a.hard_bf, a.pulse_compr, a.cfar]
        print(f"case {case}: {dict(zip(names, counts))} "
              f"(total {a.total_without_io}, read task {a.io_nodes})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "table": _cmd_table,
        "profile": _cmd_profile,
        "detect": _cmd_detect,
        "sweep-stripe": _cmd_sweep_stripe,
        "reproduce": _cmd_reproduce,
        "results": _cmd_results,
        "metrics": _cmd_metrics,
        "spectrum": _cmd_spectrum,
        "strategies": _cmd_strategies,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "scenario": _cmd_scenario,
        "analyze": _cmd_analyze,
        "dash": _cmd_dash,
        "info": _cmd_info,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed stdout mid-print; the Unix
        # convention is to die quietly with SIGPIPE's exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
