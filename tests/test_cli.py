"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Run every CLI test in a temp dir: the default result cache
    (``.cache/experiments``) is cwd-relative and must not leak into the
    repository when tests exercise cache-enabled commands."""
    monkeypatch.chdir(tmp_path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.pipeline == "embedded" and args.case == 1
        assert args.fs == "pfs" and args.stripe_factor == 64
        assert not args.threaded

    def test_run_all_options(self):
        args = build_parser().parse_args(
            ["run", "--pipeline", "combined", "--case", "3", "--machine", "sp",
             "--fs", "piofs", "--stripe-factor", "80", "--cpis", "4",
             "--threaded"]
        )
        assert args.pipeline == "combined" and args.machine == "sp"
        assert args.threaded

    def test_engine_defaults(self):
        for argv in (["run"], ["table", "1"], ["sweep-stripe"],
                     ["reproduce"]):
            args = build_parser().parse_args(argv)
            assert args.jobs == 1
            assert args.cache_dir.endswith("experiments")
            assert not args.no_cache

    def test_engine_options(self):
        args = build_parser().parse_args(
            ["reproduce", "--jobs", "4", "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.jobs == 4 and args.cache_dir == "/tmp/x" and args.no_cache

    def test_run_seed_option(self):
        assert build_parser().parse_args(["run", "--seed", "5"]).seed == 5

    def test_results_actions(self):
        args = build_parser().parse_args(["results", "list"])
        assert args.action == "list" and args.hash is None
        args = build_parser().parse_args(["results", "show", "abc123"])
        assert args.action == "show" and args.hash == "abc123"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["results", "frobnicate"])

    def test_invalid_case_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--case", "9"])

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "5"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_results_sort_option(self):
        assert build_parser().parse_args(["results", "list"]).sort is None
        args = build_parser().parse_args(["results", "list", "--sort", "size"])
        assert args.sort == "size"
        args = build_parser().parse_args(["results", "list", "--sort", "age"])
        assert args.sort == "age"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["results", "list", "--sort", "name"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7077 and args.workers == 0
        assert not args.no_cache

    def test_submit_defaults_and_lists(self):
        args = build_parser().parse_args(
            ["submit", "--case", "1,2", "--stripe-factor", "16,64",
             "--follow"]
        )
        assert args.case == "1,2" and args.stripe_factor == "16,64"
        assert args.follow and args.port == 7077

    def test_profile_accepts_registry_strategy(self):
        args = build_parser().parse_args(
            ["profile", "--pipeline", "collective-two-phase"]
        )
        assert args.pipeline == "collective-two-phase"

    def test_submit_accepts_registry_strategy(self):
        args = build_parser().parse_args(["submit", "--pipeline", "list-io"])
        assert args.pipeline == "list-io"

    def test_strategy_is_an_alias_of_pipeline(self):
        for command in ("run", "profile", "submit"):
            args = build_parser().parse_args(
                [command, "--strategy", "data-sieving"]
            )
            assert args.pipeline == "data-sieving"
            assert not hasattr(args, "strategy")

    def test_unknown_pipeline_rejected_everywhere(self):
        for command in ("run", "profile", "submit"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--pipeline", "bogus"])

    def test_jobs_actions(self):
        args = build_parser().parse_args(["jobs", "list"])
        assert args.action == "list" and args.id is None
        args = build_parser().parse_args(["jobs", "cancel", "j3"])
        assert args.action == "cancel" and args.id == "j3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jobs", "frobnicate"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "16 MiB" in out and "case 3" in out and "doppler" in out

    def test_run_prints_metrics(self, capsys):
        assert main(["run", "--case", "1", "--cpis", "3", "--warmup", "1"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "latency" in out and "bottleneck" in out

    def test_run_threaded(self, capsys):
        assert main(
            ["run", "--case", "1", "--cpis", "3", "--warmup", "1", "--threaded"]
        ) == 0
        assert "SMP-threaded" in capsys.readouterr().out

    def test_run_sp_piofs(self, capsys):
        code = main(
            ["run", "--machine", "sp", "--fs", "piofs", "--stripe-factor", "80",
             "--cpis", "3", "--warmup", "1"]
        )
        assert code == 0
        assert "IBM SP" in capsys.readouterr().out

    def test_detect(self, capsys):
        assert main(["detect", "--cpis", "2"]) == 0
        out = capsys.readouterr().out
        assert "ground truth" in out and "detections" in out

    def test_sweep_stripe(self, capsys):
        assert main(
            ["sweep-stripe", "--factors", "8,64", "--case", "1", "--cpis", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "sf=8" in out and "sf=64" in out

    def test_sweep_stripe_bad_factors(self, capsys):
        assert main(["sweep-stripe", "--factors", "a,b"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_stripe_nonpositive(self, capsys):
        assert main(["sweep-stripe", "--factors", "0,4"]) == 2


class TestResultCache:
    RUN = ["run", "--case", "1", "--cpis", "3", "--warmup", "1"]

    def test_second_run_served_from_cache(self, capsys):
        assert main(self.RUN) == 0
        first = capsys.readouterr().out
        assert "served from cache" not in first

        assert main(self.RUN) == 0
        second = capsys.readouterr().out
        assert "served from cache" in second

    def test_no_cache_skips_store(self, capsys, tmp_path):
        cache = tmp_path / "c"
        argv = self.RUN + ["--cache-dir", str(cache), "--no-cache"]
        assert main(argv) == 0
        capsys.readouterr()
        assert not cache.exists()
        assert main(argv) == 0
        assert "served from cache" not in capsys.readouterr().out

    def test_results_list_show_clear(self, capsys):
        assert main(self.RUN) == 0
        capsys.readouterr()

        assert main(["results", "list"]) == 0
        out = capsys.readouterr().out
        assert "1 cached cell(s)" in out and "embedded" in out
        # last table row sits just above the summary footer
        spec_hash = out.splitlines()[-2].split("|")[0].strip()
        assert "entries" in out.splitlines()[-1]

        assert main(["results", "show", spec_hash]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "bottleneck" in out
        assert spec_hash in out

        assert main(["results", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["results", "list"]) == 0
        assert "no cached results" in capsys.readouterr().out

    def test_invalid_jobs_is_a_clean_error(self, capsys):
        assert main(self.RUN + ["--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "jobs" in err

    def test_results_show_needs_unique_hash(self, capsys):
        assert main(["results", "show"]) == 2
        assert "needs a spec hash" in capsys.readouterr().err
        assert main(["results", "show", "deadbeef"]) == 2
        assert "no cached result" in capsys.readouterr().err

    def test_results_list_sort_and_footer(self, capsys):
        # Two differently-sized entries, written oldest-first.
        import os
        import time

        from repro.bench.store import ResultStore

        assert main(self.RUN) == 0
        assert main(["run", "--case", "1", "--cpis", "4", "--warmup", "1",
                     "--stripe-factor", "16"]) == 0
        capsys.readouterr()
        store = ResultStore()
        (a, b) = store.hashes()
        # force a deterministic size/mtime ordering regardless of runs
        big, small = store.path_for(a), store.path_for(b)
        big.write_text(big.read_text() + " " * 4096)
        old = time.time() - 1000
        os.utime(big, (old, old))

        assert main(["results", "list", "--sort", "size"]) == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if ln.startswith((a[:12], b[:12]))]
        assert rows[0].startswith(a[:12])       # biggest first
        footer = out.splitlines()[-1]
        assert "2 entries" in footer
        assert "bytes total" in footer and "schema v" in footer

        assert main(["results", "list", "--sort", "age"]) == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if ln.startswith((a[:12], b[:12]))]
        assert rows[0].startswith(b[:12])       # newest first


class TestServiceCommands:
    def test_jobs_list_unreachable_server_is_clean_error(self, capsys):
        assert main(["jobs", "list", "--port", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_submit_bad_case_list_is_clean_error(self, capsys):
        assert main(["submit", "--case", "x,y"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_serve_submit_jobs_round_trip(self, capsys):
        # In-process server on a free port; tiny 2-cell batch.
        from repro.bench.store import ResultStore
        from repro.service.scheduler import ExperimentScheduler
        from repro.service.server import ExperimentServer

        store = ResultStore(".cache/experiments")
        with ExperimentScheduler(workers=0, store=store) as scheduler:
            with ExperimentServer(scheduler, port=0) as server:
                rc = main([
                    "submit", "--port", str(server.port),
                    "--case", "1", "--stripe-factor", "8,16",
                    "--cpis", "2", "--warmup", "0",
                    "--client", "cli-test", "--follow",
                ])
                out = capsys.readouterr().out
                assert rc == 0
                assert "accepted: 2 cell(s)" in out
                assert out.count("executed") >= 2
                assert "job done: 2 executed" in out

                assert main(["jobs", "list", "--port",
                             str(server.port)]) == 0
                out = capsys.readouterr().out
                assert "cli-test" in out and "done" in out


class TestFaultFlags:
    RUN = ["run", "--case", "1", "--cpis", "3", "--warmup", "1", "--no-cache",
           "--stripe-factor", "8"]

    def test_crash_run_reports_fault_lines(self, capsys):
        argv = self.RUN + ["--replication", "2", "--crash-server", "0",
                           "--crash-at", "0.1", "--crash-down", "0.5",
                           "--read-deadline", "5.0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "faults" in out and "outage" in out
        assert "dropped" in out and "past deadline" in out

    def test_flaky_run_reports_fault_lines(self, capsys):
        argv = self.RUN + ["--flaky-server", "0", "--flaky-rate", "0.2"]
        assert main(argv) == 0
        assert "faults" in capsys.readouterr().out

    def test_fault_free_run_has_no_fault_lines(self, capsys):
        assert main(self.RUN) == 0
        out = capsys.readouterr().out
        assert "faults" not in out and "dropped" not in out

    def test_zero_read_deadline_is_a_clean_error(self, capsys):
        assert main(self.RUN + ["--read-deadline", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "read-deadline" in err

    def test_crash_server_out_of_range(self, capsys):
        assert main(self.RUN + ["--crash-server", "99"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "server_crash" in err

    def test_bad_replication_rejected(self, capsys):
        assert main(self.RUN + ["--replication", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_flaky_rate_rejected(self, capsys):
        assert main(self.RUN + ["--flaky-server", "0", "--flaky-rate", "-1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_spectrum_renders_heatmap(self, capsys):
        assert main(["spectrum", "--estimator", "fourier"]) == 0
        out = capsys.readouterr().out
        assert "angle-Doppler" in out and "Doppler ->" in out
        assert "|" in out

    def test_spectrum_mvdr_default(self, capsys):
        assert main(["spectrum"]) == 0
        assert "mvdr" in capsys.readouterr().out

    def test_spectrum_bad_estimator(self):
        with pytest.raises(SystemExit):
            main(["spectrum", "--estimator", "music"])


class TestStrategiesCommand:
    def test_list_shows_registry(self, capsys):
        assert main(["strategies", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("embedded-io", "separate-io", "collective-two-phase",
                     "data-sieving", "embedded-prefetch2"):
            assert name in out
        assert "needs async" in out

    def test_smoke_runs_every_strategy(self, capsys):
        assert main(["strategies", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "all strategies passed" in out
        assert out.count(" ok ") >= 5

    def test_smoke_skips_async_strategies_on_piofs(self, capsys):
        assert main(["strategies", "smoke", "--fs", "piofs"]) == 0
        out = capsys.readouterr().out
        assert "SKIP" in out and "all strategies passed" in out

    def test_bad_action_rejected(self):
        with pytest.raises(SystemExit):
            main(["strategies", "frobnicate"])


class TestRunStrategyOption:
    RUN = ["run", "--case", "1", "--cpis", "3", "--warmup", "1",
           "--stripe-factor", "8"]

    def test_run_with_strategy(self, capsys):
        assert main(self.RUN + ["--strategy", "data-sieving"]) == 0
        out = capsys.readouterr().out
        assert "data-sieving" in out and "throughput" in out

    def test_strategy_overrides_pipeline(self, capsys):
        argv = self.RUN + ["--pipeline", "separate",
                           "--strategy", "collective-two-phase"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "collective-two-phase" in out and "read" not in out.split("\n")[1]

    def test_strategy_run_cached_on_rerun(self, capsys):
        argv = self.RUN + ["--strategy", "collective-two-phase"]
        assert main(argv) == 0
        assert "served from cache" not in capsys.readouterr().out
        assert main(argv) == 0
        assert "served from cache" in capsys.readouterr().out

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(self.RUN + ["--strategy", "bogus"])

    def test_async_strategy_on_piofs_fails_cleanly(self, capsys):
        argv = self.RUN + ["--strategy", "embedded-prefetch2",
                           "--fs", "piofs"]
        assert main(argv) == 2
        assert "asynchronous" in capsys.readouterr().err


class TestScenarioCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["scenario", "run"])
        assert args.action == "run"
        assert args.tenants == [] and args.arrival == "fixed"
        assert args.stripe_factor == 8 and args.spec is None

    def test_run_from_spec_file(self, capsys, tmp_path, small_params):
        import json

        from repro.core.context import ExecutionConfig
        from repro.core.pipeline import NodeAssignment
        from repro.scenario import ScenarioSpec, TenantSpec
        from repro.core.executor import FSConfig

        cfg = ExecutionConfig(n_cpis=2, warmup=0)
        spec = ScenarioSpec(
            tenants=(
                TenantSpec(NodeAssignment.balanced(small_params, 14), cfg=cfg),
                TenantSpec(NodeAssignment.balanced(small_params, 14),
                           pipeline="separate-io", cfg=cfg),
            ),
            fs=FSConfig(kind="pfs", stripe_factor=4),
            params=small_params,
        )
        spec_path = tmp_path / "scn.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        out_path = tmp_path / "result.json"
        argv = ["scenario", "run", "--spec", str(spec_path),
                "--gantt", "--json", str(out_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "per-tenant results" in out and "shared PFS" in out
        assert "t0" in out and "t1" in out
        assert "--- t0 ---" in out and "--- t1 ---" in out
        saved = json.loads(out_path.read_text())
        assert saved["kind"] == "scenario" and set(saved["tenants"]) == {
            "t0", "t1"}

    def test_results_list_and_show_stored_scenario(self, capsys,
                                                   small_params):
        from repro.bench.store import ResultStore
        from repro.core.context import ExecutionConfig
        from repro.core.executor import FSConfig
        from repro.core.pipeline import NodeAssignment
        from repro.scenario import ScenarioSpec, TenantSpec

        cfg = ExecutionConfig(n_cpis=2, warmup=0)
        spec = ScenarioSpec(
            tenants=(
                TenantSpec(NodeAssignment.balanced(small_params, 14), cfg=cfg),
                TenantSpec(NodeAssignment.balanced(small_params, 14),
                           pipeline="separate-io", cfg=cfg),
            ),
            fs=FSConfig(kind="pfs", stripe_factor=4),
            params=small_params,
        )
        result = spec.run()
        ResultStore().put(spec, result)

        assert main(["results", "list"]) == 0
        row = capsys.readouterr().out.splitlines()[-2]
        cols = [c.strip() for c in row.split("|")]
        nodes = sum(t.n_nodes for r in result.tenants.values()
                    for t in r.spec.tasks)
        assert cols[:6] == [spec.spec_hash()[:12],
                            "embedded-io+separate-io", "paragon",
                            "PFS sf=4", str(nodes), "2"]
        assert "None" not in row

        # Any unique prefix of a stored hash, as for pipeline results.
        assert main(["results", "show", spec.spec_hash()[:3]]) == 0
        out = capsys.readouterr().out
        assert spec.spec_hash() in out and "per-tenant results" in out
        for name in ("t0", "t1"):
            r = result.tenants[name]
            assert f"{r.throughput:.4f}" in out
            assert f"{r.latency:.4f}" in out

    def test_bad_spec_file_is_clean_error(self, capsys, tmp_path):
        from repro.core.pipeline import NodeAssignment
        from repro.scenario import ScenarioSpec, TenantSpec
        from repro.stap.params import STAPParams

        spec = ScenarioSpec(
            tenants=(TenantSpec(NodeAssignment.case(1, STAPParams())),))
        d = spec.to_dict()
        d["fs"]["strip_factor"] = 4
        bad_key = tmp_path / "bad_key.json"
        bad_key.write_text(json.dumps(d))
        assert main(["scenario", "run", "--spec", str(bad_key)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'strip_factor'" in err

        not_json = tmp_path / "not.json"
        not_json.write_text("{tenants: ")
        assert main(["scenario", "run", "--spec", str(not_json)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not.json" in err

    def test_bad_tenant_descriptor_is_clean_error(self, capsys):
        assert main(["scenario", "run", "--tenant", "embedded-io:x"]) == 2
        assert "PIPELINE[:CASE]" in capsys.readouterr().err


class TestJobsPredictedRendering:
    def _patch(self, monkeypatch, response):
        import repro.service.server as server

        monkeypatch.setattr(server, "request",
                            lambda *a, **kw: response)

    def test_list_has_predicted_column(self, capsys, monkeypatch):
        self._patch(monkeypatch, {"jobs": [{
            "id": "j1", "client": "c", "state": "done", "cells": 3,
            "label": "",
            "counters": {"executed": 1, "cache_hits": 0, "predicted": 2},
        }]})
        assert main(["jobs", "list"]) == 0
        out = capsys.readouterr().out
        assert "predicted" in out
        row = [line for line in out.splitlines() if line.startswith("j1")][0]
        assert " 2 " in row or row.rstrip().endswith("2")

    def test_show_renders_predicted_counter(self, capsys, monkeypatch):
        self._patch(monkeypatch, {"job": {
            "id": "j1", "state": "done",
            "counters": {"executed": 1, "cache_hits": 2,
                         "cache_misses": 3, "predicted": 4},
        }})
        assert main(["jobs", "show", "j1"]) == 0
        out = capsys.readouterr().out
        assert "4 predicted (surrogate-screened)" in out
        assert "1 executed" in out and "2 cache hits" in out
