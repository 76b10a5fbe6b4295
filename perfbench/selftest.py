"""Reduced-size self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Checks, on a few cells per workload (``run.py --quick``):

* every run prints, as its last line, exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``, and ``metrics`` holds
  exactly the metrics BENCHMARK.json names — end-to-end with
  ``--trace 0``, per-layer with ``--trace 1`` — each with its unit and a
  finite value (end-to-end values also nonzero);
* a deliberately wrong pinned hash shows up as a failed cell, so the
  error rate (``failed / attempted``) is above 0 and ``correct`` false;
* in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits nonzero without printing a result.

Scratch files live under ``.bench_work/selftest`` and are removed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(out)}")
    return out


def check_metrics(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace {trace}"
            out = _result(_run(ROOT, "--workload", workload, "--seed", "3",
                               "--seconds", "1", "--trace", str(trace),
                               "--quick"), what)
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {n: m["unit"] for n, m in out["metrics"].items()}
            if got != want:
                raise AssertionError(
                    f"{what}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}, "
                    f"units {[(n, got[n], want[n]) for n in got if n in want and got[n] != want[n]]}")
            for name, m in out["metrics"].items():
                v = m["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v) or (
                        kind == "end_to_end" and v <= 0):
                    raise AssertionError(f"{what}: {name} = {v!r}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                raise AssertionError(f"{what}: {out['attempted']} checked, "
                                     f"{out['failed']} failed")
            print(f"ok  {what}: {len(got)} metrics, {out['attempted']} checked")


def check_wrong_pin(work: str) -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import cells

    pins = cells.load_pins()
    victim = cells.workload_cells("paper-grid", quick=True)["cold"][0]
    key = victim.spec_hash()
    pins["cells"][key] = "0" * 64
    path = os.path.join(work, "pins.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(pins, f)
    out = _result(_run(ROOT, "--workload", "paper-grid", "--seed", "3",
                       "--seconds", "1", "--trace", "0", "--quick",
                       "--pins", path), "wrong pin")
    error_rate = out["failed"] / out["attempted"]
    if out["correct"] or error_rate <= 0:
        raise AssertionError(f"wrong pin not caught: {out}")
    print(f"ok  wrong pin: error rate {error_rate:.3f} "
          f"({out['failed']}/{out['attempted']})")


def check_bare_directory(work: str) -> None:
    bare = os.path.join(work, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, "--workload", "paper-grid", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"bare directory: exit {proc.returncode}, "
                             f"stdout {proc.stdout!r}")
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    work = os.path.join(ROOT, ".bench_work", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        check_metrics(bench)
        check_wrong_pin(work)
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
