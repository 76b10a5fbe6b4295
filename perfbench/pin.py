"""Regenerate ``pins.json``: the result hash of every workload cell and
the analyzer's ``counts`` for each workload's store.

    python3 perfbench/pin.py

Run it only at a commit whose results are known good; a later run whose
hashes differ counts every differing cell as failed.  Cells run through
the direct entry points (``run_spec``/``run_scenario``) in-process.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import cells  # noqa: E402
from workloads import analysis_key, run_cell  # noqa: E402


def main() -> int:
    from repro.analysis import analyze_sweep
    from repro.bench.store import ResultStore

    pins = {"cells": {}, "analysis": {}}
    work = os.path.join(ROOT, ".bench_work", "pin")
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name in cells.WORKLOADS:
            dicts = {}
            for spec in cells.all_specs(name):
                d = run_cell(spec).to_dict()
                dicts[spec.spec_hash()] = (spec, d)
                pins["cells"][spec.spec_hash()] = cells.result_hash(d)
                print(f"{name}: {spec.label()}", file=sys.stderr)
            for quick in (False, True):
                store = ResultStore(os.path.join(work, f"{name}-{quick}"))
                for group in cells.workload_cells(name, quick).values():
                    for spec in group:
                        store.put_dict(spec, dicts[spec.spec_hash()][1])
                sources = [store]
                if name == "service-roundtrip":
                    sources.insert(0, cells.ARTIFACTS_DIR)
                counts = analyze_sweep(sources)["counts"]
                pins["analysis"][analysis_key(name, quick)] = counts
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    with open(cells.PINS_PATH, "w", encoding="utf-8") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"pinned {len(pins['cells'])} cells to {cells.PINS_PATH}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
