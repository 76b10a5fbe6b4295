"""Time one set-up of a workload in a fresh interpreter.

Set-up is what a user pays before the first submit: the imports, the
workload's specs and pins, the result store, the scheduler (and for the
service, its 2-worker pool and the TCP server answering a ping).  The
probe prints ``{"setup_s": ...}`` and tears everything down untimed.

    python3 perfbench/setup_probe.py <workload> <store dir>
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import cells  # noqa: E402
from repro.analysis import analyze_sweep  # noqa: E402,F401
from repro.bench.engine import SweepRunner  # noqa: E402,F401
from repro.bench.store import ResultStore  # noqa: E402
from repro.service.scheduler import ExperimentScheduler  # noqa: E402


def main() -> None:
    workload, store_dir = sys.argv[1:3]
    cells.workload_cells(workload)
    cells.load_pins()
    store = ResultStore(store_dir)
    server = None
    if workload == "service-roundtrip":
        from repro.service.server import ExperimentServer, request

        scheduler = ExperimentScheduler(workers=2, store=store)
        server = ExperimentServer(scheduler).start()
        request(server.host, server.port, {"op": "ping"})
    else:
        # What SweepRunner(jobs=1) starts on its first run.
        scheduler = ExperimentScheduler(workers=0, store=store)
    elapsed = time.perf_counter() - t0
    if server is not None:
        server.stop()
    scheduler.shutdown()
    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main()
