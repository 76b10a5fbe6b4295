"""Synthetic task runners for service tests and failure drills.

These runners let the scheduler's machinery — streaming order,
backpressure, cancellation, worker-death retry — be exercised with
controlled wall-clock behavior and cross-process observability, without
simulating real STAP cells.  They are shipped in the package (rather
than the test tree) so worker processes can import them regardless of
how the parent was started.

All coordination happens through marker files under the payload's
``dir``: workers may be separate processes, so in-memory flags cannot
be seen from the test.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

__all__ = [
    "SLEEP_RUNNER",
    "SLOW_FIRST_RUNNER",
    "FAILING_RUNNER",
    "MODULES_RUNNER",
    "sleep_payload",
    "slow_first_attempt_payload",
    "failing_payload",
    "modules_payload",
]

SLEEP_RUNNER = "repro.service.testing:sleep_payload"
SLOW_FIRST_RUNNER = "repro.service.testing:slow_first_attempt_payload"
FAILING_RUNNER = "repro.service.testing:failing_payload"
MODULES_RUNNER = "repro.service.testing:modules_payload"


def _touch(directory: str, name: str) -> None:
    if directory:
        Path(directory, name).touch()


def sleep_payload(payload: dict) -> dict:
    """Sleep ``duration`` seconds, then echo ``value``.

    Drops a ``started-<id>`` marker in ``dir`` before sleeping and a
    ``finished-<id>`` marker after, so tests can observe *when* a cell
    started executing relative to other deliveries (the streaming
    acceptance check) and whether a cancelled cell ever finished.
    """
    cell_id = payload.get("id", "cell")
    _touch(payload.get("dir", ""), f"started-{cell_id}")
    time.sleep(float(payload.get("duration", 0.0)))
    _touch(payload.get("dir", ""), f"finished-{cell_id}")
    return {"value": payload.get("value"), "id": cell_id, "pid": os.getpid()}


def slow_first_attempt_payload(payload: dict) -> dict:
    """Hang on the first attempt, return instantly on the retry.

    The first call creates ``attempted-<id>`` in ``dir`` and sleeps for
    ``duration`` (default 60 s) — long enough for the test to SIGKILL
    the worker mid-task.  A rescheduled attempt sees the marker and
    completes immediately, proving the task was retried rather than
    re-run from a clean slate.
    """
    cell_id = payload.get("id", "cell")
    directory = payload.get("dir", "")
    marker = Path(directory, f"attempted-{cell_id}")
    if marker.exists():
        return {"value": payload.get("value"), "id": cell_id,
                "attempt": "retry", "pid": os.getpid()}
    marker.touch()
    time.sleep(float(payload.get("duration", 60.0)))
    return {"value": payload.get("value"), "id": cell_id,
            "attempt": "first", "pid": os.getpid()}


def failing_payload(payload: dict) -> dict:
    """Raise ``ValueError(payload["message"])`` — a deterministic task
    failure (never retried; fails the job)."""
    raise ValueError(payload.get("message", "synthetic task failure"))


def modules_payload(payload: dict) -> dict:
    """The names of the modules the running process has loaded that
    start with ``prefix``, so a test can see what a worker holds."""
    prefix = payload.get("prefix", "")
    return {"modules": sorted(m for m in sys.modules if m.startswith(prefix))}
