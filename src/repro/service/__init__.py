"""Experiment service tier: jobs, tasks, workers, streaming.

This package turns the batch-shaped :class:`~repro.bench.engine.SweepRunner`
workflow into a long-running service.  An
:class:`~repro.service.scheduler.ExperimentScheduler` accepts spec
batches from many concurrent clients, executes them over a persistent
worker pool with fair queueing, retry-on-worker-death, cancellation,
and a shared content-addressed cache, and streams results back as cells
complete.  ``repro serve`` / ``repro submit`` put the same scheduler
behind a line-oriented TCP protocol (:mod:`repro.service.server`).

See ``docs/service.md`` for the architecture tour.
"""

from repro.service.model import (
    Job,
    JobCounters,
    Lifecycle,
    ResultPayload,
    State,
    Task,
    TaskSpec,
)
from repro.service.events import EventFeed
from repro.service.pool import InlinePool, PoolEvent, ProcessPool
from repro.service.scheduler import ExperimentScheduler
from repro.service.streaming import CellResult, JobHandle
from repro.service.tasks import RUN_SPEC_RUNNER, run_spec_payload

__all__ = [
    "ExperimentScheduler",
    "EventFeed",
    "JobHandle",
    "CellResult",
    "ResultPayload",
    "Job",
    "Task",
    "TaskSpec",
    "State",
    "Lifecycle",
    "JobCounters",
    "InlinePool",
    "ProcessPool",
    "PoolEvent",
    "RUN_SPEC_RUNNER",
    "run_spec_payload",
]
