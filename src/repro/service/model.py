"""Job → task model with lifecycle signals.

The service executes work as a two-level hierarchy:

* a :class:`Job` is one client submission (e.g. an experiment batch);
* a :class:`Task` is one unit of schedulable work (one experiment
  cell), dispatched eagerly over the worker pool and retried on worker
  death.

A finished cell travels as a :class:`ResultPayload`: the JSON text a
process worker encoded, or the dict an in-process run returned, each
turned into the other only when someone reads that view.

The cells of a job are independent, so a job's tasks are ready as soon
as it is admitted and nothing orders them.  Both levels are a
:class:`Lifecycle`: they move through
``PENDING → RUNNING → DONE | FAILED | CANCELLED``.  Cancellation
propagates *down* (job → tasks) and completion aggregates *up* (every
task and dedupe subscription settled → job done; any task failed →
job failed).

Nothing in this module touches threads, processes, or the store — it is
pure bookkeeping the :class:`~repro.service.scheduler.ExperimentScheduler`
drives, which keeps the state machine independently testable.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "State",
    "Lifecycle",
    "TaskSpec",
    "Task",
    "Job",
    "JobCounters",
    "ResultPayload",
]


class State(str, enum.Enum):
    """Lifecycle state shared by jobs and tasks."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (State.DONE, State.FAILED, State.CANCELLED)


#: Legal state transitions; anything else is a scheduler bug.
#: RUNNING -> PENDING is the reschedule path: a task whose worker died
#: goes back to the ready queue for another attempt.
_TRANSITIONS = {
    State.PENDING: {State.RUNNING, State.DONE, State.FAILED, State.CANCELLED},
    State.RUNNING: {State.PENDING, State.DONE, State.FAILED, State.CANCELLED},
    State.DONE: set(),
    State.FAILED: set(),
    State.CANCELLED: set(),
}


class Lifecycle:
    """State machine over :class:`State`.

    Terminal states are sticky: a second transition request against a
    terminal object is ignored (the first signal wins), which is what
    makes concurrent completion/cancellation races safe to express as
    plain calls.
    """

    def __init__(self) -> None:
        self.state = State.PENDING

    def signal(self, state: State) -> bool:
        """Move to ``state``; returns False if the move was a no-op.

        Transitions out of a terminal state never happen; an illegal
        non-terminal transition raises (it means the scheduler lost
        track of this object).
        """
        if self.state is state:
            return False
        if self.state.terminal:
            return False
        if state not in _TRANSITIONS[self.state]:
            raise RuntimeError(
                f"illegal lifecycle transition {self.state.value} -> "
                f"{state.value} on {self!r}"
            )
        self.state = state
        return True


class ResultPayload:
    """One cell's result as the service carries it: its JSON text, its
    dict, or both.

    A process worker sends :meth:`encoded` (the text and the summary),
    and the store and the TCP server splice that text into what they
    write, so the parent never decodes it.  The inline pool, cache hits
    and predictions carry their dict and encode it each time a store or
    a TCP client asks, without keeping the text.  A payload holds one
    view at a time: reading :attr:`data` of a text payload decodes it
    once and drops the text.  ``throughput``, ``latency`` and ``source``
    are the summary result listeners read.
    """

    __slots__ = ("_text", "_data", "throughput", "latency", "source")

    def __init__(self, data: Dict[str, Any]) -> None:
        self._data: Optional[Dict[str, Any]] = data
        self._text: Optional[str] = None
        summary = data if isinstance(data, dict) else {}
        meas = summary.get("measurement") or {}
        self.throughput = meas.get("throughput")
        self.latency = meas.get("latency")
        self.source = summary.get("source", "simulated")

    @classmethod
    def encoded(cls, data: Dict[str, Any]) -> "ResultPayload":
        """``data``'s summary and ``json.dumps(data)``, without the dict."""
        out = cls(data)
        out._text, out._data = json.dumps(data), None
        return out

    @property
    def text(self) -> str:
        """The result's ``json.dumps`` text."""
        # _data is set before _text is dropped, so a reader on another
        # thread that finds no text finds the dict.
        text = self._text
        return text if text is not None else json.dumps(self._data)

    @property
    def data(self) -> Dict[str, Any]:
        """The result dict; every read returns the same object."""
        text = self._text
        data = self._data
        if data is None:
            data = self._data = json.loads(text)
            self._text = None
        return data


@dataclass(frozen=True)
class TaskSpec:
    """Immutable description of one unit of work.

    ``key`` is the content address used for caching and dedupe (for
    experiment cells it is the spec hash).  ``runner`` names the worker
    entry point as ``"module.path:function"`` — an import string rather
    than a callable so the payload crosses process boundaries without
    pickling code.  ``spec`` optionally carries the originating
    :class:`~repro.bench.engine.ExperimentSpec` so results can be
    written to the shared :class:`~repro.bench.store.ResultStore`.
    """

    key: str
    payload: Dict[str, Any]
    runner: str
    spec: Optional[Any] = None
    label: str = ""


class Task(Lifecycle):
    """One schedulable attempt-tracked unit of a job."""

    _ids = itertools.count(1)

    def __init__(self, spec: TaskSpec, job: "Job") -> None:
        super().__init__()
        self.id = f"t{next(self._ids)}"
        self.spec = spec
        self.job = job
        #: The job whose counters get "executed" credit.  Cleared when
        #: that job is cancelled but other jobs still need the result
        #: (ownership transfer keeps the task running).
        self.owner: Optional["Job"] = job
        #: Dispatch attempts so far (1 on first dispatch).
        self.attempts = 0
        #: Worker-death reschedules consumed.
        self.retries = 0
        #: Worker currently (or last) executing this task.
        self.worker_id: Optional[int] = None
        #: The result once DONE.
        self.result: Optional[ResultPayload] = None
        #: The exception that failed this task, once FAILED.
        self.error: Optional[BaseException] = None
        #: ``(job, index)`` pairs to deliver the result to.  The first
        #: entry is the owning cell; extras are in-flight dedupe
        #: subscribers from other submissions.
        self.subscribers: List[Tuple["Job", int]] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Task {self.id} {self.state.value} key={self.spec.key[:12]} "
            f"attempts={self.attempts}>"
        )


@dataclass
class JobCounters:
    """Per-job accounting, mirroring ``SweepRunner``'s counters.

    ``cache_hits``/``cache_misses`` count distinct-spec store probes at
    submission; ``executed`` counts cells this job's own tasks
    simulated; ``predicted`` counts cells answered by the analytic
    surrogate instead of simulation (:mod:`repro.bench.surrogate`);
    ``deduped`` counts cells served by subscribing to another
    job's in-flight task; ``retries`` counts worker-death reschedules.
    """

    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    predicted: int = 0
    deduped: int = 0
    retries: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "executed": self.executed,
            "predicted": self.predicted,
            "deduped": self.deduped,
            "retries": self.retries,
        }


class Job(Lifecycle):
    """One client submission: the tasks for a list of cells."""

    _ids = itertools.count(1)

    def __init__(self, client: str, n_cells: int, label: str = "") -> None:
        super().__init__()
        self.id = f"j{next(self._ids)}"
        self.client = client
        self.label = label
        self.n_cells = n_cells
        self.tasks: List[Task] = []
        #: Keys this job subscribed to on *other jobs'* in-flight tasks
        #: and is still waiting for, mapped to the submission index they
        #: fill (in-flight dedupe).
        self.pending_keys: Dict[str, int] = {}
        self.counters = JobCounters()
        #: Set by the scheduler: the first task failure, re-raised to
        #: the client from :meth:`JobHandle.wait`.
        self.error: Optional[BaseException] = None
        #: submission index -> result, duplicates aliasing one payload.
        self.results_by_index: Dict[int, ResultPayload] = {}
        #: key -> first submission index (intra-job duplicate aliasing).
        self.first_index_by_key: Dict[str, int] = {}
        #: first index -> later duplicate indices still to fill.
        self.alias_map: Dict[int, List[int]] = {}

    @property
    def settled(self) -> bool:
        """True when every task (and dedupe subscription) has resolved."""
        return all(t.state.terminal for t in self.tasks) and not self.pending_keys

    def describe(self) -> Dict[str, Any]:
        """JSON-able snapshot for ``repro jobs list|show``."""
        by_state: Dict[str, int] = {}
        for t in self.tasks:
            by_state[t.state.value] = by_state.get(t.state.value, 0) + 1
        return {
            "id": self.id,
            "client": self.client,
            "label": self.label,
            "state": self.state.value,
            "cells": self.n_cells,
            "tasks": by_state,
            "counters": self.counters.to_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Job {self.id} {self.state.value} client={self.client!r}>"
